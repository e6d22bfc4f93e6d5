"""Exact-arithmetic toolkit for nonsymmetric Macdonald polynomials of type
GL_n, the affine Weyl combinatorics of generalized Weyl modules, and exact
verification of the associated q-Cauchy identities."""

from .exact import (DivergentLimitError, DivergentPochhammerError, ExactError,
                    InvariantError, QPoly, QSeries, QTPoly, QTRational,
                    Rational, ZeroDenominatorError, geometric_series,
                    gaussian_binomial, invert_q, inv_pochhammer_qq, limit_t,
                    normalize_qt, qq_pochhammer_poly, qseries_from_qtrational)
from .series import (TruncatedSeries, TruncationPolicy, VariableSet,
                     first_difference, inverse_truncated, mul_truncated,
                     pochhammer_series, series_records)
from .weights import (Composition, Permutation, antidominant_data, arm_leg,
                      bruhat_leq, diagram, order_geq, restrict_weight,
                      sl_representative)
from .macdonald import (MacdonaldPolynomial, fillings, macdonald_E,
                        macdonald_E_fillings, norm_a_q, norm_a_qt,
                        rs_polynomial, sl2_closed_forms, specialize_E)
from .affine import (AffineCoroot, AffinePerm, HwAlgebraChar, ReducedWord,
                     beta_sequence, char_l, factorized_words,
                     hw_algebra_char, hw_algebra_char_gl,
                     translation_reduced_word)
from .characters import char_module, ch_weyl_ratio_check
from .identities import (VerificationReport, lhs_series, project_to_sl,
                         rhs_series, verify_identity, verify_sl2_appendix)

__version__ = "0.1.0"
