import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qcauchy.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestVerify:
    def test_gl_t0_scaled_down(self):
        code, out, _ = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "4", "--max-q", "6"])
        assert code == 0
        assert "outcome  : pass" in out

    def test_macdonald_trivial(self):
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,0",
                               "--spec", "t0"])
        assert code == 0 and out.strip() == "1"

    def test_norm_partition_series(self):
        code, out, _ = invoke(["norm", "--n", "2", "--lambda", "0,2",
                               "--max-q", "4"])
        assert code == 0
        assert json.loads(out) == {"cap": 4,
                                   "coeffs": ["1", "1", "2", "2", "3"]}

    def test_exit_one_on_failure(self, monkeypatch):
        import qcauchy.cli as cli
        from qcauchy.identities import VerificationReport

        def fake(variant, n, policy):
            return VerificationReport(variant, n, {}, "fail",
                                      {"monomial": [0]}, 0, 0.0)
        monkeypatch.setattr(cli, "verify_identity", fake)
        code, out, _ = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "1", "--max-q", "1"])
        assert code == 1


class TestSpecializations:
    def test_max_q_keeps_vanishing_coefficients(self):
        # E_(0,4)(x; q^{-1}, oo) has the x1^4 coefficient q^4: modulo q^4
        # it is a zero series, and it is still printed
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,4",
                               "--spec", "qinv-tinf", "--max-q", "3"])
        assert code == 0
        assert "(0 + O(q^4)) x1^4" in out.splitlines()

    def test_corner_specs_are_integer_tables(self):
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,2",
                               "--spec", "q0"])
        assert code == 0 and out.splitlines() == ["1 x2^2", "1 x1*x2",
                                                  "1 x1^2"]


class TestInvariantErrors:
    def test_broken_positivity_exits_three(self, monkeypatch):
        import qcauchy.identities as identities
        from qcauchy.exact import QSeries

        def negative_norm(lam, cap):
            return QSeries(cap, (1, -1))
        monkeypatch.setattr(identities, "norm_a_q", negative_norm)
        code, out, err = invoke(["verify", "--identity", "sl", "--n", "2",
                                 "--max-deg", "1", "--max-q", "2"])
        assert code == 3 and out == ""
        assert err == ("internal error: negative norm coefficient; "
                       "positivity broken\n")


class TestSlMismatch:
    def test_injected_mismatch_names_witness(self, monkeypatch):
        # a norm one too large breaks the identity at the trivial class;
        # the failing run still sums every lambda up to the certified box
        import qcauchy.identities as identities
        from qcauchy.exact import QSeries
        norm_a_q = identities.norm_a_q

        def shifted_norm(lam, cap):
            return norm_a_q(lam, cap) + QSeries.one(cap)
        monkeypatch.setattr(identities, "norm_a_q", shifted_norm)
        code, out, _ = invoke(["verify", "--identity", "sl", "--n", "3",
                               "--max-deg", "2", "--max-q", "2"])
        assert code == 1
        lines = out.splitlines()
        assert "summands : 316" in lines
        assert "outcome  : fail" in lines
        witness = json.loads(lines[-1].split(":", 1)[1])
        assert witness["monomial"] == [0, 0, 0, 0]


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _, _ = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                             "--max-deg", "2", "--max-q", "2", "--bogus"])
        assert code == 2

    def test_malformed_lambda(self):
        code, _, err = invoke(["macdonald", "--n", "2", "--lambda", "0,x"])
        assert code == 2 and "malformed" in err

    def test_wrong_rank(self):
        code, _, _ = invoke(["macdonald", "--n", "3", "--lambda", "0,1"])
        assert code == 2

    def test_inconsistent_flags(self):
        code, _, err = invoke(["norm", "--n", "2", "--lambda", "0,1",
                               "--qt", "--max-q", "3"])
        assert code == 2
        code, out, err = invoke(["norm", "--n", "2", "--lambda", "0,2",
                                 "--qt", "--alt"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, _, err = invoke(["verify", "--identity", "gl-qt", "--n", "2",
                               "--max-deg", "2", "--max-q", "3"])
        assert code == 2
        code, _, err = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "2"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["qt", "q0", "qinf-tinf", "qt-inv"])
    def test_max_q_needs_series_spec(self, spec):
        code, out, err = invoke(["macdonald", "--n", "2", "--lambda", "0,2",
                                 "--spec", spec, "--max-q", "3"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_identity(self):
        code, _, _ = invoke(["verify", "--identity", "nope", "--n", "2",
                             "--max-deg", "2", "--max-q", "2"])
        assert code == 2


class TestDeterminism:
    def test_jobs_byte_identical(self):
        base = ["verify", "--identity", "gl-t0", "--n", "2",
                "--max-deg", "4", "--max-q", "6"]
        _, out1, _ = invoke(base + ["--jobs", "1"])
        _, out8, _ = invoke(base + ["--jobs", "8"])
        assert out1 == out8

    def test_repeated_invocations(self):
        args = ["macdonald", "--n", "3", "--lambda", "1,0,2",
                "--format", "json"]
        outs = {invoke(args)[1] for _ in range(3)}
        assert len(outs) == 1


class TestJsonRoundTrip:
    def test_verify_json(self):
        code, out, _ = invoke(["verify", "--identity", "classical-q0",
                               "--n", "2", "--max-deg", "3", "--max-q", "0",
                               "--format", "json"])
        assert code == 0
        rec = json.loads(out)
        assert json.dumps(rec, sort_keys=True) == out.strip()
        assert rec["outcome"] == "pass"

    def test_macdonald_json(self):
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,2",
                               "--spec", "t0", "--format", "json"])
        rec = json.loads(out)
        assert json.dumps(rec, sort_keys=True) == out.strip()
        assert {tuple(t["exps"]) for t in rec["terms"]} == \
            {(0, 2), (1, 1), (2, 0)}


class TestAppendixVerb:
    def test_appendix(self):
        code, out, _ = invoke(["appendix", "--range", "3", "--max-q", "6"])
        assert code == 0 and "pass" in out

    def test_sl2_appendix_identity(self):
        code, out, _ = invoke(["verify", "--identity", "sl2-appendix",
                               "--n", "2", "--max-deg", "4", "--max-q", "8"])
        assert code == 0

    def test_sl2_appendix_needs_rank_two(self):
        code, _, _ = invoke(["verify", "--identity", "sl2-appendix",
                             "--n", "3", "--max-deg", "4", "--max-q", "8"])
        assert code == 2


VERIFY = ["verify", "--identity", "gl-t0"]


@pytest.mark.parametrize("argv", [
    VERIFY + ["--n", "2", "--max-deg", "-1", "--max-q", "2"],
    VERIFY + ["--n", "2", "--max-deg", "2", "--max-q", "-1"],
    ["appendix", "--range", "-1"],
    VERIFY + ["--n", "0", "--max-deg", "2", "--max-q", "2"],
    VERIFY + ["--n", "2", "--max-deg", "2", "--max-q", "2", "--jobs", "0"],
    VERIFY + ["--n", "2", "--max-deg", "2", "--max-q", "2", "--jobs", "-2"],
], ids=["negative-max-deg", "negative-max-q", "negative-range", "n-zero",
        "jobs-zero", "jobs-negative"])
def test_out_of_range_option(argv):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
