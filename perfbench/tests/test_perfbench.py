"""Self-checks of the benchmark: seeded generation, the recorded digests,
and the trace (it changes no output, and its self times add up).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# small requests over every traced layer: the sl certificate path, the gl
# series path with the --jobs pool, exact (q, t) arithmetic, and the
# query commands
SMALL = [
    ["verify", "--identity", "sl", "--n", "3", "--max-deg", "1",
     "--max-q", "2"],
    ["verify", "--identity", "gl-qt", "--n", "2", "--max-deg", "2"],
    ["macdonald", "--n", "3", "--lambda", "0,1,2", "--spec", "t0"],
    ["norm", "--n", "3", "--lambda", "0,2,1", "--alt"],
    ["char", "--kind", "T", "--n", "3", "--lambda", "1,0,2", "--max-deg", "3",
     "--max-q", "6"],
]
POOL = [["verify", "--identity", "gl-t0", "--n", "3", "--max-deg", "4",
         "--max-q", "4", "--jobs", "2"]]


def env():
    e = run.child_env()
    e["PYTHONPATH"] = os.path.join(ROOT, "src")
    return e


def traced(requests):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        _, results = run.run_operation(requests, env(), None, trace_path=path)
        with open(path) as fh:
            return results, json.load(fh)


class SeededGeneration(unittest.TestCase):

    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.operation(name, 7),
                             workloads.operation(name, 7))

    def test_query_mix_depends_on_seed(self):
        self.assertNotEqual(workloads.query_mix(1), workloads.query_mix(2))

    def test_query_mix_covers_every_composition_once(self):
        reqs = workloads.query_mix(3)
        self.assertGreaterEqual(len(reqs), 200)
        first = {r[4] for r in reqs if r[0] == "macdonald"}
        self.assertEqual(len(first),
                         len(workloads.compositions(workloads.MAX_SIZE)))

    def test_every_generated_request_has_a_digest(self):
        with open(os.path.join(BENCH, "expected.json")) as fh:
            expected = json.load(fh)
        for name in workloads.WORKLOADS:
            universe = {workloads.key(r) for r in workloads.universe(name)}
            self.assertLessEqual(universe, set(expected))
            for seed in range(20):
                for argv in workloads.operation(name, seed):
                    self.assertIn(workloads.key(argv), universe)


class SelfTimes(unittest.TestCase):

    def test_self_time_subtracts_folded_and_union_of_children(self):
        S = spans
        data = [["op", 0, None, 0.0, 10.0, 1.0],
                ["a", 0, 0, 1.0, 5.0, 0.0],
                ["b", 0, 0, 3.0, 7.0, 0.5]]    # overlaps a: another thread
        self.assertEqual(S.self_times(data), [3.0, 4.0, 3.5])


class Trace(unittest.TestCase):

    def test_trace_changes_no_output(self):
        for requests in (SMALL, POOL):
            _, plain = run.run_operation(requests, env(), None)
            results, _ = traced(requests)
            self.assertEqual([(r["status"], r["sha256"]) for r in plain],
                             [(r["status"], r["sha256"]) for r in results])
            self.assertTrue(all(r["status"] in (0, 1) for r in plain))

    def test_self_times_sum_to_solve_time(self):
        results, data = traced(SMALL)
        m = spans.summarize(data)
        layers = sum(s for s, rec in zip(spans.self_times(data["spans"]),
                                         data["spans"]) if rec[0] != "op")
        layers += sum(secs for _, secs in data["folded"].values())
        self.assertAlmostEqual(layers + m["trace.unattributed_s"],
                               m["trace.solve_s"], delta=1e-6)
        self.assertAlmostEqual(m["trace.overlap_s"], 0.0, delta=1e-6)
        wall = sum(r["end"] - r["start"] for r in results)
        self.assertLessEqual(m["trace.solve_s"], wall)

    def test_every_span_closes_inside_its_parent(self):
        _, data = traced(SMALL + POOL)
        recs = data["spans"]
        for rec in recs:
            self.assertIsNotNone(rec[spans.END])
            if rec[spans.PARENT] is not None:
                parent = recs[rec[spans.PARENT]]
                self.assertEqual(rec[spans.OP], parent[spans.OP])
                self.assertGreaterEqual(rec[spans.START], parent[spans.START])
                self.assertLessEqual(rec[spans.END], parent[spans.END])

    def test_layers_and_stages_are_attributed(self):
        _, data = traced(SMALL)
        m = spans.summarize(data)
        for stage in ("certificate", "product_side", "macdonald_side",
                      "compare"):
            self.assertGreater(m[f"identities.{stage}.total_s"], 0, stage)
        self.assertGreater(m["identities.window.pairs"], 0)
        self.assertGreater(m["identities.macdonald_side.summands"], 0)
        for name in ("exact.qtpoly_gcd.calls", "exact.QSeries.mul.calls",
                     "series.mul_truncated.calls", "macdonald.atom_terms.calls",
                     "macdonald.T0Engine.batch.calls",
                     "macdonald.GenericMacdonaldEngine.get.calls",
                     "affine.hw_algebra_char.calls",
                     "characters.char_module.calls", "cli.run.calls",
                     "weights.compositions.enumerated"):
            self.assertGreater(m[name], 0, name)
        self.assertEqual(m["cli.run.calls"], len(SMALL))


if __name__ == "__main__":
    unittest.main()
