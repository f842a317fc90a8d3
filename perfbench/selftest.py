"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: the traced
passes take about half a minute.
"""

from __future__ import annotations

import os
import sys
import unittest

import checks
import run
from tracer import Tracer, jordan_totient
from workloads import DEFAULT_SEED, WORKLOADS, run_job

sys.path.insert(0, str(run.SRC))
os.chdir(run.ROOT)

# Jobs left out of the smoke-sized runs because they take seconds each.
HEAVY = ("su-r2-7", "su-r2-8", "su-r3-6", "su-r3-7", "su2x-sphere-4x6",
         "su2x-sphere-6x4", "su2x-sphere-5x5", "verify-paper", "preset-cp-sum")


def smoke_jobs(workload, api, seed=DEFAULT_SEED):
    return [j for j in WORKLOADS[workload]["jobs"](seed, api)
            if not j.id.startswith(HEAVY)]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traced = {w: run.measure_traced(w, DEFAULT_SEED)
                      for w in sorted(WORKLOADS)}
        # measure_traced re-imports biquot, so load the modules used below last
        cls.api = run.load_api()

    def test_smoke_runs_pass_their_checks(self):
        for workload in WORKLOADS:
            jobs = smoke_jobs(workload, self.api)
            results = {j.id: [] for j in jobs}
            run.run_pass(self.api, jobs, results, {})
            _, failed, problems = run.evaluate(self.api, workload, jobs,
                                               results)
            self.assertEqual((failed, problems), (0, {}), workload)

    def test_traced_outputs_equal_untraced(self):
        for workload in WORKLOADS:
            jobs = smoke_jobs(workload, self.api)
            plain = [run_job(self.api, j) for j in jobs]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [run_job(self.api, j) for j in jobs]
            finally:
                tracer.restore()
            self.assertGreater(len(tracer.start), 0)
            self.assertEqual([checks.output_digest(t) for _, t in plain],
                             [checks.output_digest(t) for _, t in traced])

    def test_full_traced_runs_are_correct(self):
        for workload, (attempted, failed, problems, _) in self.traced.items():
            self.assertEqual((failed, problems), (0, {}), workload)
            self.assertGreater(attempted, 0)

    def test_claimed_layers_are_exercised(self):
        for workload, (_, _, _, metrics) in self.traced.items():
            for name in WORKLOADS[workload]["exercises"]:
                self.assertGreater(metrics[name][0], 0, (workload, name))
            for name in WORKLOADS[workload]["bypasses"]:
                self.assertEqual(metrics[name][0], 0, (workload, name))

    def test_by_name_imports_are_patched(self):
        api = self.api
        bindings = [(api.cli, "is_free"), (api.cli, "brute_force_free"),
                    (api.cli, "rhs_search"), (api.cli, "pi3_cokernel"),
                    (api.freeness, "smith_normal_form"),
                    (api.cohomology, "groebner_basis"),
                    (api.cohomology, "reduce_poly"),
                    (api.cohomology, "smith_normal_form"),
                    (api.refchecks, "ideal_identities"),
                    (api.constructions, "chern_pullback")]
        before = [getattr(m, k) for m, k in bindings]
        tracer = Tracer()
        tracer.install()
        try:
            for (m, k), orig in zip(bindings, before):
                self.assertIs(getattr(m, k).__wrapped__, orig, k)
        finally:
            tracer.restore()
        self.assertEqual([getattr(m, k) for m, k in bindings], before)

    def test_inputs_follow_the_seed(self):
        for workload in WORKLOADS:
            gen = WORKLOADS[workload]["jobs"]
            a = [j.input_digest() for j in gen(5, self.api)]
            b = [j.input_digest() for j in gen(5, self.api)]
            c = [j.input_digest() for j in gen(6, self.api)]
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_default_seed_inputs_match_the_recorded_digests(self):
        for workload in WORKLOADS:
            stored = checks.load_digests(workload)
            jobs = WORKLOADS[workload]["jobs"](DEFAULT_SEED, self.api)
            self.assertEqual({j.id: j.input_digest() for j in jobs},
                             {k: v[0] for k, v in stored.items()}, workload)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(1, 53)), 75.0), (75.0, 39))
        self.assertEqual(run.tail(list(range(1, 101)), 90.0), (90.0, 90))
        self.assertEqual(run.tail(list(range(1, 53)), 90.0), (80.0, 42))

    def test_jordan_totient_counts_exact_orders(self):
        for q in range(2, 30):
            for rank in (1, 2, 3):
                brute = sum(1 for _ in self.api.freeness._numerators_of_order(
                    q, rank))
                self.assertEqual(jordan_totient(q, rank), brute, (q, rank))


if __name__ == "__main__":
    unittest.main()
