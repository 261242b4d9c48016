"""Self-test of the benchmark's checker, tracer and workloads.

usage: python3 perfbench/selftest.py

A planted wrong expectation and a raised exception must each end as one
failed op with its reason tallied; each workload runs one pass at its
smallest size; the reference clock runs its loop once per interval of
step time; tracing must time calls made through names that other modules
bound with `from ... import`, and self times must add up.
"""

import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ldga import _diskcore, cedga  # noqa: E402

SMALLEST = {
    "torus-scan": {"sizes": (3,)},
    "m821-fields": {"fields": (2,)},
    "twist-certify": {"twist_ns": (5,)},
    "cli-small": {"commands": workloads.CLI_COMMANDS[:1]},
}


def one_pass(name, **kwargs):
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[name](seed=1, **{**SMALLEST[name], **kwargs})
    workload.run_pass(tally)
    return workload, tally


class CheckerTest(unittest.TestCase):
    def test_planted_wrong_expectation_is_a_failed_op(self):
        with mock.patch.object(workloads, "torus_aug_count", lambda n: 6):
            _, tally = one_pass("torus-scan")
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))
        self.assertFalse(tally.correct)
        [reason] = tally.reasons
        self.assertIn("augmentations != 6", reason)

    def test_planted_wrong_fixture_value_fails_every_op_of_that_field(self):
        with mock.patch.dict(workloads.M821_AUGS, {2: 17}):
            _, tally = one_pass("m821-fields")
        self.assertEqual((tally.attempted, tally.failed), (17, 17))
        self.assertFalse(tally.correct)

    def test_raised_exception_is_a_failed_op_not_a_crash(self):
        def over_budget(*args, **kwargs):
            raise _diskcore.DiskBudgetExceeded("planted")

        with mock.patch.object(cedga, "build_dga", over_budget):
            _, tally = one_pass("torus-scan")
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 0))
        self.assertTrue(tally.correct)
        self.assertEqual(dict(tally.reasons), {"DiskBudgetExceeded: planted": 1})

    def test_unreadable_output_is_a_wrong_answer(self):
        self.assertIn("malformed output", workloads.judge(workloads._check_augs, "{}"))

    def test_each_workload_runs_at_its_smallest_size(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload, tally = one_pass(name)
                self.assertEqual(tally.attempted, workload.ops_per_pass)
                self.assertEqual(tally.failed, 0, dict(tally.reasons))
                self.assertTrue(tally.correct, tally.check_errors)

    def test_known_gf4_defect_stays_visible(self):
        _, tally = one_pass("m821-fields", fields=(2, 4))
        self.assertEqual((tally.attempted, tally.failed), (136, 8))
        self.assertEqual(dict(tally.reasons),
                         {"AugmentationError: conjugation left a constant term": 8})
        self.assertTrue(tally.correct, tally.check_errors)


class TraceTest(unittest.TestCase):
    def test_from_import_names_are_traced_and_restored(self):
        orig = _diskcore.boundary_words
        self.assertIs(cedga.boundary_words, orig)
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertIsNot(cedga.boundary_words, orig)
            self.assertIs(cedga.boundary_words, _diskcore.boundary_words)
            with tracer.span(tracing.ROOT_SPAN):
                cedga.build_dga(cedga.trefoil_projection())
        self.assertIs(cedga.boundary_words, orig)
        names = {span[0] for span in tracer.spans}
        self.assertLessEqual({"cedga.build_dga", "cedga.boundary_words", "algebra.validate"},
                             names)
        self.assertEqual(tracer.counts["cedga.disks"], 8)

    def test_self_times_add_up_to_the_root(self):
        spans = [["pass", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1],
                 ["a", 6.0, 7.0, 0]]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, {"pass": 5.0, "a": 4.0, "b": 1.0})
        self.assertEqual(sum(selfs.values()), 10.0)


class RefClockTest(unittest.TestCase):
    def test_one_reference_loop_per_interval_of_step_time(self):
        clock = run.RefClock()
        tally = workloads.Tally()
        tally.clock = clock
        clock.after_step(2.5 * run.REF_EVERY_S)
        clock.after_step(0.6 * run.REF_EVERY_S)
        self.assertEqual(len(clock.samples), 3)
        with tally.step():
            pass
        self.assertEqual(len(clock.samples), 3)
        self.assertGreater(clock.take(), 0.0)
        self.assertEqual(clock.samples, [])

    def test_a_pass_without_samples_still_gets_one(self):
        clock = run.RefClock()
        self.assertGreater(clock.take(), 0.0)


class TailTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        samples = [float(i) for i in range(40)]
        self.assertEqual(run.tail(samples), (75.0, 29.0))

    def test_tail_falls_back_to_the_maximum_for_few_samples(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        self.assertEqual(run.tail([float(i) for i in range(20)]), (100.0, 19.0))


if __name__ == "__main__":
    unittest.main()
