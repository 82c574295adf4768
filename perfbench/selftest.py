"""Tests of the benchmark itself: the oracles reject wrong answers, the
generator is deterministic, and traced counters repeat exactly.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import import_library, op_quantiles, run_pass  # noqa: E402

cli = import_library()


def _invariants_text(fields: dict[str, str]) -> str:
    """Lines as ``ekl degree --format invariants`` prints them."""
    lines = [f"{k}: {v}" if " " in k else f"{k} {v}" for k, v in fields.items()]
    return "\n".join(lines) + "\n"


class OracleTests(unittest.TestCase):
    def test_quotient_oracle_rejects_wrong_class_and_verdict(self):
        check = workloads.quotient_check("60<1> + 60<-1>")
        good = "computed: 60<1> + 60<-1>\nverdict: MATCH\n"
        self.assertIsNone(check(0, good))
        self.assertIsNotNone(check(0, good.replace("60<-1>", "59<-1>")))
        self.assertIsNotNone(check(0, good.replace("MATCH", "MISMATCH")))
        self.assertIsNotNone(check(1, good))

    def test_q_oracle_rejects_wrong_class(self):
        odd = workloads.RandomMap(("x1", "x2", "x3"), (3, 1, 3), (-2, 3, 5))
        expected = workloads.expected_q_invariants(odd)
        self.assertEqual(expected["rank"], "9")
        self.assertEqual(expected["signature"], "-1")
        self.assertEqual(expected["discriminant"], "-30")
        check = workloads.invariants_check(expected)
        self.assertIsNone(check(0, _invariants_text(expected)))
        for key, wrong in (
            ("signature", "1"),
            ("discriminant", "30"),
            ("hasse", "(3) -> -1"),
            ("rank", "8"),
        ):
            self.assertIsNotNone(check(0, _invariants_text(dict(expected, **{key: wrong}))))

    def test_fp_oracle_rejects_wrong_discriminant(self):
        m = workloads.RandomMap(("x1", "x2", "x3"), (1, 1, 3), (2, 1, 1))
        expected = workloads.expected_fp_invariants(m)
        check = workloads.invariants_check(expected)
        self.assertIsNone(check(0, _invariants_text(expected)))
        flipped = "false" if expected["discriminant square"] == "true" else "true"
        wrong = dict(expected, **{"discriminant square": flipped})
        self.assertIsNotNone(check(0, _invariants_text(wrong)))

    def test_weyl_oracle_rejects_wrong_aP_and_count(self):
        check = workloads.weyl_check(24, 22680)
        good = "cosets: 22680\na_P: 24\n"
        self.assertIsNone(check(0, good))
        self.assertIsNotNone(check(0, good.replace("a_P: 24", "a_P: 23")))
        self.assertIsNotNone(check(0, good.replace("22680", "22681")))

    def test_weyl_expectations_match_the_closed_forms(self):
        from ekl.weyl import (
            ParabolicSpec,
            aP_formula_typeA,
            build_root_system,
            is_central_longest,
            parabolic_order_formula,
        )

        for name, type_text, flag, nodes, cosets, aP in workloads.WEYL_OPS:
            rs = build_root_system(type_text[0], int(type_text[1:]))
            node_list = [int(t) for t in nodes.split(",")]
            if flag == "--keep":
                spec = ParabolicSpec.keep(node_list)
            else:
                spec = ParabolicSpec.remove(rs, node_list)
            self.assertEqual(cosets, rs.order // parabolic_order_formula(rs, spec), name)
            if type_text[0] == "A":
                blocks = workloads.typeA_blocks(rs.rank, set(spec.kept_nodes))
                self.assertEqual(aP, aP_formula_typeA(blocks), name)
            elif type_text[0] in "BD":
                self.assertTrue(is_central_longest(rs), name)
                self.assertEqual(aP, 0, name)

    def test_typeA_blocks(self):
        self.assertEqual(workloads.typeA_blocks(8, {1, 3, 5, 7}), [2, 2, 2, 2, 1])
        self.assertEqual(workloads.typeA_blocks(7, {1}), [2, 1, 1, 1, 1, 1, 1])

    def test_oracles_accept_the_program_and_reject_a_swapped_answer(self):
        with tempfile.TemporaryDirectory() as tmp:
            for field in ("q", f"fp:{workloads.FP_PRIME}"):
                ops = workloads.random_ops(1, field, tmp)[:12]
                _, _, outputs = run_pass(cli, ops)
                for op, (code, stdout) in zip(ops, outputs):
                    self.assertIsNone(op.check(code, stdout), op.name)
                # an answer for a map of another dimension is wrong
                other = next(
                    i for i, o in enumerate(outputs) if o[1] != outputs[0][1]
                )
                self.assertIsNotNone(ops[0].check(*outputs[other]))


class GeneratorTests(unittest.TestCase):
    def test_seed_determines_maps(self):
        self.assertEqual(workloads.random_maps(5), workloads.random_maps(5))
        self.assertNotEqual(workloads.random_maps(5), workloads.random_maps(6))

    def test_work_size_does_not_depend_on_seed(self):
        sizes = {sum(m.dimension for m in workloads.random_maps(s)) for s in range(5)}
        self.assertEqual(sizes, {216 * workloads.MAPS_PER_TRIPLE})


class MetricTests(unittest.TestCase):
    def test_op_quantiles_take_each_op_at_its_median_first(self):
        # one slow pass of the first op does not move the quantiles
        per_op = [[1.0, 100.0, 2.0], [3.0, 3.0, 3.0], [5.0, 6.0, 7.0], [8.0, 9.0, 10.0]]
        self.assertEqual(op_quantiles(per_op), (4.5, 8.25))

    def test_pass_brackets_every_op_with_reference_runs(self):
        refs = []
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.random_ops(1, "q", tmp)[:3]
            wall, times, _ = run_pass(cli, ops, reference_times=refs)
        self.assertEqual(len(refs), len(ops) + 1)
        self.assertAlmostEqual(wall, sum(times))


class TracerTests(unittest.TestCase):
    def _traced_counters(self, ops) -> dict:
        t = tracer.Tracer()
        t.install()
        try:
            t.start_pass()
            run_pass(cli, ops, t)
        finally:
            t.remove()
        metrics = t.pass_metrics(0)
        return {k: v for k, v in metrics.items() if not k.endswith("_s") and k != "weyl.coset_us"}

    def test_counters_repeat_exactly(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.random_ops(2, "q", tmp)[:6]
            ops += [
                workloads.Op("B2", ("quotient", "--type", "B", "--rank", "2"), None),
                workloads.Op(
                    "E6remove16",
                    ("weyl", "ap", "--type", "E6", "--remove", "1,6", "--method", "enumerate"),
                    None,
                ),
            ]
            first = self._traced_counters(ops)
            second = self._traced_counters(ops)
        self.assertEqual(first, second)
        self.assertGreater(first["degree.dimension_sum"], 0)
        self.assertEqual(first["weyl.cosets"], 270)

    def test_wrappers_are_removed(self):
        original = cli.ekl_degree
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(cli.ekl_degree, original)
        t.remove()
        self.assertIs(cli.ekl_degree, original)

    def test_missing_name_is_reported_not_raised(self):
        saved = tracer.STAGES
        tracer.STAGES = saved + (("ekl.cli", "no_such_function", "cli.gone"),)
        try:
            t = tracer.Tracer()
            t.install()
            t.remove()
        finally:
            tracer.STAGES = saved
        self.assertEqual(t.missing, ["ekl.cli.no_such_function"])


if __name__ == "__main__":
    unittest.main()
