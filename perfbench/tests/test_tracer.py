"""The tracer counts every layer, changes no output and restores the program.

Needs an interpreter on which ``cgaweyl.verify`` imports (see README.md).
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from cgaweyl import cli, realizations as rz, scalar, spectrum as sp  # noqa: E402
from cgaweyl import verify as vf, weyl  # noqa: E402
from spans import Tracer  # noqa: E402
import workloads  # noqa: E402


def tiny_run() -> list:
    """Small inputs that reach every traced layer; returns their outputs."""
    osc, free = rz.build_osc_l1(), rz.build_free_l1()
    triplet = rz.build_triplet(osc)
    ladder = rz.build_ladder(1)
    args = cli.build_parser().parse_args(["verify", "--family", "osc-l1"])
    status, doc = cli.run(args)
    return [
        vf.verify_table(osc, vf.cga_l1_table(osc)).to_dict(),
        vf.calibrate_constants(free, vf.cga_l1_table(free))[1].to_dict(),
        vf.onshell_check(osc.generators, triplet.named(), osc.name,
                         vf.expected_onshell_factors(osc)).to_dict(),
        vf.verify_general_invariant(1).to_dict(),
        vf.verify_subalgebra_structure(rz.build_xi0(2, 3, None, 2)).to_dict(),
        sp.spectrum_table(ladder, 2, 1).to_dict(),
        sp.ladder_relations_check(ladder),
        status,
        cli.emit_report(doc, "json", None),
    ]


def bindings():
    """Every (namespace, name, value) of a cgaweyl module or of Coef."""
    mods = [m for n, m in sys.modules.items()
            if n == "cgaweyl" or n.startswith("cgaweyl.")]
    return {(id(ns), key): value for ns in mods + [scalar.Coef]
            for key, value in vars(ns).items() if callable(value)}


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.before = bindings()
        cls.plain = tiny_run()
        cls.tracer = Tracer()
        with cls.tracer.installed():
            cls.inside = bindings()
            cls.traced = tiny_run()
        cls.after = bindings()
        cls.metrics = cls.tracer.layer_metrics()

    def test_outputs_are_identical(self):
        self.assertEqual(self.plain, self.traced)

    def test_every_counter_is_nonzero(self):
        for name, value in self.metrics.items():
            with self.subTest(name):
                self.assertGreater(value, 0)

    def test_wrappers_rebound_in_every_namespace(self):
        wrapped = {key for key, value in self.inside.items()
                   if hasattr(value, "__wrapped__")}
        originals = {id(f) for f in (weyl.mul, weyl.commutator, weyl.apply_to,
                                     rz.build_H, rz.build_ladder)}
        holders = {key for key, value in self.before.items()
                   if id(value) in originals}
        # verify, spectrum, realizations and the package all hold some of them
        self.assertGreaterEqual(len({ns for ns, _ in holders}), 5)
        self.assertLessEqual(holders, wrapped)
        self.assertIn((id(scalar.Coef), "__radd__"), wrapped)

    def test_originals_restored(self):
        self.assertEqual(self.before, self.after)

    def test_verify_checks_counts_outermost_reports_only(self):
        # calibrate_constants runs verify_table inside; count its report once
        tracer = Tracer()
        free = rz.build_free_l1()
        with tracer.installed():
            report = vf.calibrate_constants(free, vf.cga_l1_table(free))[1]
        self.assertEqual(tracer.layer_metrics()["verify.checks"],
                         len(report.entries))


class WorkloadInputTest(unittest.TestCase):
    def test_xi0_pairs_follow_the_seed(self):
        self.assertEqual(workloads.xi0_pairs(7), workloads.xi0_pairs(7))
        draws = {tuple(workloads.xi0_pairs(s)) for s in range(20)}
        self.assertGreater(len(draws), 1)
        for draw in draws:
            self.assertEqual(len(set(draw)), workloads.XI0_PAIRS_PER_PASS)
            self.assertLessEqual(set(draw), set(workloads.XI0_PAIRS))


if __name__ == "__main__":
    unittest.main()
