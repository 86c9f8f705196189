"""The four benchmark workloads: a set-up step and one checked pass each.

Every workload calls only public functions of ``cgaweyl`` (through module
attributes, so that the tracer's wrappers see the calls) and checks every
result it times.  A check is one report entry, one spectrum row, one ladder
relation or ground-state test, or one Jacobi triple.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import cgaweyl.verify  # noqa: F401  (fails loudly where verify cannot import)
from cgaweyl import cli, realizations as rz, spectrum as sp, verify as vf, weyl

# sha256 and size of ``cgaweyl all --format json`` at the reference commit
GOLDEN_ALL_SHA256 = "9f894a56ba386127e3ca03585819c4071e81574e7a7250bd24f84798d7d3af3c"
GOLDEN_ALL_BYTES = 1_693_160

GENERAL_ELLS = (1, 2, 3, 4, 5)
LADDER_CASES = ((2, 8), (3, 7), (4, 6))  # (ell, E_max), zero-mode cutoff 1
# coprime frequency pairs (omega1, omega2) whose ratio is not an integer
XI0_PAIRS = ((2, 3), (3, 2), (3, 5), (5, 3))
XI0_PAIRS_PER_PASS = 2


@dataclass
class Tally:
    """Checks attempted and failed in one pass."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def report(self, report) -> None:
        """A ``VerificationReport``: one check per entry."""
        for entry in report.entries:
            self.check(entry.status != vf.FAILED)

    def table(self, table) -> None:
        """A ``SpectrumTable``: one check per row."""
        for row in table.rows:
            self.check(row.verified)

    def section(self, section: dict) -> None:
        """A report section as the CLI emits it: entries and rows."""
        before = self.failed
        for entry in section.get("entries", ()):
            self.check(entry["status"] != vf.FAILED)
        for row in section.get("rows", ()):
            self.check(row["verified"])
        if not section.get("ok") and self.failed == before:
            self.check(False)


# ---------------------------------------------------------------------------
# reproduce_all: exactly ``cgaweyl all``, checked against the golden bytes

def setup_reproduce_all(seed: int, workdir: Path) -> dict:
    return {"output": workdir / "all.json"}


def pass_reproduce_all(state: dict) -> Tally:
    args = cli.build_parser().parse_args(["all", "--output", str(state["output"])])
    status, doc = cli.run(args)
    cli.emit_report(doc, args.format, args.output)
    data = args.output.read_bytes()
    args.output.unlink()
    tally = Tally()
    for section in doc["sections"]:
        tally.section(section)
    golden = (len(data) == GOLDEN_ALL_BYTES
              and hashlib.sha256(data).hexdigest() == GOLDEN_ALL_SHA256)
    if status != 0 or not golden:
        tally.failed = tally.attempted = max(tally.attempted, 1)
    return tally


# ---------------------------------------------------------------------------
# general_ell_tables: parameter-free commutator tables, no apply_to

def setup_general_ell_tables(seed: int, workdir: Path) -> dict:
    return {ell: rz.build_free_general(ell, verbatim=False) for ell in GENERAL_ELLS}


def pass_general_ell_tables(families: dict) -> Tally:
    tally = Tally()
    for ell, fam in families.items():
        tally.report(vf.verify_table(fam, vf.general_commutator_table(ell)))
        tally.report(vf.verify_general_invariant(ell))
    return tally


# ---------------------------------------------------------------------------
# ladder_spectra: apply_to chains building and checking eigenstates

def setup_ladder_spectra(seed: int, workdir: Path) -> dict:
    return {ell: rz.build_ladder(ell) for ell, _ in LADDER_CASES}


def pass_ladder_spectra(ladders: dict) -> Tally:
    tally = Tally()
    for ell, e_max in LADDER_CASES:
        ladder = ladders[ell]
        tally.check(sp.ground_state_verify(ladder)[0])
        for _, ok, _ in sp.ladder_relations_check(ladder):
            tally.check(ok)
        tally.table(sp.spectrum_table(ladder, e_max, 1))
    return tally


# ---------------------------------------------------------------------------
# symbolic_xi0: symbolic gamma/xi and Fraction exponents

def xi0_pairs(seed: int) -> list[tuple[int, int]]:
    """The frequency pairs a seed draws; the only input any seed changes."""
    return random.Random(seed).sample(XI0_PAIRS, XI0_PAIRS_PER_PASS)


def setup_symbolic_xi0(seed: int, workdir: Path) -> dict:
    return {
        "pairs": xi0_pairs(seed),
        "osc": rz.build_osc_l1(),
        "free": rz.build_free_l1(),
        "free_calibrated": rz.build_free_l1(verbatim=False),
    }


def jacobi_residuals(fam):
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]] for every triple of generators."""
    comm = weyl.commutator
    for a, b, c in itertools.combinations([fam[n] for n in fam.order], 3):
        yield comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))


def pass_symbolic_xi0(state: dict) -> Tally:
    tally = Tally()
    parser = cli.build_parser()
    for w1, w2 in state["pairs"]:
        args = parser.parse_args(["infinite", "--omega1", str(w1),
                                  "--omega2", str(w2), "--cutoff", "3"])
        for section in cli.cmd_infinite(args):
            tally.section(section)
    osc, free = state["osc"], state["free"]
    tally.report(vf.verify_table(osc, vf.cga_l1_table(osc)))
    tally.report(vf.calibrate_constants(free, vf.cga_l1_table(free))[1])
    for fam in (osc, state["free_calibrated"]):
        triplet = rz.build_triplet(fam)
        tally.report(vf.onshell_check(fam.generators, triplet.named(), fam.name,
                                      vf.expected_onshell_factors(fam)))
        tally.report(vf.verify_sl2(triplet, 1))
    tally.report(vf.verify_similarity())
    for fam in (osc, free):
        for residual in jacobi_residuals(fam):
            tally.check(residual.is_zero())
    return tally


WORKLOADS = {
    "reproduce_all": (setup_reproduce_all, pass_reproduce_all),
    "general_ell_tables": (setup_general_ell_tables, pass_general_ell_tables),
    "ladder_spectra": (setup_ladder_spectra, pass_ladder_spectra),
    "symbolic_xi0": (setup_symbolic_xi0, pass_symbolic_xi0),
}
