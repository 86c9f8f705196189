"""Command-line front end: family construction, verification runs, spectrum
tables, and deterministic report emission.

Every user-supplied number is an exact rational in p/q syntax; no
floating point exists anywhere in the tool.  Reports are byte-identical
for identical configurations and are written atomically.  Exit codes:
0 all checks exact, 1 verification failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from . import realizations as rz
from . import spectrum as sp
from . import verify as vf
from .scalar import NUMBER, rational

SCHEMA = "cgaweyl-report/1"
REPORT_DIR_ENV = "CGAWEYL_REPORT_DIR"


class ConfigError(argparse.ArgumentTypeError):
    """A bad option value; argparse reports its message as the reason."""


_RATIONAL = re.compile(rf"[+-]?{NUMBER}")


def parse_rational(text: str) -> Fraction:
    # strictly p/q syntax: decimal or scientific notation is rejected
    if not _RATIONAL.fullmatch(text):
        raise ConfigError(f"not an exact p/q rational: {text!r}")
    try:
        return rational(text)
    except ValueError as exc:  # a zero denominator
        raise ConfigError(str(exc)) from None


def parse_parameter(text: str) -> Fraction | None:
    """gamma/xi values: 'symbolic' or an exact rational."""
    if text == "symbolic":
        return None
    return parse_rational(text)


def _int_at_least(low: int):
    """argparse type: a decimal integer no smaller than ``low``."""
    def parse(text: str) -> int:
        if not re.fullmatch(r"[+-]?\d+", text) or int(text) < low:
            raise ConfigError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


# ---------------------------------------------------------------------------
# sections

def _ladder_section(title: str, family: str, rels) -> dict:
    report = vf.VerificationReport(title, family)
    for label, ok, resid in rels:
        report.check(label, "0", ok, resid)
    return report.to_dict()


def _ground_section(title: str, family: str, target) -> dict:
    ok, offender = sp.ground_state_verify(target)
    report = vf.VerificationReport(title, family)
    report.check("annihilators applied to 1", "0", ok,
                 "" if ok else f"{offender} does not kill the ground state")
    return report.to_dict()


def _probe_section(H, lambdas, family: str) -> dict:
    report = vf.VerificationReport("continuous-spectrum probe", family)
    for lam in lambdas:
        try:
            value = sp.continuous_probe(H, lam)
        except sp.NotEigenstate:
            value = None
        report.check(f"H y^({lam})", f"({lam}) y^({lam})", value == lam,
                     "" if value == lam else f"got {value}",
                     str(value) if value is not None else "")
    return report.to_dict()


def _xi0(args) -> rz.GeneratorFamily:
    return rz.build_xi0(args.omega1, args.omega2, args.gamma, args.cutoff)


def _xi0_structure(fam: rz.GeneratorFamily) -> list[dict]:
    return [vf.verify_table(fam, vf.xi0_core_table(fam)).to_dict(),
            vf.verify_subalgebra_structure(fam).to_dict()]


def _xi0_onshell(fam: rz.GeneratorFamily) -> list[dict]:
    gens = {name: fam[name] for name in fam.order if "(" in name}
    return [vf.onshell_check(gens, {"Omega": fam["Omega"]}, fam.name,
                             vf.expected_onshell_factors(fam)).to_dict(),
            vf.verify_sl2(rz.build_triplet(fam), fam.params.omega2).to_dict()]


# ---------------------------------------------------------------------------
# commands

def cmd_verify(args) -> list[dict]:
    if args.family == "xi0":
        return _xi0_structure(_xi0(args))
    if args.family == "free-general":
        # one table check per sign of z+: the printed -d[tau], then +d[tau]
        table = vf.general_commutator_table(args.l)
        printed, report = (vf.verify_table(rz.build_free_general(args.l, verbatim=v), table)
                           for v in (True, False))
        report.notes.append(
            "z+ built as +d[tau]; the printed sign satisfies no table entry "
            "involving z+ on the left (see sign report)")
        return [report.to_dict(), vf.VerificationReport(
            "z+ sign report", report.family, notes=[
                f"{k}: {'table holds' if r.ok else 'table fails'}"
                for k, r in (("printed_minus_dtau", printed), ("plus_dtau", report))
            ]).to_dict()]
    fam = rz.build_free_l1(args.gamma, args.xi) if args.family == "free-l1" \
        else rz.build_osc_l1(args.gamma, args.xi)
    table = vf.cga_l1_table(fam)
    if args.calibrate:
        _, report = vf.calibrate_constants(fam, table)
    else:
        report = vf.verify_table(fam, table)
    return [report.to_dict()]


def cmd_onshell(args) -> list[dict]:
    if args.family == "xi0":
        return _xi0_onshell(_xi0(args))
    fam = rz.build_free_l1(args.gamma, args.xi, verbatim=False) \
        if args.family == "free-l1" else rz.build_osc_l1(args.gamma, args.xi)
    if args.omega is not None:
        return [vf.omega_rigidity_check(fam, args.omega).to_dict()]
    triplet = rz.build_triplet(fam)
    report = vf.onshell_check(fam.generators, triplet.named(), fam.name,
                              vf.expected_onshell_factors(fam))
    return [report.to_dict(), vf.verify_sl2(triplet, 1).to_dict()]


def cmd_spectrum(args) -> list[dict]:
    if args.family == "osc-l1":
        target, tag = rz.build_osc_l1(args.gamma, args.xi), "osc-l1"
    elif args.family == "free-general":
        target, tag = rz.build_ladder(args.l), f"l={args.l}"
    else:
        target, tag = _xi0(args), "xi0"
    label = target.name
    sections = [_ground_section(f"ground state ({tag})", label, target),
                _ladder_section(f"ladder relations ({tag})", label,
                                sp.ladder_relations_check(target))]
    table = sp.spectrum_table(target, args.emax, args.k)
    if args.family == "xi0":
        table.notes.append(f"eigenvalue of (m,n,k) is m*omega2 + n*omega1 = "
                           f"m*({target.params.omega2}) + n*({target.params.omega1}); "
                           "the level set equals {omega1*a + omega2*b}")
    elif args.family == "osc-l1":
        mults = table.level_multiplicity
        table.check("per-level (m,n) multiplicity", "E+1",
                    all(mults.get(E, 0) == E + 1 for E in range(args.emax + 1)))
    sections.append(table.to_dict())
    if args.family == "osc-l1":
        sections.append(_probe_section(rz.build_H(target),
                                       [Fraction(0), Fraction(1), Fraction(7, 3),
                                        Fraction(-1, 4)], label))
    return sections


def cmd_similarity(args) -> list[dict]:
    report = vf.verify_similarity(args.gamma, args.xi)
    report.notes.append(
        "constant-shift entries are documented additive constants, not failures")
    return [report.to_dict(), vf.general_vs_l1_diff().to_dict()]


def cmd_infinite(args) -> list[dict]:
    fam = _xi0(args)
    return _xi0_structure(fam) + _xi0_onshell(fam) + [
        _ladder_section("ladder relations (xi0)", fam.name,
                        sp.ladder_relations_check(fam)),
        _ground_section("ground state (xi0)", fam.name, fam),
        sp.spectrum_table(fam, args.emax, args.k).to_dict(),
    ]


def cmd_all(args) -> list[dict]:
    parse = build_parser().parse_args

    def commands(*lines: str) -> list[dict]:
        # parsed like command lines, so every default comes from OPTIONS
        sections = []
        for line in lines:
            sub = parse(line.split())
            sections += COMMANDS[sub.command].run(sub)
        return sections

    sections = commands("verify --family osc-l1",
                        "verify --family free-l1 --calibrate",
                        "onshell --family osc-l1", "onshell --family free-l1",
                        "onshell --family osc-l1 --omega 1")
    osc = rz.build_osc_l1()
    probe2 = vf.omega_rigidity_check(osc, 2)
    broken = sorted(e.lhs for e in probe2.failing())
    rigidity = vf.VerificationReport(
        "omega-rigidity (the deformed equation is invariant only at omega=1)",
        osc.name, {"omega": "2"})
    rigidity.check("on-shell suite of the omega-deformed operator at omega=2",
                   "at least one generator fails to factorize", bool(broken),
                   "" if broken else "deformation left invariance intact",
                   "failing: " + "; ".join(broken))
    sections.append(rigidity.to_dict())
    sections += commands("similarity")
    for ell in (1, 2, 3, 4):
        fam = rz.build_free_general(ell, verbatim=False)
        sections.append(vf.verify_table(
            fam, vf.general_commutator_table(ell)).to_dict())
        sections.append(vf.verify_general_invariant(ell).to_dict())
    return sections + commands(
        "spectrum --family osc-l1",
        *(f"spectrum --family free-general --l {ell} --k 1" for ell in (2, 3, 4)),
        "infinite", "infinite --omega1 2 --omega2 3")


# ---------------------------------------------------------------------------
# emission

def render_markdown(doc: dict) -> str:
    lines = [f"# {doc['command']} report", ""]
    for sec in doc["sections"]:
        lines.append(f"## {sec['title']}")
        if sec.get("family"):
            lines.append(f"family: {sec['family']}")
        params = sec.get("params") or {}
        if params:
            lines.append("params: " + ", ".join(f"{k}={v}"
                                                for k, v in sorted(params.items())))
        for e in sec.get("entries", []):
            line = f"- {e['lhs']} = {e['expected']} : {e['status']}"
            if e.get("factor_text"):
                line += f"  [{e['factor_text']}]"
            if e.get("residual_text"):
                line += f"  residual: {e['residual_text']}"
            lines.append(line)
        for row in sec.get("rows", []):
            qn = ",".join(f"{k}={v}" for k, v in row["quantum_numbers"].items())
            lines.append(f"- state ({qn}) : E = {row['eigenvalue']} : "
                         + ("verified" if row["verified"] else "FAILED"))
        if sec.get("level_multiplicity"):
            lines.append("level multiplicities: "
                         + ", ".join(f"E={k}: {v}" for k, v in
                                     sec["level_multiplicity"].items()))
        for note in sec.get("notes", []):
            lines.append(f"> {note}")
        lines.append(f"section ok: {str(sec['ok']).lower()}")
        lines.append("")
    lines.append(f"overall ok: {str(doc['ok']).lower()}")
    return "\n".join(lines) + "\n"


_CONTAINERS = frozenset((dict, list, tuple))


def _json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, byte for byte,
    for a document of plain dicts, lists, strings, numbers, bools and None.

    With ``indent`` set, ``json`` runs its pure-Python encoder.  Here each
    container that holds no container is written by the C encoder, in one
    call whose item separator carries the newline and indent of its depth
    (one encoder per depth), and only the containers above those are
    walked in Python.  A JSON string holds no raw newline, so a dict with
    a key other than a string, which ``json`` converts, is dumped as
    ``json.dumps`` would and re-indented by its newlines.
    """
    encode, encoders, texts = json.JSONEncoder().encode, {}, {}

    def scalar(value) -> str:
        key = (type(value), value)  # 1, 1.0 and True are equal keys
        text = texts.get(key)
        if text is None:
            text = texts[key] = encode(value)
        return text

    def write(value, pad: str) -> str:
        if type(value) not in _CONTAINERS:
            return scalar(value)
        if not value:
            return "{}" if type(value) is dict else "[]"
        inner, is_dict = pad + "  ", type(value) is dict
        if _CONTAINERS.isdisjoint(map(type, value.values() if is_dict else value)):
            leaf = encoders.get(inner)
            if leaf is None:
                leaf = encoders[inner] = json.JSONEncoder(
                    sort_keys=True, separators=("," + inner, ": "))
            text = leaf.encode(value)
            return text[0] + inner + text[1:-1] + pad + text[-1]
        if not is_dict:
            return "[" + inner + ("," + inner).join(
                [write(v, inner) for v in value]) + pad + "]"
        if not all(type(k) is str for k in value):
            return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)
        return "{" + inner + ("," + inner).join(
            [f"{scalar(k)}: {write(v, inner)}" for k, v in sorted(value.items())]
        ) + pad + "}"

    return write(doc, "\n") + "\n"


def emit_report(doc: dict, fmt: str, output: Path | None) -> str:
    text = _json_text(doc) if fmt == "json" else render_markdown(doc)
    if output is not None:
        _write_report(text, output)
    return text


def _write_report(text: str, output: Path) -> None:
    """Write ``text`` to ``output``, a regular file atomically.

    A symlink is written through, to the path it resolves to, and stays a
    link.  An existing file that is not regular, such as a FIFO or a
    device, is opened and written in place, since replacing it would put a
    regular file where it was (a directory fails to open).  A regular file,
    or a path with no file yet, gets a temp file in its directory, with the
    mode open() would give it, moved over it.
    """
    target = Path(os.path.realpath(output))
    try:
        mode = target.stat().st_mode
    except OSError:  # no file there, or a parent that is no directory
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument parsing

_PARAMETER = dict(type=parse_parameter, default=None,
                  help="rational p/q or 'symbolic' (default symbolic)")

# Every option a family can read: its argparse keywords, default included,
# in the order --help lists them.
OPTIONS = {
    "gamma": _PARAMETER,
    "xi": _PARAMETER,
    "l": dict(type=_int_at_least(1), default=1),
    "omega": dict(type=parse_rational, default=None,
                  help="probe the omega-deformed degree-0 operator"),
    "emax": dict(type=_int_at_least(0), default=6),
    "k": dict(type=_int_at_least(0), default=3, help="zero-mode cutoff"),
    "omega1": dict(type=parse_rational, default=Fraction(1)),
    "omega2": dict(type=parse_rational, default=Fraction(1)),
    "cutoff": dict(flags=("--cutoff", "--n"), type=_int_at_least(1), default=3,
                   help="mode truncation N for the infinite family"),
    "calibrate": dict(action="store_true", default=False,
                      help="solve for additive scalar shifts before checking"),
}


# run: the cmd_ function; families: family -> the options it reads (family
# None: no --family); changes: option -> this command's changes to OPTIONS
Command = namedtuple("Command", "run help families changes")

_L1 = ("gamma", "xi")
_XI0 = ("omega1", "omega2", "cutoff", "gamma")
_LEVELS = ("emax", "k")
# the truncated structure check needs N >= 2
_STRUCTURE = {"cutoff": dict(type=_int_at_least(2))}

# Per command, the options each family reads.  The parser, the --family
# choices, the defaults and the rejection of other options come from here.
COMMANDS = {
    "verify": Command(cmd_verify, "structure-constant tables", {
        "free-l1": _L1 + ("calibrate",), "osc-l1": _L1 + ("calibrate",),
        "free-general": ("l",), "xi0": _XI0}, _STRUCTURE),
    "onshell": Command(cmd_onshell, "invariant-operator factorization", {
        "free-l1": _L1 + ("omega",), "osc-l1": _L1 + ("omega",),
        "xi0": _XI0}, {}),
    "spectrum": Command(cmd_spectrum, "lowest-weight eigenvalue tables", {
        "osc-l1": _L1 + _LEVELS, "free-general": ("l",) + _LEVELS,
        "xi0": _XI0 + _LEVELS}, {}),
    "similarity": Command(cmd_similarity, "exponential-time to tau picture map",
                          {None: _L1}, {}),
    "infinite": Command(cmd_infinite, "xi=0 infinite symmetry algebra suite",
                        {None: _XI0 + _LEVELS},
                        {**_STRUCTURE, "emax": {"default": 5}, "k": {"default": 2}}),
    "all": Command(cmd_all, "the full reproduction suite", {None: ()}, {}),
}


def _option(command: str, name: str) -> dict:
    return {**OPTIONS[name], **COMMANDS[command].changes.get(name, {})}


class _Parser(argparse.ArgumentParser):
    """Every parse error is one ``error: <reason>`` line and exit 2.

    A negative p/q such as ``-3/2`` is an option's value, as ``-3`` is:
    argparse's own pattern for negative numbers takes only ``-n`` and
    ``-n.m``, so ``--omega2 -3/2`` would read as a missing value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


class _TableParser(_Parser):
    """The top-level parser.  It rejects every option the chosen family does
    not read, and fills in the default of every option it reads."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        given = vars(ns)
        if ns.command == "spectrum" and ns.family is None:
            # --l picks the family: osc-l1 for ell = 1, free-general otherwise
            ns.family = "osc-l1" if given.get("l", 1) == 1 else "free-general"
            if ns.family == "osc-l1":
                given.pop("l", None)
        family = given.get("family")
        reads = COMMANDS[ns.command].families[family]
        ignored = [name for name in OPTIONS if name in given and name not in reads]
        if ignored:
            self.error(f"{ns.command} --family {family} does not read --"
                       + ", --".join(ignored) + " (it reads --"
                       + ", --".join(reads) + ")")
        for name in reads:
            given.setdefault(name, _option(ns.command, name)["default"])
        return ns, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _TableParser(
        prog="cgaweyl",
        description="exact verification of the centrally extended conformal "
                    "Galilei realizations, invariant operators, and spectra")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        if None not in spec.families:
            picked = command == "spectrum"
            p.add_argument("--family", required=not picked, default=None,
                           choices=tuple(spec.families),
                           help="defaults to osc-l1 for --l 1, free-general "
                                "otherwise" if picked else None)
        read = {name for names in spec.families.values() for name in names}
        for name in [name for name in OPTIONS if name in read]:
            kw = _option(command, name)
            flags = kw.pop("flags", (f"--{name}",))
            p.add_argument(*flags, dest=name, **{**kw, "default": argparse.SUPPRESS})
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--output", type=Path, default=None,
                       help="report file path (default: stdout, or "
                            f"${REPORT_DIR_ENV}/<command>.<ext> when that is set)")
    return parser


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Execute a parsed configuration; returns (exit status, report document)."""
    sections = COMMANDS[args.command].run(args)
    ok = all(s["ok"] for s in sections)
    doc = {
        "schema": SCHEMA,
        "command": args.command,
        "sections": sections,
        "ok": ok,
    }
    return (0 if ok else 1), doc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status, doc = run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (rz.ZeroParameter, rz.ZeroFrequency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    output = args.output
    if output is None and os.environ.get(REPORT_DIR_ENV):
        ext = "json" if args.format == "json" else "md"
        output = Path(os.environ[REPORT_DIR_ENV]) / f"{args.command}.{ext}"
    try:
        text = emit_report(doc, args.format, output)
    except OSError as exc:
        print(f"error: cannot write report to {output}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    if output is not None:
        print(f"report written to {output} (ok={str(doc['ok']).lower()})")
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
