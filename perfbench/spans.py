"""Per-layer tracing of cgaweyl from outside the program.

``Tracer.installed()`` wraps the public functions of every layer and rebinds
each wrapper in every ``cgaweyl`` namespace that holds the original (the
modules bind ``mul``, ``commutator``, ``apply_to`` and ``build_*`` through
``from .weyl import ...``), then restores the originals on exit.  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
``layer_metrics`` turns them into counts, inclusive times and self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# Coef operations counted as ``scalar.coef_ops``.
COEF_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "scale",
            "__eq__", "is_zero")
WEYL_FUNCS = ("mul", "commutator", "apply_to")
OBSERVE = "trace.observe"  # span around the tracer's own bookkeeping


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, s
        for lo, hi in sorted((max(starts[c], s), min(ends[c], e))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _coef_terms(element) -> int:
    return max((len(c.num.terms) + len(c.den.terms)
                for c in element.terms.values()), default=0)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[int] = []
        self.sums: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.report_checks: list[tuple[int, int]] = []  # (span, entries)

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.span_name.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts[i] = perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, key: str, n: int) -> None:
        self.sums[key] = self.sums.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.maxima.get(key, 0):
            self.maxima[key] = n

    def wrap(self, name: str, fn, observe=None):
        """A wrapper recording one span per call of ``fn``.

        ``observe(span, args, result)`` runs after the span closes, inside a
        span of its own so that no layer's self time includes it.
        """
        name_id, observe_id = self._id(name), self._id(OBSERVE)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                j = tracer._open(observe_id)
                try:
                    observe(i, args, result)
                finally:
                    tracer._close(j)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, observer) for every wrapped callable.

        An observer ``(span, args, result)`` records sizes and counts.
        """
        from cgaweyl import cli, realizations, scalar, spectrum, verify, weyl

        def weyl_observer(fn):
            def observe(_span, args, result):
                if fn != "commutator":
                    a, b = args[0], args[1]
                    self.add(f"weyl.{fn}.term_pairs", len(a.terms) * len(b.terms))
                self.peak("weyl.terms_out_max", len(result.terms))
                self.peak("scalar.coef_terms_max", _coef_terms(result))
            return observe

        def verify_observer(span, _args, result):
            report = result[1] if isinstance(result, tuple) else result
            if isinstance(report, verify.VerificationReport):
                self.report_checks.append((span, len(report.entries)))

        def spectrum_observer(fn):
            if fn == "spectrum_table":
                return lambda _span, _args, table: self.add(
                    "spectrum.rows", len(table.rows))
            if fn.startswith("build_state"):
                return lambda _span, _args, state: self.peak(
                    "spectrum.state_terms_max", len(state.terms))
            return None

        def emit_observer(_span, _args, text):
            self.add("cli.report_bytes", len(text.encode("utf-8")))

        for op in COEF_OPS:
            yield scalar.Coef, op, f"scalar.Coef.{op}", None
        for fn in WEYL_FUNCS:
            yield weyl, fn, f"weyl.{fn}", weyl_observer(fn)
        for fn in _public_functions(realizations):
            if fn.startswith("build_"):
                yield realizations, fn, f"realizations.{fn}", None
        for fn in _public_functions(verify):
            yield verify, fn, f"verify.{fn}", verify_observer
        for fn in _public_functions(spectrum):
            yield spectrum, fn, f"spectrum.{fn}", spectrum_observer(fn)
        yield cli, "run", "cli.run", None
        yield cli, "emit_report", "cli.emit_report", emit_observer

    @contextmanager
    def installed(self):
        """Wrap every target in every namespace holding it; restore on exit."""
        import cgaweyl  # noqa: F401  (the package must be loaded first)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "cgaweyl" or n.startswith("cgaweyl.")]
        saved = []
        try:
            for owner, attr, name, observe in self._targets():
                original = inspect.getattr_static(owner, attr)
                wrapper = self.wrap(name, original, observe)
                holders = [owner] if inspect.isclass(owner) else namespaces
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    # -- summary -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, from the spans and counters recorded."""
        names = [self.names[k] for k in self.span_name]
        selfs = self_times(self.starts, self.ends, self.parents)
        groups = {
            "weyl.commutator": {"weyl.commutator"},
            "realizations.build": {n for n in self.names
                                   if n.startswith("realizations.build_")},
            "verify.table": {"verify.verify_table"},
            "verify.calibrate": {"verify.calibrate_constants"},
            "verify.onshell": {"verify.onshell_check"},
            "verify.invariant": {"verify.verify_general_invariant"},
            "verify.subalgebra": {"verify.verify_subalgebra_structure"},
            "spectrum.table": {"spectrum.spectrum_table"},
            "spectrum.state_build": {"spectrum.build_state",
                                     "spectrum.build_state_general"},
            "spectrum.eigencheck": {"spectrum.eigencheck"},
            "cli.run": {"cli.run"},
            "cli.emit": {"cli.emit_report"},
        }
        group_of = {n: g for g, members in groups.items() for n in members}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        incl: dict[str, float] = {g: 0.0 for g in groups}
        # ancestors[i]: the names, groups and layers of span i's ancestors;
        # equal sets are shared through ``memo`` to keep this small
        ancestors: list[frozenset] = []
        memo: dict = {}
        for i, name in enumerate(names):
            p = self.parents[i]
            if p < 0:
                above = frozenset()
            else:
                key = (ancestors[p], names[p])
                above = memo.get(key)
                if above is None:
                    above = memo[key] = ancestors[p] | {
                        names[p], group_of.get(names[p]), _layer(names[p])}
            ancestors.append(above)
            calls[name] = calls.get(name, 0) + 1
            layer = _layer(name)
            for key in (name, layer):
                self_s[key] = self_s.get(key, 0.0) + selfs[i]
            group = group_of.get(name)
            if group is not None and group not in above:
                incl[group] += self.ends[i] - self.starts[i]

        verify_checks = sum(n for span, n in self.report_checks
                            if "verify" not in ancestors[span])
        out = {
            "scalar.coef_ops": sum(v for k, v in calls.items()
                                   if _layer(k) == "scalar"),
            "scalar.self_s": self_s.get("scalar", 0.0),
            "scalar.coef_terms_max": self.maxima.get("scalar.coef_terms_max", 0),
        }
        for fn in WEYL_FUNCS:
            out[f"weyl.{fn}.calls"] = calls.get(f"weyl.{fn}", 0)
        for fn in ("mul", "apply_to"):
            out[f"weyl.{fn}.self_s"] = self_s.get(f"weyl.{fn}", 0.0)
            out[f"weyl.{fn}.term_pairs"] = self.sums.get(f"weyl.{fn}.term_pairs", 0)
        out["weyl.commutator.s"] = incl["weyl.commutator"]
        out["weyl.terms_out_max"] = self.maxima.get("weyl.terms_out_max", 0)
        out["realizations.build.calls"] = sum(
            calls.get(n, 0) for n in groups["realizations.build"])
        out["realizations.build.s"] = incl["realizations.build"]
        for g in ("table", "calibrate", "onshell", "invariant", "subalgebra"):
            out[f"verify.{g}.s"] = incl[f"verify.{g}"]
        out["verify.self_s"] = self_s.get("verify", 0.0)
        out["verify.checks"] = verify_checks
        out["spectrum.table.s"] = incl["spectrum.table"]
        out["spectrum.state_build.s"] = incl["spectrum.state_build"]
        out["spectrum.eigencheck.calls"] = calls.get("spectrum.eigencheck", 0)
        out["spectrum.eigencheck.s"] = incl["spectrum.eigencheck"]
        out["spectrum.self_s"] = self_s.get("spectrum", 0.0)
        out["spectrum.rows"] = self.sums.get("spectrum.rows", 0)
        out["spectrum.state_terms_max"] = self.maxima.get("spectrum.state_terms_max", 0)
        out["cli.run.s"] = incl["cli.run"]
        out["cli.emit.s"] = incl["cli.emit"]
        out["cli.report_bytes"] = self.sums.get("cli.report_bytes", 0)
        return out


def _public_functions(module) -> list[str]:
    """Public functions defined in ``module`` (not the ones it imports)."""
    return sorted(name for name, value in vars(module).items()
                  if inspect.isfunction(value) and not name.startswith("_")
                  and value.__module__ == module.__name__)
