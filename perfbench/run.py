"""cgaweyl benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement runs in a fresh
CPython 3.10.13 interpreter (``worker.py``) with the checkout's ``src`` on
``PYTHONPATH``; see README.md for why that interpreter is pinned.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if every
check of every pass held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_PYTHON = "3.10.13"
SETUP_PROBES = 7  # fresh interpreters timed per run for setup_s
DEADLINE_S = 170.0  # every run ends within this, passes included
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("reproduce_all", "general_ell_tables", "ladder_spectra",
             "symbolic_xi0")


class BenchError(RuntimeError):
    pass


def find_python() -> str:
    """The pinned interpreter: pyenv's 3.10.13, else a python3.10 on PATH."""
    roots = [os.environ.get("PYENV_ROOT"), str(Path.home() / ".pyenv")]
    candidates = [str(Path(r) / "versions" / PINNED_PYTHON / "bin" / "python3.10")
                  for r in roots if r]
    candidates.append(shutil.which("python3.10"))
    for exe in filter(None, candidates):
        if not os.access(exe, os.X_OK):
            continue
        probe = subprocess.run(
            [exe, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, timeout=30)
        if probe.stdout.strip() == PINNED_PYTHON:
            return exe
    raise BenchError(f"CPython {PINNED_PYTHON} not found (pyenv or PATH)")


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, python: str, workload: str, seed: int):
        self.python, self.workload, self.seed = python, workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        # bytecode is cached under .bench_build whatever the caller's
        # environment says, so that imports cost the same in every run
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def worker(self, *extra: str) -> dict:
        """Run worker.py in a fresh interpreter and return its JSON output."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        cmd = [self.python, str(BENCH_DIR / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        out = json.loads(lines[-1])
        if out["python"] != PINNED_PYTHON:
            raise BenchError(f"worker ran on Python {out['python']}")
        return out


def measure(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    """End-to-end metrics, tracing off."""
    # set-up probes before and after the passes, to sample more of the run
    probes = [runner.worker("--passes-for", "0") for _ in range(SETUP_PROBES // 2)]
    main = runner.worker("--passes-for", str(seconds))
    probes += [runner.worker("--passes-for", "0")
               for _ in range(SETUP_PROBES - len(probes))]
    metrics = {
        "pass_s": (statistics.median(main["pass_s"]), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return metrics, [main]


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def measure_traced(runner: Runner) -> tuple[dict, list[dict]]:
    """Per-layer metrics: one untraced and one traced pass, fresh processes."""
    plain = runner.worker("--passes-for", "1")
    traced = runner.worker("--passes-for", "1", "--trace")
    metrics = {name: (value, layer_unit(name))
               for name, value in traced["layers"].items()}
    metrics["trace.overhead"] = (traced["pass_s"][0] / plain["pass_s"][0], "ratio")
    return metrics, [plain, traced]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        if not (ROOT / "src" / "cgaweyl" / "__init__.py").is_file():
            raise BenchError(f"no cgaweyl source under {ROOT / 'src'}")
        runner = Runner(find_python(), args.workload, args.seed)
        if args.trace:
            metrics, workers = measure_traced(runner)
        else:
            metrics, workers = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={PINNED_PYTHON} commit={commit()} "
          f"nproc={os.cpu_count()} passes={sum(len(w['pass_s']) for w in workers)} "
          f"runner={platform.python_version()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
