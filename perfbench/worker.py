"""One benchmark process: set a workload up, optionally run checked passes.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3.10 perfbench/worker.py --workload NAME --seed N --passes-for S
    python3.10 perfbench/worker.py --workload NAME --seed N --passes-for 0

With ``--passes-for 0`` it only sets up.  It prints one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up time counts from before cgaweyl's import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes-for", type=float, required=True,
                   help="run passes while the next one is expected to end "
                        "within this many seconds (at least one); 0 only sets up")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import workloads
    from spans import Tracer

    setup, run_pass = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    tracing = tracer.installed() if args.trace else contextlib.nullcontext()
    passes, attempted, failed = [], 0, 0
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=Path(__file__).parent) as workdir, tracing:
        state = setup(args.seed, Path(workdir))
        setup_s = time.perf_counter() - T0
        start = time.perf_counter()
        while args.passes_for > 0:
            t = time.perf_counter()
            tally = run_pass(state)
            passes.append(time.perf_counter() - t)
            attempted += tally.attempted
            failed += tally.failed
            # stop unless another pass of median length still fits
            elapsed = time.perf_counter() - start
            if tally.failed or elapsed + statistics.median(passes) > args.passes_for:
                break

    out = {
        "python": platform.python_version(),
        "setup_s": setup_s,
        "pass_s": passes,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
