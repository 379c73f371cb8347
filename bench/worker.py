"""One benchmark process: builds a workload's inputs and makes one call.

Started by `bench/run.py` in a fresh interpreter per call, so peak memory
is per call.  Modes:

  setup  import roughmfg and build the inputs, nothing else
  call   setup, then the timed call and its output checks
  trace  as call, with spans recorded around roughmfg's entry points
  sweep  the rsde.solve scaling sweep

Prints one JSON object as its last line of standard output.  Exit code 3
means the inputs could not be built (the program is missing or broken);
a call that raises or fails its checks is reported with "ok": false.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load():
    """Import the program from this checkout's src/ and return the workloads
    module; raises when the program is not importable."""
    import roughmfg

    src = (ROOT / "src").resolve()
    if src not in Path(roughmfg.__file__).resolve().parents:
        raise ImportError(f"roughmfg imported from {roughmfg.__file__}, not {src}")
    import workloads

    return workloads


def run_call(args, traced):
    out = {"stage": "setup"}
    workloads = _load()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.make(args.workload, args.size)
    inputs = wl.setup(args.seed, args.out)
    out["setup_s"] = time.monotonic() - args.t0
    if args.mode == "setup":
        return out
    out["stage"] = "call"
    try:
        start = time.perf_counter()
        result = wl.call(inputs)
        out["wall_s"] = time.perf_counter() - start
        failed = wl.check(result, args.seed)
        out.update(ok=not failed, failed_checks=failed, work=wl.work(result),
                   digest=wl.digest(result))
    except Exception:
        out.update(ok=False, error=traceback.format_exc())
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["layers"] = tracer.metrics()
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.size}.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.save(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    return out


def run_sweep(args):
    import numpy as np

    import spec

    workloads = _load()
    out = {"stage": "call"}
    p_list = spec.SWEEP_P[args.size]
    n_list = spec.SWEEP_N
    try:
        t_p = [workloads.solve_seconds(spec.SWEEP_P_AT_N, p, args.seed)[0]
               for p in p_list]
        by_n = [workloads.solve_seconds(n, spec.SWEEP_N_AT_P[args.size], args.seed)
                for n in n_list]
    except Exception:
        out.update(ok=False, error=traceback.format_exc())
        return out
    metrics = {
        "rsde.solve_exp_P": float(np.polyfit(np.log(p_list), np.log(t_p), 1)[0]),
        "rsde.solve_exp_N": float(
            np.polyfit(np.log(n_list), np.log([t for t, _ in by_n]), 1)[0]
        ),
    }
    for n, (_, mb) in zip(n_list, by_n):
        metrics[f"roughpath.lift_mb_N{n}"] = mb
    out.update(ok=True, metrics=metrics,
               sweep_s={"P": dict(zip(map(str, p_list), t_p)),
                        "N": {str(n): t for n, (t, _) in zip(n_list, by_n)}})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--mode", choices=("setup", "call", "trace", "sweep"),
                    required=True)
    ap.add_argument("--out", required=True, help="scratch directory for outputs")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    args = ap.parse_args(argv)
    try:
        if args.mode == "sweep":
            out = run_sweep(args)
        else:
            out = run_call(args, traced=args.mode == "trace")
    except Exception:
        print(json.dumps({"stage": "setup", "error": traceback.format_exc()}))
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
