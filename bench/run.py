"""roughmfg benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload fixed-point|bridge|rsde-long \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Every call runs in a fresh Python process with BLAS
limited to one thread (closed loop, one call at a time), using the same
inputs, which are made from --seed (default: the workload's frozen
acceptance seed).

--trace 0 makes calls while a further call still fits in --seconds (at
least one) and reports the medians of wall_s, work_per_s and peak_rss_mb
over them; setup_s is the median over at least five process starts.

--trace 1 makes one untraced call, one traced call and the rsde.solve
scaling sweep, and reports the per-layer metrics of the traced call.  The
traced call's checked outputs must be bitwise equal to the untraced one's.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exit
code 2, without a result, when the program cannot be found or its inputs
cannot be built.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # every run, all of its processes included, ends by then
SETUP_SAMPLES = 5
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


class Abort(Exception):
    """The program or its inputs are unusable: no result is printed."""


class Runner:
    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.update({name: "1" for name in SINGLE_THREAD})
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, mode):
        """Run one worker process to completion; returns its JSON record.
        A worker that crashes or overruns yields {"ok": False}."""
        out_dir = self.tmp / f"{mode}-{time.monotonic_ns()}"
        out_dir.mkdir()
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--mode", mode,
               "--out", str(out_dir), "--t0", repr(t0)]
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"stage": "call", "ok": False,
                    "error": f"{mode} process killed after {timeout:.0f} s"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rec = {"stage": "call", "ok": False,
                   "error": f"{mode} process exited {proc.returncode} without a "
                            f"result:\n{proc.stderr[-4000:]}"}
        if rec["stage"] == "setup" and "error" in rec:
            raise Abort(rec["error"])
        if not rec.get("ok", True):
            detail = rec.get("error") or "; ".join(rec.get("failed_checks", []))
            print(f"{mode} call failed: {detail}", file=sys.stderr)
        return rec


def measure(runner, seconds):
    """End-to-end metrics with tracing off."""
    calls = []
    while True:
        began = runner.elapsed()
        calls.append(runner.spawn("call"))
        took = runner.elapsed() - began
        if (not calls[-1].get("ok") or runner.elapsed() + took > seconds
                or runner.elapsed() + took > RUN_LIMIT_S):
            break
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    while len(setups) < SETUP_SAMPLES:
        rec = runner.spawn("setup")
        if "setup_s" not in rec:
            raise Abort(rec.get("error", "set-up process failed"))
        setups.append(rec["setup_s"])
    done = [c for c in calls if "peak_rss_mb" in c]  # call and checks ran
    if not done:
        raise Abort("no call completed")
    metrics = {
        "wall_s": statistics.median(c["wall_s"] for c in done),
        "work_per_s": statistics.median(c["work"] / c["wall_s"] for c in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
    }
    failed = sum(not c.get("ok") for c in calls)
    return metrics, len(calls), failed, failed == 0


def trace(runner):
    """Per-layer metrics of one traced call, its overhead over an untraced
    call, and the rsde.solve scaling sweep."""
    plain = runner.spawn("call")
    traced = runner.spawn("trace")
    sweep = runner.spawn("sweep")
    runs = [plain, traced, sweep]
    same = plain.get("digest") is not None and plain.get("digest") == traced.get("digest")
    if not same and traced.get("ok"):
        print("traced outputs differ from untraced outputs", file=sys.stderr)
        traced["ok"] = False
    failed = sum(not r.get("ok") for r in runs)
    if "wall_s" not in plain or "layers" not in traced or "metrics" not in sweep:
        raise Abort("a call or the sweep did not complete")
    metrics = dict(traced["layers"])
    metrics["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics.update(sweep["metrics"])
    print(f"spans written to {traced['spans_file']}; sweep times {sweep['sweep_s']}")
    return metrics, len(runs), failed, failed == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = spec.WORKLOADS[args.workload][2]
    if not (ROOT / "src" / "roughmfg" / "__init__.py").is_file():
        print(f"error: no roughmfg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, tmp)
        if args.trace:
            metrics, attempted, failed, correct = trace(runner)
            units = {name: unit for name, unit, _ in spec.per_layer()}
        else:
            metrics, attempted, failed, correct = measure(runner, args.seconds)
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>16.6g} {unit}")
    print(f"{'fail_rate':<36} {failed / attempted:>16.6g} ({failed} of {attempted} calls)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
