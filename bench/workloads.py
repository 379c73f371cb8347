"""The three benchmark workloads: inputs from a seed, the one call, checks.

Each workload has a full size (what BENCHMARK.json measures) and a smoke
size that runs the same code path, checks and tracing in a few seconds.
`setup` builds the inputs, `call` makes the one closed-loop call into the
public API, `check` returns the list of failed output checks (empty when
the call passed) and `digest` hashes the checked outputs so a traced and
an untraced call can be compared bitwise.

Checks.  At a workload's default seed (the acceptance suite's frozen
seed) the program's own verdicts must hold as the acceptance criteria state
them, and the key outputs must match `bench/reference.json` (for rsde-long,
the committed trajectory summary) within the tolerances stated there.

At any other seed only what holds for every seed is checked.  The
verdicts that are hypothesis tests at level 0.01 fail on about 1 seed in
50 with a correct program, and one acceptance run of the benchmark makes
about 70 runs; so at other seeds the tests are re-evaluated from their
statistics at level OTHER_SEED_LEVEL, and the energy permutation test,
which cannot resolve p below 1/(n_perm + 1), is left to the default seed.
Criterion 7's bound of 0.5 on every sweep-to-sweep update ratio holds at
seed 11 but not at every seed (a best-response switch between two sweeps
gives 0.60 at seed 3 while the iteration still converges); at other seeds
every ratio must be below 1 and their geometric mean below 0.5.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from roughmfg import cli, mfg, models, rsde
from roughmfg import measureflow as mf
from roughmfg import randomize as rz
from roughmfg import roughpath as rp
from roughmfg.rng import substream

import spec
from tracing import lift_mb

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OTHER_SEED_LEVEL = 1e-4


def _reference(size, workload):
    return json.loads(REFERENCE.read_text())[size][workload]


def _close(got, want, rtol, atol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + rtol * np.abs(want))
    )


def _hash(*parts) -> str:
    """Digest of arrays (their bytes), bytes, and nested lists and tuples of
    scalars (their exact repr)."""
    h = hashlib.sha256()

    def feed(part):
        if isinstance(part, (list, tuple)):
            for item in part:
                feed(item)
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())

    feed(parts)
    return h.hexdigest()


# -- fixed-point --------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointSize:
    steps: int
    particles: int
    sweeps: int
    lattice_nodes: int
    domain_windows: int
    exploit_particles: int


class FixedPoint:
    """Criterion-7 shape: damped fixed point of the lq model with domain
    certificate (M=12, eps=0.25, two inner samples)."""

    name = "fixed-point"
    sizes = {
        "full": FixedPointSize(64, 1000, 5, 81, 6, 2000),
        "smoke": FixedPointSize(16, 200, 3, 41, 2, 400),
    }

    def __init__(self, size):
        self.size_name = size
        self.size = self.sizes[size]
        self.default_seed = spec.WORKLOADS[self.name][2]

    def setup(self, seed, out_dir):
        s = self.size
        model = models.make_model("lq")
        grid = rp.TimeGrid(1.0, s.steps)
        dw = substream(seed, "acc7", "bm").normal(
            0.0, np.sqrt(grid.dt), size=(s.steps, 1)
        )
        return {"model": model, "lift": rp.ito_lift(dw, grid), "seed": seed}

    def call(self, inputs):
        s = self.size
        return mfg.fixed_point(
            inputs["model"], inputs["lift"], rsde.InitialLaw(),
            particles=s.particles, seed=inputs["seed"], max_iters=s.sweeps,
            tol_w2=0.0, tol_exp=0.0,
            settings=mfg.DpSettings(-4.0, 4.0, s.lattice_nodes),
            domain_bound=12.0, domain_epsilon=0.25, domain_inner=2,
            domain_windows=s.domain_windows,
            exploit_particles=s.exploit_particles,
        )

    def work(self, result):
        return len(result.report.iterations)

    def reference(self, result):
        return {"w2_update": [it.w2_update for it in result.report.iterations],
                "rtol": 1e-3, "atol": 1e-10}

    def check(self, result, seed):
        its = result.report.iterations
        dists = [it.w2_update for it in its]
        ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 1e-14]
        final = its[-1]
        if seed == self.default_seed:
            ratios_ok = all(r < 0.5 for r in ratios)
        else:
            ratios_ok = not ratios or (
                all(r < 1.0 for r in ratios)
                and np.exp(np.mean(np.log(ratios))) < 0.5
            )
        failed = []
        if len(its) != self.size.sweeps:
            failed.append(f"{len(its)} sweep records, expected {self.size.sweeps}")
        if not ratios_ok:
            failed.append(f"update ratios {ratios} do not contract enough")
        if not final.exploitability < 1e-2 + final.exploitability_err:
            failed.append(
                f"final exploitability {final.exploitability:.3e} >= 1e-2 + "
                f"error bar {final.exploitability_err:.3e}"
            )
        if not all(it.domain_member for it in its):
            failed.append("flow left the norm domain")
        if seed == self.default_seed:
            ref = _reference(self.size_name, self.name)
            if not _close(dists, ref["w2_update"], ref["rtol"], ref["atol"]):
                failed.append(f"w2_update {dists} != reference {ref['w2_update']}")
        return failed

    def digest(self, result):
        rep = result.report
        records = [
            (it.w2_update, it.exploitability, it.exploitability_raw,
             it.exploitability_err, it.domain_member, it.domain_worst)
            for it in rep.iterations
        ]
        return _hash(records, result.flow.Y, result.flow.Yp,
                     result.policy.table, result.values)


# -- bridge -------------------------------------------------------------------


@dataclass(frozen=True)
class BridgeSize:
    steps: int
    particles: int
    samples: int
    test_subsample: int
    n_perm: int


class Bridge:
    """Criterion-8 shape at a quarter of the particles and half of the
    samples: the Gaussian lq model with sigma0=0.6 under a frozen flow."""

    name = "bridge"
    sizes = {
        "full": BridgeSize(64, 1000, 100, 400, 500),
        "smoke": BridgeSize(16, 100, 12, 200, 100),
    }

    def __init__(self, size):
        self.size_name = size
        self.size = self.sizes[size]
        self.default_seed = spec.WORKLOADS[self.name][2]

    def setup(self, seed, out_dir):
        s = self.size
        model = models.make_model(
            "lq", actions=(0.0,), sigma=0.3, mean_coupling=0.0, sigma0=0.6,
            cost_u=0.0, cost_x=0.0, cost_g=0.0,
        )
        grid = rp.TimeGrid(1.0, s.steps)
        policy = mfg.RelaxedPolicy.constant(model.actions, s.steps, action_index=0)
        return {"model": model, "grid": grid, "policy": policy, "seed": seed}

    def call(self, inputs):
        s = self.size
        return rz.compare_pathwise_vs_randomized(
            inputs["model"], inputs["policy"], rsde.InitialLaw("normal", 0.0, 0.5),
            inputs["grid"], particles=s.particles, samples=s.samples,
            seed=inputs["seed"], test_subsample=s.test_subsample,
            n_perm=s.n_perm,
        )

    def work(self, report):
        return report.samples

    def reference(self, report):
        return {"pooled_mean_gap": report.pooled_mean_gap,
                "rtol": 1e-6, "atol": 1e-12}

    def check(self, report, seed):
        if seed == self.default_seed:
            band, mean_ok, second_ok = 3.0, report.mean_ok, report.second_ok
        else:
            band = stats.norm.ppf(1.0 - 0.5 * OTHER_SEED_LEVEL)
            mean_ok = report.pooled_mean_gap <= band * report.pooled_mean_se + 1e-12
            second_ok = (report.pooled_second_gap
                         <= band * report.pooled_second_se + 1e-12)
        failed = []
        if not mean_ok:
            failed.append(
                f"pooled mean gap {report.pooled_mean_gap:.3e} outside {band:.2f} sigma"
            )
        if not second_ok:
            failed.append(
                f"pooled second-moment gap {report.pooled_second_gap:.3e} outside "
                f"{band:.2f} sigma"
            )
        if seed == self.default_seed:
            if not report.energy_p >= 0.01:
                failed.append(f"energy test p = {report.energy_p:.4f} < 0.01")
            ref = _reference(self.size_name, self.name)
            if not _close(report.pooled_mean_gap, ref["pooled_mean_gap"],
                          ref["rtol"], ref["atol"]):
                failed.append(
                    f"pooled_mean_gap {report.pooled_mean_gap!r} != reference "
                    f"{ref['pooled_mean_gap']!r}"
                )
        return failed

    def digest(self, report):
        per_sample = [(v.pathwise_mean, v.joint_mean, v.combined_se, v.within)
                      for v in report.per_sample]
        return _hash(per_sample, report.pooled_mean_gap, report.pooled_mean_se,
                     report.pooled_second_gap, report.pooled_second_se,
                     report.energy_stat, report.energy_p)


# -- rsde-long ----------------------------------------------------------------


@dataclass(frozen=True)
class RsdeLongSize:
    steps: int
    particles: int


OUTPUT_FILES = ("trajectory_summary.csv", "diagnostics.json")


def _number(cell):
    # the CLI writes repr() of NumPy scalars, "np.float64(0.5)" under NumPy 2
    if cell.endswith(")"):
        cell = cell[cell.index("(") + 1 : -1]
    return float(cell)


def _csv_rows(path):
    with open(path, newline="") as fp:
        lines = [line for line in fp if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], np.array([[_number(c) for c in row] for row in rows[1:]])


def martingale_pass(m, level):
    """The all_pass verdict of rsde.martingale_diagnostics recomputed from
    its reported statistics at another level."""
    t_crit = stats.t.ppf(1.0 - 0.5 * level, df=m["particles"] - 1)
    for phi in m["per_phi"]:
        ts = phi["residual_tstats"]
        if ts and max(map(abs, ts)) >= stats.norm.ppf(1.0 - 0.5 * level / len(ts)):
            return False
        if abs(phi["qv_tstat"]) >= t_crit:
            return False
    return all(abs(t) < t_crit for _, _, t, _ in m["cross"])


class RsdeLong:
    """`roughmfg rsde solve` through cli.main on a long grid with few
    particles; outputs go to a directory inside the checkout."""

    name = "rsde-long"
    sizes = {
        "full": RsdeLongSize(1024, 64),
        "smoke": RsdeLongSize(128, 32),
    }

    def __init__(self, size):
        self.size_name = size
        self.size = self.sizes[size]
        self.default_seed = spec.WORKLOADS[self.name][2]

    def setup(self, seed, out_dir):
        out = Path(out_dir) / "rsde"
        argv = [
            "rsde", "solve", "--model", "tanh-interaction",
            "--grid", str(self.size.steps), "--particles", str(self.size.particles),
            "--seed", str(seed), "--rough", "sample", "--out", str(out),
        ]
        return {"argv": argv, "out": out}

    def call(self, inputs):
        if inputs["out"].exists():
            shutil.rmtree(inputs["out"])
        code = cli.main(inputs["argv"])
        return {"code": code, "out": inputs["out"]}

    def work(self, result):
        return self.size.particles * self.size.steps

    def reference_csv(self):
        return HERE / "reference" / f"rsde-long.{self.size_name}.csv"

    def reference(self, result):
        self.reference_csv().parent.mkdir(exist_ok=True)
        shutil.copyfile(result["out"] / "trajectory_summary.csv",
                        self.reference_csv())
        return {"trajectory_summary": str(self.reference_csv().relative_to(HERE)),
                "rtol": 1e-7, "atol": 1e-10}

    def check(self, result, seed):
        if result["code"] != 0:
            return [f"cli exit code {result['code']}"]
        failed = []
        diag = json.loads((result["out"] / "diagnostics.json").read_text())
        if seed == self.default_seed:
            passed = diag["martingale"]["all_pass"]
        else:
            passed = martingale_pass(diag["martingale"], OTHER_SEED_LEVEL)
        if not passed:
            failed.append("martingale diagnostics failed")
        if diag["apriori"]["flagged"]:
            failed.append("a priori monitor flagged the solution")
        if seed == self.default_seed:
            ref = _reference(self.size_name, self.name)
            head, got = _csv_rows(result["out"] / "trajectory_summary.csv")
            ref_head, want = _csv_rows(self.reference_csv())
            if head != ref_head or not _close(got, want, ref["rtol"], ref["atol"]):
                failed.append("trajectory_summary.csv differs from the reference")
        return failed

    def digest(self, result):
        if result["code"] != 0:
            return _hash(result["code"])
        return _hash(*[(result["out"] / f).read_bytes() for f in OUTPUT_FILES])


WORKLOADS = {cls.name: cls for cls in (FixedPoint, Bridge, RsdeLong)}


def make(name, size):
    return WORKLOADS[name](size)


# -- rsde.solve scaling sweep -------------------------------------------------


def solve_seconds(steps, particles, seed, repeats=3):
    """Median time of rsde.solve of tanh-interaction under a constant flow
    of `particles` particles; returns (seconds, lift MiB)."""
    model = models.make_model("tanh-interaction")
    grid = rp.TimeGrid(1.0, steps)
    dw = substream(seed, "bench", "sweep", steps).normal(
        0.0, np.sqrt(grid.dt), size=(steps, model.k)
    )
    lift = rp.ito_lift(dw, grid)
    cloud = substream(seed, "bench", "sweep-cloud", particles).normal(
        size=(particles, model.d)
    )
    flow = mf.constant_flow(grid, cloud, model.k)
    policy = mfg.RelaxedPolicy.constant(
        model.actions, steps,
        action_index=int(np.abs(model.actions).sum(axis=1).argmin()),
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rsde.solve(model, flow, lift, policy, rsde.InitialLaw(), particles, seed)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), lift_mb(lift)
