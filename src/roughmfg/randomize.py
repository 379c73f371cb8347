"""Bridge between the fixed-lift simulation and the two-Brownian model.

One direction samples common-noise paths, enhances each with left-point
iterated sums, solves the fixed-lift dynamics per sample, and aggregates the
conditional statistics.  The other simulates the state directly with two
independent Brownian drivers (idiosyncratic per particle, common per
sample).  Both consume the same common increments per sample, so their
conditional laws are comparable sample by sample; agreement is judged by
moment gaps and an energy-distance permutation test, whose label shuffles
all read one pooled distance matrix through blocked matrix products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import measureflow as mf
from . import models
from . import rsde
from .rng import derive_seed, substream
from .roughpath import InputError, RoughPath, TimeGrid, ito_lift

FROZEN_FLOW = "frozen-flow"
PER_SAMPLE_FIXEDPOINT = "per-sample-fixedpoint"
# idiosyncratic increments the frozen-flow pass holds at a time: bounds its
# time-major (N, rows, l) block to 16 MiB whatever N (32 samples at P = 1000,
# N = 64, l = 1)
PASS_INCREMENTS = 1 << 21
# rows per block of the energy test: permutation masks per matrix product,
# and distance rows per coordinate pass
BLOCK = 64
# idiosyncratic increments joint_simulate holds at a time: bounds its
# time-major (N, G, P, l) block (2 MiB; 4 samples at P = 1000, N = 64, l = 1)
JOINT_INCREMENTS = 1 << 18
# the bridge verdicts: pooled moments within SIGMA_BAND standard errors, and
# the energy test's p-value at least LEVEL
SIGMA_BAND = 3.0
LEVEL = 0.01


def common_increments(grid: TimeGrid, k: int, seed, sample: int) -> np.ndarray:
    """Common-noise increments for one sample, shape (N, k); both pipelines
    key off the same stream so their conditional laws share the driver."""
    rng = substream(seed, "randomize", "B0", sample)
    return rng.normal(0.0, math.sqrt(grid.dt), size=(grid.steps, k))


def sample_lift(grid: TimeGrid, k: int, seed, sample: int = 0,
                inner_refine: int = 1) -> RoughPath:
    """Draw Brownian increments and enhance them with left-point sums; every
    second-level entry consumes only increments inside its own window.

    inner_refine > 1 (a power of two) computes the second level from a
    bridge-refined copy of the same path and restricts back to the solver
    grid: the first level stays coupled to the plain draw up to round-off,
    so the difference isolates the second-level discretization bias.
    """
    dw = common_increments(grid, k, seed, sample)
    if inner_refine == 1:
        return ito_lift(dw, grid)
    if inner_refine < 1 or inner_refine & (inner_refine - 1):
        raise InputError(f"inner refinement must be a power of two, got {inner_refine}")
    fine = dw[None]
    dt = grid.dt
    level = 0
    while 2**level < inner_refine:
        fine = rsde.bridge_refine(fine, dt, seed, "lift", sample, level)
        dt /= 2.0
        level += 1
    fine_grid = TimeGrid(grid.horizon, grid.steps * inner_refine)
    return ito_lift(fine[0], fine_grid).restrict(inner_refine)


@dataclass
class JointSummary:
    """Two-driver simulation output: per-sample conditional moments of the
    terminal state plus the pooled ones."""

    cond_means: np.ndarray        # (S, d)
    cond_second: np.ndarray       # (S, d, d) raw second moments
    pooled_mean: np.ndarray
    pooled_second: np.ndarray
    terminal: np.ndarray          # (S, P, d)
    mode: str

    @property
    def samples(self) -> int:
        return self.cond_means.shape[0]


def _require_counts(particles, samples):
    if particles < 1 or samples < 1:
        raise InputError(
            f"need at least one particle and one sample, got particles={particles},"
            f" samples={samples}"
        )


def joint_simulate(coeffs, policy, init: rsde.InitialLaw, grid: TimeGrid,
                   particles: int, samples: int, seed, flow=None) -> JointSummary:
    """Euler recursion with two independent Brownian drivers.

    The interaction measure is the within-sample empirical cloud (the
    conditional particle system) unless an external flow is supplied.
    Blocks of max(1, JOINT_INCREMENTS // (P N l)) samples advance together.
    A block draws each sample's (P, N, l) idiosyncratic increments in turn,
    in sample order, from one stream, and stores them time-major, (N, G, P,
    l), so that each node reads one contiguous slice.  Per node it makes one
    sigma0 call and one rsde._advance call on its (G, P, d) states, each
    group interacting with its own sample's cloud (the grouping convention
    of models): the Euler step of every forward recursion, with sigma0 as
    the rough coefficient of the common increments and no second-level
    term.  The drift mixture, sigma and sigma0 are first checked on the
    first block's grouped states at node 0 (models.grouped_call).  A
    blow-up raises DivergedError naming the step, the sample and the
    particle within the sample: the first blow-up (earliest step, then
    sample and particle) of the first block that has one.
    """
    _require_counts(particles, samples)
    d, l, k = coeffs.d, coeffs.l, coeffs.k
    nodes, steps = grid.nodes, grid.steps
    x = rsde.draw_initial(seed, init, samples * particles, d).reshape(
        samples, particles, d
    )
    w_rng = substream(seed, "randomize", "joint-W")
    external = flow is not None
    per_block = min(samples, max(1, JOINT_INCREMENTS // (particles * steps * l)))
    xs = x[:per_block]
    cloud = flow.cloud(0) if external else xs
    clouds = np.broadcast_to(cloud, xs.shape[:1] + cloud.shape[-2:])
    weights = rsde._mixture_weights(policy, 0, xs, coeffs.n_actions)
    models.grouped_call(coeffs, "b", functools.partial(rsde._drift_mixture, coeffs),
                        nodes[0], xs, clouds, weights)
    for name in ("sigma", "sigma0"):
        call = getattr(coeffs, name)
        if call is not None:
            models.grouped_call(coeffs, name, call, nodes[0], xs, clouds)
    # allocated once; a shorter last block uses the leading samples
    dw = np.empty((steps, per_block, particles, l))
    db0 = np.empty((steps, per_block, k))
    for first in range(0, samples, per_block):
        count = min(per_block, samples - first)
        for g in range(count):
            dw[:, g] = w_rng.normal(0.0, math.sqrt(grid.dt),
                                    size=(particles, steps, l)).transpose(1, 0, 2)
            db0[:, g] = common_increments(grid, k, seed, first + g)
        xs = x[first : first + count]
        for n in range(steps):
            cloud = flow.cloud(n) if external else xs
            sig0 = None if coeffs.sigma0 is None else coeffs.sigma0(nodes[n], xs, cloud)
            xs = rsde._advance(coeffs, cloud, policy, nodes, n, xs, dw[n, :count],
                               db0[n, :count], None, sig0)
            rsde.check_blowup(xs, n, particles, sample=range(first, samples))
        x[first : first + count] = xs
    cond_means = x.mean(axis=1)
    cond_second = np.einsum("spa,spb->sab", x, x) / particles
    return JointSummary(
        cond_means=cond_means,
        cond_second=cond_second,
        pooled_mean=cond_means.mean(axis=0),
        pooled_second=cond_second.mean(axis=0),
        terminal=x,
        mode="external" if external else "conditional",
    )


def _frozen_flow_terminals(coeffs, policy, init, grid, particles, samples, seed,
                           flow, w_salt, inner_refine):
    """Terminal states of the per-sample solves under one frozen flow, from
    a grouped terminal-only pass; equal bitwise to one rsde.solve per sample.

    Blocks of max(1, PASS_INCREMENTS // (P N l)) samples advance together.
    A block stacks, one sample at a time, the initial states and idiosyncratic
    increments rsde.solve draws from the sample's seed, and the rough
    increments of the sample's lift; each sample's rows step with its own
    lift.  The increments are stored time-major, (N, rows, l), so that each
    node reads one contiguous slice.  Per node the block makes one
    rsde._pair and one rsde._advance call on all its rows (whose _step
    contracts each sample's rough increments with einsum) and keeps only the
    current states.  A blow-up raises DivergedError naming the step, the
    sample and the particle within the sample; a non-finite coefficient
    pair, at any node up to the terminal one, raises NumericError as in the
    solve.
    """
    if flow.grid != grid:  # every sample's lift lives on grid
        raise InputError("flow and rough path live on different grids")
    d, l, k = coeffs.d, coeffs.l, coeffs.k
    cvf, correction = rsde._rough_coefficient(coeffs, flow)
    nodes, steps = grid.nodes, grid.steps
    per_block = min(samples, max(1, PASS_INCREMENTS // (particles * steps * l)))
    # allocated once, so one block's increments are live at a time; a shorter
    # last block uses the leading rows
    dw = np.empty((steps, per_block * particles, l))
    db = np.empty((per_block, steps, k))
    bb = np.empty((per_block, steps, k, k))
    out = np.empty((samples, particles, d))
    for first in range(0, samples, per_block):
        count = min(per_block, samples - first)
        x = np.empty((count * particles, d))
        for g in range(count):
            lift = sample_lift(grid, k, seed, first + g, inner_refine)
            sample_seed = derive_seed(seed, "randomize", "pathwise", first + g, w_salt)
            rows = slice(g * particles, (g + 1) * particles)
            x[rows] = rsde.draw_initial(sample_seed, init, particles, d)
            dw[:, rows] = rsde.draw_wiener(sample_seed, particles, steps, l,
                                           grid.dt).transpose(1, 0, 2)
            db[g] = lift.increments()
            bb[g] = lift.step_second()
        for n in range(steps):
            x = rsde._advance(coeffs, flow.cloud(n), policy, nodes, n, x,
                              dw[n, : len(x)], db[:count, n], bb[:count, n],
                              *rsde._pair(cvf, correction, n, x))
            rsde.check_blowup(x, n, particles, sample=range(first, samples))
        # no step uses the pair at the terminal node; evaluated as the solve
        # does, so a non-finite coefficient there still raises
        rsde._pair(cvf, correction, steps, x)
        out[first : first + count] = x.reshape(count, particles, d)
    return out


def pathwise_terminals(coeffs, policy, init: rsde.InitialLaw, grid: TimeGrid,
                       particles: int, samples: int, seed, mode: str = FROZEN_FLOW,
                       flow=None, w_salt: int = 0, consistency_sweeps: int = 3,
                       inner_refine: int = 1):
    """Terminal states of the per-sample fixed-lift solves, shape (S, P, d).

    frozen-flow keeps the supplied (or initial-cloud) flow for every sample
    and runs the samples in grouped blocks (_frozen_flow_terminals);
    per-sample-fixedpoint iterates the consistency map flow -> law(solution)
    at the given policy a few sweeps per sample before the recorded solve;
    a blow-up there raises DivergedError naming the step, the sample, the
    particle and the consistency sweep (None for the recorded solve).
    """
    _require_counts(particles, samples)
    if mode not in (FROZEN_FLOW, PER_SAMPLE_FIXEDPOINT):
        raise InputError(f"unknown comparison mode {mode!r}")
    base_flow = flow
    if base_flow is None:
        cloud = rsde.draw_initial(seed, init, particles, coeffs.d)
        base_flow = mf.constant_flow(grid, cloud, coeffs.k)
    if mode == FROZEN_FLOW:
        return _frozen_flow_terminals(coeffs, policy, init, grid, particles, samples,
                                      seed, base_flow, w_salt, inner_refine)
    out = np.empty((samples, particles, coeffs.d))
    inner = max(32, particles // 4)
    for s in range(samples):
        lift = sample_lift(grid, coeffs.k, seed, s, inner_refine)
        sample_seed = derive_seed(seed, "randomize", "pathwise", s, w_salt)
        flow_s = base_flow
        try:
            for sweep in range(consistency_sweeps):
                sol = rsde.solve(
                    coeffs, flow_s, lift, policy, init, inner,
                    derive_seed(sample_seed, "inner", sweep),
                )
                flow_s = mf.from_solution(sol)
            sweep = None
            sol = rsde.solve(coeffs, flow_s, lift, policy, init, particles, sample_seed)
        except rsde.DivergedError as err:
            raise rsde.DivergedError(err.step, err.particle, err.worst, sample=s,
                                     sweep=sweep) from err
        out[s] = sol.ensemble.Z[:, grid.steps]
    return out


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and b, shape (len(a), len(b)).

    Squared differences accumulate one coordinate at a time, in coordinate
    order, into the output, BLOCK rows at a time; so no (len(a), len(b), d)
    temporary is made, and every entry equals scipy's cdist bit for bit.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], BLOCK):
        rows = out[lo : lo + BLOCK]
        for j in range(a.shape[1]):
            diff = a[lo : lo + BLOCK, j, None] - b[None, :, j]
            rows += np.square(diff, out=diff)
    return np.sqrt(out, out=out)


def energy_permutation_test(x: np.ndarray, y: np.ndarray, n_perm: int = 500,
                            seed: int = 0) -> tuple:
    """Permutation p-value of the energy statistic (label shuffles).

    Székely and Rizzo (2013).  The pooled distance matrix D is built once.
    Row 0 of the split masks is the observed split and row r > 0 the first
    n entries of the r-th permutation drawn from the "energy-perm" stream.
    Per block of BLOCK masks M, the within-x sums are the row sums of
    (M @ D) * M, the cross sums M @ colsum(D) minus them, and the within-y
    sums the rest of sum(D); the statistic is their weighted difference,
    equal to the masked-submatrix means up to round-off.
    """
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n, m = x.shape[0], y.shape[0]
    total = n + m
    pooled = np.vstack([x, y])
    dist = _distances(pooled, pooled)
    col = dist.sum(axis=0)
    grand = col.sum()
    rng = substream(seed, "randomize", "energy-perm")
    stats = np.empty(n_perm + 1)
    masks = np.empty((min(BLOCK, n_perm + 1), total))
    for first in range(0, n_perm + 1, BLOCK):
        block = masks[: min(BLOCK, n_perm + 1 - first)]
        block.fill(0.0)
        for r in range(block.shape[0]):
            split = rng.permutation(total)[:n] if first + r else slice(0, n)
            block[r, split] = 1.0
        sxx = np.einsum("pt,pt->p", block @ dist, block)
        sxy = block @ col - sxx
        syy = grand - 2.0 * sxy - sxx
        stats[first : first + block.shape[0]] = (
            2.0 * sxy / (n * m) - sxx / n**2 - syy / m**2
        )
    observed = stats[0]
    hits = int(np.count_nonzero(stats[1:] >= observed))
    return observed, (hits + 1.0) / (n_perm + 1.0)


@dataclass
class SampleVerdict:
    index: int
    pathwise_mean: np.ndarray
    joint_mean: np.ndarray
    combined_se: float
    within: bool


@dataclass
class BridgeReport:
    mode: str
    samples: int
    particles: int
    per_sample: list
    sample_pass_rate: float
    pooled_mean_gap: float
    pooled_mean_se: float
    mean_ok: bool
    pooled_second_gap: float
    pooled_second_se: float
    second_ok: bool
    energy_stat: float
    energy_p: float
    energy_ok: bool
    level: float

    @property
    def all_ok(self) -> bool:
        return self.mean_ok and self.second_ok and self.energy_ok


def compare_pathwise_vs_randomized(
    coeffs, policy, init: rsde.InitialLaw, grid: TimeGrid, particles: int,
    samples: int, seed, mode: str = FROZEN_FLOW, flow=None,
    test_subsample: int = 400, n_perm: int = 500, inner_refine: int = 1,
) -> BridgeReport:
    """Statistical comparison of the two formulations of the same model.

    Per sample: both pipelines consume the same common increments, and the
    conditional means must agree within the band.  Pooled: first and second
    moments within SIGMA_BAND standard errors (from the between-sample
    spread, which respects the within-sample correlation), and an
    energy-distance permutation test on subsampled terminals at LEVEL.  A
    standard error needs two of each, so fewer than two particles or two
    samples raises InputError before any solve; pathwise_terminals and
    joint_simulate accept one.
    """
    _require_counts(particles, samples)
    if particles < 2 or samples < 2:
        raise InputError(
            "a standard error needs at least two particles and two samples, got"
            f" particles={particles}, samples={samples}"
        )
    pw = pathwise_terminals(
        coeffs, policy, init, grid, particles, samples, seed, mode, flow,
        inner_refine=inner_refine,
    )
    joint = joint_simulate(
        coeffs, policy, init, grid, particles, samples, seed, flow=flow
    )
    jt = joint.terminal

    per_sample = []
    for s in range(samples):
        se = math.hypot(
            float(pw[s, :, 0].std(ddof=1)) / math.sqrt(particles),
            float(jt[s, :, 0].std(ddof=1)) / math.sqrt(particles),
        )
        gap = float(abs(pw[s, :, 0].mean() - jt[s, :, 0].mean()))
        per_sample.append(
            SampleVerdict(s, pw[s].mean(axis=0), jt[s].mean(axis=0), se,
                          gap <= 4.0 * se + 1e-12)
        )
    pass_rate = float(np.mean([v.within for v in per_sample]))

    pw_means = pw[..., 0].mean(axis=1)
    jt_means = jt[..., 0].mean(axis=1)
    mean_gap = float(abs(pw_means.mean() - jt_means.mean()))
    mean_se = math.hypot(
        float(pw_means.std(ddof=1)) / math.sqrt(samples),
        float(jt_means.std(ddof=1)) / math.sqrt(samples),
    )
    pw_second = (pw[..., 0] ** 2).mean(axis=1)
    jt_second = (jt[..., 0] ** 2).mean(axis=1)
    second_gap = float(abs(pw_second.mean() - jt_second.mean()))
    second_se = math.hypot(
        float(pw_second.std(ddof=1)) / math.sqrt(samples),
        float(jt_second.std(ddof=1)) / math.sqrt(samples),
    )

    pick = substream(seed, "randomize", "energy-pick")
    flat_pw = pw.reshape(-1, coeffs.d)
    flat_jt = jt.reshape(-1, coeffs.d)
    n_test = min(test_subsample, flat_pw.shape[0])
    sel_pw = pick.choice(flat_pw.shape[0], size=n_test, replace=False)
    sel_jt = pick.choice(flat_jt.shape[0], size=n_test, replace=False)
    stat, p_val = energy_permutation_test(
        flat_pw[sel_pw], flat_jt[sel_jt], n_perm=n_perm, seed=seed
    )

    return BridgeReport(
        mode=mode,
        samples=samples,
        particles=particles,
        per_sample=per_sample,
        sample_pass_rate=pass_rate,
        pooled_mean_gap=mean_gap,
        pooled_mean_se=mean_se,
        mean_ok=mean_gap <= SIGMA_BAND * mean_se + 1e-12,
        pooled_second_gap=second_gap,
        pooled_second_se=second_se,
        second_ok=second_gap <= SIGMA_BAND * second_se + 1e-12,
        energy_stat=stat,
        energy_p=p_val,
        energy_ok=p_val >= LEVEL,
        level=LEVEL,
    )
