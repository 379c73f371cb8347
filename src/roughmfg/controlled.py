"""Particle ensembles of controlled paths and their norm estimators.

An ensemble stores P realizations of a process Z together with its Gubinelli
derivative Z'.  Z may carry any trailing value shape; Z' carries one extra
trailing axis of length k that contracts against rough-path increments.  The
rough integral is the compensated left-point Riemann sum on the grid; norms
are estimated with conditional moments obtained by two-level Monte Carlo
(outer particles, inner conditional continuations), tabulated per anchor
and node.
"""

import math
from dataclasses import dataclass

import numpy as np

from .roughpath import InputError, RoughPath, TimeGrid

N_INFTY = "n_infty"
N_EQ_M = "n_eq_m"


@dataclass(frozen=True)
class IndexPair:
    """Regularity exponents (beta, beta') constrained by the admissible set:
    1/(1+gamma) < beta' <= beta <= alpha and beta' <= (gamma-1)*beta."""

    beta: float = 0.45
    beta_p: float = 0.4
    gamma: float = 2.0
    alpha: float = 0.45

    def __post_init__(self):
        lo = 1.0 / (1.0 + self.gamma)
        if not (lo < self.beta_p <= self.beta <= self.alpha):
            raise InputError(
                f"need {lo:.4f} < beta'={self.beta_p} <= beta={self.beta}"
                f" <= alpha={self.alpha}"
            )
        if self.beta_p > (self.gamma - 1.0) * self.beta + 1e-15:
            raise InputError(
                f"need beta' <= (gamma-1)*beta = {(self.gamma - 1) * self.beta:.4f},"
                f" got {self.beta_p}"
            )


@dataclass
class ControlledEnsemble:
    """P particles of (Z, Z') sampled on a TimeGrid.

    Z: (P, N+1, *vshape); Zp: (P, N+1, *vshape, k).
    """

    grid: TimeGrid
    Z: np.ndarray
    Zp: np.ndarray

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=float)
        self.Zp = np.asarray(self.Zp, dtype=float)
        if self.Z.ndim < 2 or self.Z.shape[1] != self.grid.steps + 1:
            raise InputError(f"Z shape {self.Z.shape} does not match grid")
        if self.Zp.shape[: self.Z.ndim] != self.Z.shape or self.Zp.ndim != self.Z.ndim + 1:
            raise InputError(
                f"Zp shape {self.Zp.shape} is not Z shape {self.Z.shape} + (k,)"
            )
        if not (np.isfinite(self.Z).all() and np.isfinite(self.Zp).all()):
            raise InputError("non-finite ensemble entries")

    @property
    def particles(self) -> int:
        return self.Z.shape[0]

    @property
    def vshape(self) -> tuple:
        return self.Z.shape[2:]

    @property
    def rough_dim(self) -> int:
        return self.Zp.shape[-1]


def _check_shared_grid(ce: ControlledEnsemble, p: RoughPath):
    if ce.grid != p.grid:
        raise InputError("ensemble and rough path live on different grids")
    if ce.rough_dim != p.dim:
        raise InputError(
            f"derivative contracts {ce.rough_dim} rough dims, path has {p.dim}"
        )


def rough_integral(ce: ControlledEnsemble, p: RoughPath, start: int, stop: int) -> np.ndarray:
    """Compensated left-point sum of (Z, Z') against the lift over
    [t_start, t_stop); returns one value per particle, shape (P, *vshape[:-1]).

    The value shape of Z must end with the rough dimension k."""
    _check_shared_grid(ce, p)
    if not ce.vshape or ce.vshape[-1] != p.dim:
        raise InputError(
            f"integrand value shape {ce.vshape} must end with rough dim {p.dim}"
        )
    if not (0 <= start <= stop <= ce.grid.steps):
        raise InputError(f"bad integration window [{start}, {stop}]")
    db = p.increments()                           # (N, k)
    bb = p.step_second()                          # (N, k, k)
    sl = slice(start, stop)
    acc = np.einsum("pn...i,ni->p...", ce.Z[:, sl], db[sl])
    acc += np.einsum("pn...ij,nij->p...", ce.Zp[:, sl], bb[sl])
    return acc


@dataclass
class NormEstimate:
    """Breakdown of a controlled-rough-path norm estimate.

    combined is the sum of the three components, or the power mean
    ((1/3)(a^m + b^m + c^m))^(1/m) when combine="power_mean".  mode records
    whether conditional moments were sampled ("two_level") or replaced by
    unconditional ones ("lower_bound")."""

    beta: float
    beta_p: float
    m: int
    n_mode: str
    delta_z_norm: float
    zp_norm: float
    remainder_norm: float
    combined: float
    inner_samples: int
    mode: str
    combine: str
    window: tuple | None = None


def _combine(parts, m, combine):
    a, b, c = parts
    if combine == "power_mean":
        return ((a**m + b**m + c**m) / 3.0) ** (1.0 / m)
    if combine == "sum":
        return a + b + c
    raise InputError(f"unknown combine rule {combine!r}")


def _reduce(values: np.ndarray, m: int, n_mode: str, axis: int = 0) -> np.ndarray:
    """Collapse the particle axis."""
    if n_mode == N_INFTY:
        return values.max(axis=axis)
    if n_mode == N_EQ_M:
        return (np.mean(values**m, axis=axis)) ** (1.0 / m)
    raise InputError(f"unknown n mode {n_mode!r}")


def _add_reduce(terms):
    """The sum of the arrays in terms, in the order np.add.reduce sums a
    contiguous axis of that many entries: in order below 8, otherwise in
    eight interleaved partial sums added pairwise, then the rest in order,
    halving first above 128 (numpy's pairwise summation).  Bitwise numpy's
    reduction, without its per-output cost on short axes."""
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _add_reduce(terms[:half]) + _add_reduce(terms[half:])
    part = list(terms[:8])
    top = n - n % 8
    for i in range(8, top, 8):
        part = [a + b for a, b in zip(part, terms[i : i + 8])]
    total = ((part[0] + part[1]) + (part[2] + part[3])) + (
        (part[4] + part[5]) + (part[6] + part[7])
    )
    for term in terms[top:]:
        total = total + term
    return total


def _vec_abs(arr: np.ndarray, n_value_axes: int) -> np.ndarray:
    """Euclidean magnitude over the trailing value axes: the square root of
    the sum of squares, bitwise np.linalg.norm of the flattened values."""
    if n_value_axes == 0:
        return np.abs(arr)
    flat = arr.reshape(arr.shape[: arr.ndim - n_value_axes] + (-1,))
    return np.sqrt(_add_reduce([flat[..., j] * flat[..., j]
                                for j in range(flat.shape[-1])]))


def _window_nodes(grid: TimeGrid, window):
    if window is None:
        return 0, grid.steps
    lo, hi = window
    i0, i1 = grid.node_at(lo), grid.node_at(hi)
    if i1 <= i0:
        raise InputError(f"empty norm window {window}")
    return i0, i1


def anchor_nodes(grid: TimeGrid, window=None, anchor_stride: int | None = None):
    """Anchor nodes of the two-level estimator on a window (default stride:
    about 32 anchors), and the window's end node."""
    i0, i1 = _window_nodes(grid, window)
    if anchor_stride is None:
        anchor_stride = max(1, math.ceil((i1 - i0) / 32))
    return list(range(i0, i1, anchor_stride)), i1


@dataclass
class ConditionalMoments:
    """Two-level conditional moments of a controlled path, per anchor.

    Row g holds the statistics of the continuations from node anchors[g],
    which run to node stops[g]: at each column t in (anchors[g], stops[g]]
    the particle reduction (m, n_mode) of the conditional m-th moment of
    |Z_t - Z_s| (delta_z) and of |Z'_t - Z'_s| (delta_zp), and the largest
    |E[R^Z_{s,t} | F_s]| over particles (remainder); other columns are NaN.
    Tables are (G, N+1).  Built by RsdeSolution.continuation_moments."""

    anchors: list
    stops: list
    delta_z: np.ndarray
    delta_zp: np.ndarray
    remainder: np.ndarray
    m: int
    n_mode: str
    inner_samples: int


def node_moments(held, now, db, targets, m: int, n_mode: str):
    """The estimator's statistics at one node t for G anchor groups, for
    every requested target at once.

    held and now are the slots of the inner continuations at their anchor s
    and at node t, each (G, P, n_inner, *v); targets maps a name to its
    (Z, Z') pair of slot indices, and db (G, k) holds the increments
    B_t - B_s.  Returns, per target, three (G,) arrays: the particle
    reduction of the conditional m-th moment of |Z_t - Z_s| and of
    |Z'_t - Z'_s|, and the largest |E[R^Z_{s,t} | F_s]| over particles.

    A slot that is one target's Z' and another's Z has its moment computed
    once.  Magnitudes and inner means are sums of slices in numpy's own
    order (_add_reduce), so the two moments are bitwise those of
    np.linalg.norm and of np.mean over the contiguous inner axis.  np.mean
    sums the inner axis of dZ (G, P, n_inner, *v) in plain order when the
    value axes hold more than one entry; the orders agree below 8 inner
    samples, so from n_inner = 8 up the remainder of such a target moves
    by round-off."""
    n_inner = now[0].shape[2]

    def inner_mean(a):
        return _add_reduce([a[:, :, r] for r in range(n_inner)]) / n_inner

    delta = {i: now[i] - held[i] for pair in targets.values() for i in pair}
    moment = {
        i: _reduce(inner_mean(_vec_abs(dz, dz.ndim - 3) ** m) ** (1.0 / m),
                   m, n_mode, axis=1)
        for i, dz in delta.items()
    }
    out = {}
    for name, (i, j) in targets.items():
        # conditional mean of R^Z; Z'_s and dB are F_s-measurable
        lin = np.einsum("gp...k,gk->gp...", held[j][:, :, 0], db)
        rem = _vec_abs(inner_mean(delta[i]) - lin, delta[i].ndim - 3).max(axis=1)
        out[name] = (moment[i], moment[j], rem)
    return out


def estimate_norm(
    ce: ControlledEnsemble,
    p: RoughPath,
    idx: IndexPair,
    m: int = 4,
    n_mode: str = N_INFTY,
    window: tuple | None = None,
    moments: ConditionalMoments | None = None,
    anchor_stride: int | None = None,
    combine: str = "sum",
) -> NormEstimate:
    """Estimate the (beta, beta'; m, n) norm of the ensemble against a lift.

    Components: conditional m-th moments of increments of Z (exponent beta)
    and of Z' (exponent beta', plus the static sup of |Z'|), and the
    conditional mean of the remainder (exponent beta + beta', reduced by sup
    over particles).  The conditional moments are read from `moments`, the
    tables of the ensemble's continuations (RsdeSolution.
    continuation_moments), at each anchor s of anchor_nodes(grid, window,
    anchor_stride) and every later node t of the window, divided by
    (t - s) to the component's exponent.  Without moments they degrade to
    unconditional ensemble moments and the result is flagged
    "lower_bound"."""
    if m < 2:
        raise InputError(f"moment order must be >= 2, got {m}")
    _check_shared_grid(ce, p)
    i0, i1 = _window_nodes(ce.grid, window)
    nz = len(ce.vshape)
    nodes = ce.grid.nodes

    # static part of the derivative component: sup over nodes of reduced |Z'|
    zp_abs = _vec_abs(ce.Zp[:, i0 : i1 + 1], nz + 1)
    zp_static = float(_reduce(zp_abs, m, n_mode).max())

    dz_best = 0.0
    dzp_best = 0.0
    rem_best = 0.0

    if moments is not None:
        if (moments.m, moments.n_mode) != (m, n_mode):
            raise InputError(
                f"moments are of order {moments.m} ({moments.n_mode}),"
                f" the estimate needs {m} ({n_mode})"
            )
        row = {s: g for g, s in enumerate(moments.anchors)}
        anchors, _ = anchor_nodes(ce.grid, window, anchor_stride)
        for s in anchors:
            g = row.get(s)
            if g is None or moments.stops[g] < i1:
                raise InputError(f"moments have no continuation from node {s} to {i1}")
            t_idx = np.arange(s + 1, i1 + 1)
            gaps = nodes[t_idx] - nodes[s]
            dz_best = max(dz_best, float((moments.delta_z[g, t_idx] / gaps**idx.beta).max()))
            dzp_best = max(
                dzp_best, float((moments.delta_zp[g, t_idx] / gaps**idx.beta_p).max())
            )
            rem_best = max(
                rem_best,
                float(
                    (moments.remainder[g, t_idx] / gaps ** (idx.beta + idx.beta_p)).max()
                ),
            )
        mode = "two_level"
        inner_samples = moments.inner_samples
    else:
        # unconditional fallback; a lower bound in the n_infty reduction
        for s in range(i0, i1):
            t_idx = np.arange(s + 1, i1 + 1)
            gaps = nodes[t_idx] - nodes[s]
            dz_abs = _vec_abs(ce.Z[:, t_idx] - ce.Z[:, s : s + 1], nz)
            dz_m = np.mean(dz_abs**m, axis=0) ** (1.0 / m)
            dz_best = max(dz_best, float((dz_m / gaps**idx.beta).max()))
            dzp_abs = _vec_abs(ce.Zp[:, t_idx] - ce.Zp[:, s : s + 1], nz + 1)
            dzp_m = np.mean(dzp_abs**m, axis=0) ** (1.0 / m)
            dzp_best = max(dzp_best, float((dzp_m / gaps**idx.beta_p).max()))
            db = p.increment(s, t_idx)
            lin = np.einsum("p...k,tk->pt...", ce.Zp[:, s], db)
            rem_mean = (ce.Z[:, t_idx] - ce.Z[:, s : s + 1] - lin).mean(axis=0)
            rem_best = max(
                rem_best,
                float(
                    (_vec_abs(rem_mean, nz) / gaps ** (idx.beta + idx.beta_p)).max()
                ),
            )
        mode = "lower_bound"
        inner_samples = 0

    zp_norm = zp_static + dzp_best
    parts = (dz_best, zp_norm, rem_best)
    return NormEstimate(
        beta=idx.beta,
        beta_p=idx.beta_p,
        m=m,
        n_mode=n_mode,
        delta_z_norm=dz_best,
        zp_norm=zp_norm,
        remainder_norm=rem_best,
        combined=float(_combine(parts, m, combine)),
        inner_samples=inner_samples,
        mode=mode,
        combine=combine,
        window=window,
    )
