"""Particle ensembles of controlled paths and their norm estimators.

An ensemble stores P realizations of a process Z together with its Gubinelli
derivative Z'.  Z may carry any trailing value shape; Z' carries one extra
trailing axis of length k that contracts against rough-path increments.  The
rough integral is the compensated left-point Riemann sum on the grid; norms
are estimated with conditional moments obtained from a two-level Monte Carlo
resampler (outer particles, inner conditional continuations).
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

    Z: (P, N+1, *vshape); Zp: (P, N+1, *vshape, k).  generation_record keeps
    the RNG provenance (seed path, branch node) when the ensemble came out of
    a simulator, so conditional futures can be regenerated.
    """

    grid: TimeGrid
    Z: np.ndarray
    Zp: np.ndarray
    generation_record: dict | None = None

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
    def value_dim(self) -> int:
        return int(np.prod(self.vshape, dtype=int)) if self.vshape else 1

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
    db = np.diff(p.first_level, axis=0)          # (N, k)
    bb = p.step_second()                          # (N, k, k)
    sl = slice(start, stop)
    acc = np.einsum("pn...i,ni->p...", ce.Z[:, sl], db[sl])
    acc += np.einsum("pn...ij,nij->p...", ce.Zp[:, sl], bb[sl])
    return acc


def remainder(ce: ControlledEnsemble, p: RoughPath, s: int, t: int) -> np.ndarray:
    """R^Z over [t_s, t_t]: the increment of Z minus Z'_s dB; shape (P, *vshape)."""
    _check_shared_grid(ce, p)
    db = p.increment(s, t)
    return ce.Z[:, t] - ce.Z[:, s] - ce.Zp[:, s] @ db


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


def _reduce(values: np.ndarray, m: int, n_mode: str) -> np.ndarray:
    """Collapse the particle axis (axis 0)."""
    if n_mode == N_INFTY:
        return values.max(axis=0)
    if n_mode == N_EQ_M:
        return (np.mean(values**m, axis=0)) ** (1.0 / m)
    raise InputError(f"unknown n mode {n_mode!r}")


def _vec_abs(arr: np.ndarray, n_value_axes: int) -> np.ndarray:
    """Euclidean magnitude over the trailing value axes."""
    if n_value_axes == 0:
        return np.abs(arr)
    flat = arr.reshape(arr.shape[: arr.ndim - n_value_axes] + (-1,))
    return np.linalg.norm(flat, axis=-1)


def _window_nodes(grid: TimeGrid, window):
    if window is None:
        return 0, grid.steps
    lo, hi = window
    i0, i1 = grid.node_at(lo), grid.node_at(hi)
    if i1 <= i0:
        raise InputError(f"empty norm window {window}")
    return i0, i1


def estimate_norm(
    ce: ControlledEnsemble,
    p: RoughPath,
    idx: IndexPair,
    m: int = 4,
    n_mode: str = N_INFTY,
    window: tuple | None = None,
    inner_samples: int = 8,
    resampler=None,
    anchor_stride: int | None = None,
    pair_stride: int = 1,
    combine: str = "sum",
) -> NormEstimate:
    """Estimate the (beta, beta'; m, n) norm of the ensemble against a lift.

    Components: conditional m-th moments of increments of Z (exponent beta)
    and of Z' (exponent beta', plus the static sup of |Z'|), and the
    conditional mean of the remainder (exponent beta + beta', reduced by sup
    over particles).  resampler(s_idx, n_inner) must return fresh futures
    (Zc, Zpc) of shapes (P, n_inner, N+1, *vshape) and (..., k) for every
    particle frozen at node s_idx.  Without a resampler the conditional
    moments degrade to unconditional ensemble moments and the result is
    flagged "lower_bound".
    """
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

    if resampler is not None:
        if anchor_stride is None:
            anchor_stride = max(1, math.ceil((i1 - i0) / 32))
        anchors = [s for s in range(i0, i1, anchor_stride)]
        for s in anchors:
            t_idx = np.arange(s + 1, i1 + 1)
            if pair_stride > 1:
                t_idx = t_idx[::pair_stride]
            if len(t_idx) == 0:
                continue
            zc, zpc = resampler(s, inner_samples)
            gaps = nodes[t_idx] - nodes[s]
            dz = zc[:, :, t_idx] - zc[:, :, s : s + 1]
            dz_m = np.mean(_vec_abs(dz, nz) ** m, axis=1) ** (1.0 / m)
            dz_best = max(dz_best, float((_reduce(dz_m, m, n_mode) / gaps**idx.beta).max()))
            dzp = zpc[:, :, t_idx] - zpc[:, :, s : s + 1]
            dzp_m = np.mean(_vec_abs(dzp, nz + 1) ** m, axis=1) ** (1.0 / m)
            dzp_best = max(
                dzp_best, float((_reduce(dzp_m, m, n_mode) / gaps**idx.beta_p).max())
            )
            # conditional mean of R^Z; Z'_s and dB are F_s-measurable
            zp_s = zpc[:, 0, s]  # (P, *v, k)
            db = p.increment(s, t_idx)  # (nt, k)
            lin = np.einsum("p...k,tk->pt...", zp_s, db)
            rem_mean = dz.mean(axis=1) - lin
            rem_abs = _vec_abs(rem_mean, nz)  # (P, nt)
            rem_best = max(
                rem_best,
                float((rem_abs.max(axis=0) / gaps ** (idx.beta + idx.beta_p)).max()),
            )
        mode = "two_level"
    else:
        # unconditional fallback; a lower bound in the n_infty reduction
        sel = np.arange(i0, i1 + 1, pair_stride)
        if sel[-1] != i1:
            sel = np.append(sel, i1)
        for a, s in enumerate(sel[:-1]):
            t_idx = sel[a + 1 :]
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


def norm_breakdown_csv(estimates, fp) -> None:
    """One CSV row per estimate with the component breakdown."""
    fp.write(
        "beta,beta_p,m,n_mode,mode,combine,delta_z,zp,remainder,combined,inner\n"
    )
    for e in estimates:
        fp.write(
            ",".join(
                [
                    repr(e.beta),
                    repr(e.beta_p),
                    str(e.m),
                    e.n_mode,
                    e.mode,
                    e.combine,
                    repr(e.delta_z_norm),
                    repr(e.zp_norm),
                    repr(e.remainder_norm),
                    repr(e.combined),
                    str(e.inner_samples),
                ]
            )
            + "\n"
        )
