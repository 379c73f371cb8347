"""Time-indexed vector fields controlled by a rough path.

A field pair (f, f') is stored as node-indexed evaluators f(n, x), f'(n, x)
on the grid of the driving lift, together with a spatial gradient (analytic
or central-difference).  The central construction builds the pair
(interaction coefficient, its derivative field) out of a measure flow: the
coefficient evaluated at the empirical cloud, and its directional derivative
as the cloud moves along the flow's derivative particles.  That derivative
equals the particle average of the measure derivative contracted with the
derivative particles (the empirical-projection identity), so the measure
derivative itself is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlledEnsemble, IndexPair
from .roughpath import InputError, RoughPath, TimeGrid

# step of the central difference along the derivative particles used when a
# model has no sigma0_dmu: near eps^(1/3), it balances the O(h^2) truncation
# against the O(eps/h) round-off for particles and directions of unit scale
DMU_STEP = 1e-5


class ConfigurationError(ValueError):
    """A required evaluator or setting is missing."""


class NumericError(ArithmeticError):
    """Non-finite values produced during evaluation."""


@dataclass
class ControlledVectorField:
    """Evaluator bundle for a field pair on a grid.

    f(n, x): (..., *out_shape); fp(n, x): (..., *out_shape, k);
    grad(n, x): (..., *out_shape, d).  x is batched with trailing axis d.
    """

    grid: TimeGrid
    d: int
    k: int
    out_shape: tuple
    f: callable
    fp: callable
    grad: callable | None = None
    gamma: float = 2.0
    fd_step: float = 1e-6

    @property
    def out_size(self) -> int:
        return int(np.prod(self.out_shape, dtype=int))

    def gradient(self, n: int, x: np.ndarray) -> np.ndarray:
        if self.grad is not None:
            return self.grad(n, x)
        if self.fd_step is None:
            raise ConfigurationError("no gradient evaluator and no fd step set")
        x = np.asarray(x, dtype=float)
        cols = []
        h = self.fd_step
        for c in range(self.d):
            e = np.zeros(self.d)
            e[c] = h
            cols.append((self.f(n, x + e) - self.f(n, x - e)) / (2.0 * h))
        return np.stack(cols, axis=-1)


def from_callables(grid, d, k, out_shape, f_t, fp_t, grad_t=None, gamma=2.0):
    """Wrap time-parametrized callables f(t, x), f'(t, x) into a node-indexed
    field (convenience for analytic fields in tests and oracles)."""
    nodes = grid.nodes
    f = lambda n, x: f_t(nodes[n], x)
    fp = lambda n, x: fp_t(nodes[n], x)
    grad = None if grad_t is None else (lambda n, x: grad_t(nodes[n], x))
    return ControlledVectorField(grid, d, k, tuple(out_shape), f, fp, grad, gamma)


def build_cvf_from_flow(coeffs, flow) -> ControlledVectorField:
    """Interaction coefficient along a measure flow, with derivative field.

    The first slot evaluates the coefficient at the flow's empirical cloud.
    The second is the derivative of that coefficient as each flow particle
    moves along its derivative particle, one column per rough direction:
    (1/P) sum_p d_mu sigma0(x, mu^P)(y_p) Y'_p = d/dh sigma0(x, {y_p + h Y'_p})
    at h = 0.  Uses the model's sigma0_dmu when present, otherwise one
    central difference per rough direction (2k coefficient calls).
    """
    if coeffs.sigma0 is None:
        raise ConfigurationError(f"model {coeffs.name!r} has no rough coefficient")
    if flow.Yp is None:
        raise ConfigurationError("flow carries no derivative particles")
    grid = flow.grid
    nodes = grid.nodes
    d, k = coeffs.d, coeffs.k

    def f(n, x):
        out = coeffs.sigma0(nodes[n], x, flow.cloud(n))
        if not np.isfinite(out).all():
            raise NumericError("coefficient produced non-finite values")
        return out

    def directional(t, x, cloud, v):
        h = DMU_STEP
        cols = [
            (coeffs.sigma0(t, x, cloud + h * v[..., j])
             - coeffs.sigma0(t, x, cloud - h * v[..., j])) / (2.0 * h)
            for j in range(k)
        ]
        return np.stack(cols, axis=-1)

    dmu = coeffs.sigma0_dmu if coeffs.sigma0_dmu is not None else directional

    def fp(n, x):
        out = dmu(nodes[n], x, flow.cloud(n), flow.Yp[:, n])
        if not np.isfinite(out).all():
            raise NumericError("derivative field produced non-finite values")
        return out

    grad = None
    if coeffs.grad_sigma0 is not None:
        grad = lambda n, x: coeffs.grad_sigma0(nodes[n], x, flow.cloud(n))
    return ControlledVectorField(
        grid, d, k, (d, k), f, fp, grad, gamma=getattr(coeffs, "gamma", 2.0)
    )


def gubinelli_correction(cvf: ControlledVectorField):
    """Evaluator of fhat = grad(f) f + f' at (n, x, fx), where fx = f(n, x)
    is the value the caller already holds: the second-level coefficient of
    the state recursion; shape (..., *out_shape, k)."""
    if cvf.out_shape != (cvf.d, cvf.k):
        raise ConfigurationError("correction needs a (d, k) matrix field")

    def corr(n, x, fx):
        gx = cvf.gradient(n, x)  # (..., d, k, d)
        return np.einsum("...abc,...cj->...abj", gx, fx) + cvf.fp(n, x)

    return corr


def compose(cvf: ControlledVectorField, ce: ControlledEnsemble) -> ControlledEnsemble:
    """(f, f') o (X, X') = (f(X), grad f(X) X' + f'(X)) per particle and node."""
    if ce.vshape != (cvf.d,):
        raise InputError(
            f"composition needs a state ensemble of dim {cvf.d}, got {ce.vshape}"
        )
    if ce.grid != cvf.grid:
        raise InputError("field and ensemble live on different grids")
    p_count, n1 = ce.Z.shape[0], ce.grid.steps + 1
    fshape = cvf.out_shape
    z = np.empty((p_count, n1) + fshape)
    zp = np.empty((p_count, n1) + fshape + (cvf.k,))
    for n in range(n1):
        x = ce.Z[:, n]
        z[:, n] = cvf.f(n, x)
        gx = cvf.gradient(n, x).reshape(p_count, cvf.out_size, cvf.d)
        lead = np.einsum("pfd,pdk->pfk", gx, ce.Zp[:, n])
        zp[:, n] = lead.reshape((p_count,) + fshape + (cvf.k,)) + cvf.fp(n, x)
    return ControlledEnsemble(ce.grid, z, zp)


@dataclass
class CvfNorm:
    """Probe-grid estimate of the controlled-vector-field norm."""

    delta_f: float
    delta_fp: float
    delta_grad: float
    remainder: float
    sup_part: float
    total: float
    probes: int


def _flat_max(arr, keep_axes):
    """Max absolute entry after flattening everything past keep_axes."""
    return np.abs(arr.reshape(arr.shape[:keep_axes] + (-1,))).max(axis=-1)


def _spread(cols, a):
    """Largest |difference| from column a to each later column of cols."""
    return np.abs(cols[:, a + 1 :] - cols[:, a : a + 1]).max(axis=0)


def cvf_norm(
    cvf: ControlledVectorField,
    p: RoughPath,
    idx: IndexPair,
    probes: np.ndarray,
    node_stride: int = 1,
) -> CvfNorm:
    """Estimate the field norm: time-increment parts of f, f' and grad f, the
    remainder part, and the spatial-Holder sup part, all maximized over grid
    node pairs and the probe set.  A probe-grid sup under-approximates the
    spatial sup; the probe count is recorded.

    Each time-increment part divides the largest difference over probes and
    values at a node pair by the pair's gap to its exponent.  Correctly
    rounded division by a positive number is monotone, so this is bitwise
    the largest of the per-probe quotients; f, f' and grad f are read from
    node-minor copies, so that this largest difference is a max over rows.
    The remainder part keeps the node-major layout of its contraction."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[0] == 0:
        raise InputError("probe grid is empty")
    if probes.shape[1] != cvf.d:
        raise InputError(f"probes have dim {probes.shape[1]}, field needs {cvf.d}")
    if cvf.grid != p.grid:
        raise InputError("field and rough path live on different grids")
    nodes = cvf.grid.nodes
    sel = list(range(0, cvf.grid.steps + 1, node_stride))
    if sel[-1] != cvf.grid.steps:
        sel.append(cvf.grid.steps)

    fs = np.stack([cvf.f(n, probes) for n in sel])          # (S, Q, *out)
    fps = np.stack([cvf.fp(n, probes) for n in sel])        # (S, Q, *out, k)
    grads = np.stack([cvf.gradient(n, probes) for n in sel])

    # node-minor copies, (values, S): the largest difference over probes
    # and values is a max over rows, taken before the division by the gap's
    # power, which is positive, so monotone
    f_c, fp_c, grad_c = (np.ascontiguousarray(v.reshape(len(sel), -1).T)
                         for v in (fs, fps, grads))
    at = np.array(sel)
    d_f = d_fp = d_grad = rem = 0.0
    for a in range(len(sel) - 1):
        later = at[a + 1 :]
        gaps = nodes[later] - nodes[sel[a]]
        gaps_p = gaps**idx.beta_p
        d_f = max(d_f, float((_spread(f_c, a) / gaps**idx.beta).max()))
        d_fp = max(d_fp, float((_spread(fp_c, a) / gaps_p).max()))
        d_grad = max(d_grad, float((_spread(grad_c, a) / gaps_p).max()))
        db = p.first_level[later] - p.first_level[sel[a]]  # (S', k)
        lin = np.einsum("q...j,sj->sq...", fps[a], db)
        r = fs[a + 1 :] - fs[a] - lin
        rem = max(
            rem, float((_flat_max(r, 1) / gaps ** (idx.beta + idx.beta_p)).max())
        )

    # spatial Holder norms on probes: zeroth + first order plus the
    # (gamma-1)-quotient of the top derivative over probe pairs
    holder_exp = cvf.gamma - 1.0
    sup_f = _flat_max(fs, 2).max(axis=1)
    sup_grad = _flat_max(grads, 2).max(axis=1)
    sup_fp = _flat_max(fps, 2).max(axis=1)
    q = probes.shape[0]
    if q > 1:
        iu = np.triu_indices(q, k=1)
        dist = np.linalg.norm(probes[iu[0]] - probes[iu[1]], axis=-1)
        keep = dist > 0
        iu = (iu[0][keep], iu[1][keep])
        dist = dist[keep]
    else:
        iu = (np.array([], dtype=int), np.array([], dtype=int))
        dist = np.array([])

    def pair_quotient(values):
        if len(dist) == 0:
            return np.zeros(values.shape[0])
        diff = _flat_max(values[:, iu[0]] - values[:, iu[1]], 2)
        return (diff / dist**holder_exp).max(axis=1)

    f_gamma = sup_f + sup_grad + pair_quotient(grads)
    fp_gamma = sup_fp + pair_quotient(fps)
    sup_part = float((f_gamma + fp_gamma).max())

    total = d_f + d_fp + d_grad + rem + sup_part
    return CvfNorm(d_f, d_fp, d_grad, rem, sup_part, total, probes.shape[0])
