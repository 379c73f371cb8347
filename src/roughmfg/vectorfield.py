"""Time-indexed vector fields controlled by a rough path.

A field pair (f, f') is stored as node-indexed evaluators f(n, x), f'(n, x)
on the grid of the driving lift, together with its spatial gradient.  The
central construction builds the pair (interaction coefficient, its
derivative field) out of a measure flow: the coefficient evaluated at the
empirical cloud, and its directional derivative as the cloud moves along
the flow's derivative particles.  That derivative equals the particle
average of the measure derivative contracted with the derivative particles
(the empirical-projection identity), so the measure derivative itself is
never formed.  Both derivatives come from the model (sigma0_dmu and
grad_sigma0); nothing here differentiates numerically.

Every evaluator takes one node n with states x (..., d), or an integer
array of nodes n (G,) with x (G, Q, d): one call evaluates the field at
many nodes, each group of states at its own node (the grouping convention
of models).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measureflow as mf
from . import models
from .controlled import ControlledEnsemble, IndexPair
from .roughpath import InputError, RoughPath, TimeGrid


class ConfigurationError(ValueError):
    """A required evaluator or setting is missing."""


class NumericError(ArithmeticError):
    """Non-finite values produced during evaluation."""


@dataclass
class ControlledVectorField:
    """Evaluator bundle for a field pair on a grid.

    f(n, x): (..., *out_shape); fp(n, x): (..., *out_shape, k);
    grad(n, x): (..., *out_shape, d).  x is batched with trailing axis d;
    nodes n (G,) take x (G, Q, d).  The field's regularity gamma is the
    index pair's, which cvf_norm reads.
    """

    grid: TimeGrid
    d: int
    k: int
    out_shape: tuple
    f: callable
    fp: callable
    grad: callable


def build_cvf_from_flow(coeffs, flow) -> ControlledVectorField:
    """Interaction coefficient along a measure flow, with derivative field.

    The first slot evaluates the coefficient at the flow's empirical cloud.
    The second is the derivative of that coefficient as each flow particle
    moves along its derivative particle, one column per rough direction:
    (1/P) sum_p d_mu sigma0(x, mu^P)(y_p) Y'_p = d/dh sigma0(x, {y_p + h Y'_p})
    at h = 0: the model's sigma0_dmu.  A model without sigma0, grad_sigma0
    or sigma0_dmu is refused before any evaluation.
    """
    for name in ("sigma0", "grad_sigma0", "sigma0_dmu"):
        if getattr(coeffs, name) is None:
            raise ConfigurationError(
                f"model {coeffs.name!r} has no {name}; a rough coefficient "
                "sigma0 comes with its derivatives grad_sigma0 and sigma0_dmu")
    nodes, k = flow.grid.nodes, coeffs.k

    def evaluator(what, name, call, *tables):
        """call(t, x, cloud, *(the tables at n)) at node or nodes n (an
        array, through models.grouped_call).  With `what`, a non-finite
        value raises NumericError naming the first node that has one."""

        def at(n, x):
            t = models.node_time(nodes, n)
            args = (x, flow.cloud(n), *[mf.at_nodes(a, n) for a in tables])
            grouped = isinstance(n, np.ndarray)
            out = (models.grouped_call(coeffs, name, call, t, *args) if grouped
                   else call(t, *args))
            if what and not np.isfinite(out).all():
                if grouped:
                    n = n[(~np.isfinite(out)).reshape(len(n), -1).any(axis=1).argmax()]
                raise NumericError(f"{what} produced non-finite values at node {n}")
            return out

        return at

    f = evaluator("coefficient", "sigma0", coeffs.sigma0)
    fp = evaluator("derivative field", "sigma0_dmu", coeffs.sigma0_dmu, flow.Yp)
    grad = evaluator(None, "grad_sigma0", coeffs.grad_sigma0)
    return ControlledVectorField(flow.grid, coeffs.d, k, (coeffs.d, k), f, fp, grad)


def gubinelli_correction(cvf: ControlledVectorField):
    """Evaluator of fhat = grad(f) f + f' at (n, x, fx), where fx = f(n, x)
    is the value the caller already holds: the second-level coefficient of
    the state recursion; shape (..., *out_shape, k)."""
    if cvf.out_shape != (cvf.d, cvf.k):
        raise ConfigurationError("correction needs a (d, k) matrix field")

    def corr(n, x, fx):
        gx = cvf.grad(n, x)  # (..., d, k, d)
        return np.einsum("...abc,...cj->...abj", gx, fx) + cvf.fp(n, x)

    return corr


def compose(cvf: ControlledVectorField, ce: ControlledEnsemble) -> ControlledEnsemble:
    """(f, f') o (X, X') = (f(X), grad f(X) X' + f'(X)) per particle and
    node, from one call of each evaluator on the nodes as groups."""
    if ce.vshape != (cvf.d,):
        raise InputError(
            f"composition needs a state ensemble of dim {cvf.d}, got {ce.vshape}"
        )
    if ce.grid != cvf.grid:
        raise InputError("field and ensemble live on different grids")
    p_count, n1 = ce.Z.shape[0], ce.grid.steps + 1
    nodes = np.arange(n1)
    x = ce.Z.swapaxes(0, 1)  # node-major (N+1, P, d)
    z = cvf.f(nodes, x)
    gx = cvf.grad(nodes, x).reshape(n1, p_count, -1, cvf.d)
    lead = np.einsum("npfd,npdk->npfk", gx, ce.Zp.swapaxes(0, 1))
    zp = lead.reshape(z.shape + (cvf.k,)) + cvf.fp(nodes, x)
    return ControlledEnsemble(ce.grid, *(np.ascontiguousarray(a.swapaxes(0, 1))
                                         for a in (z, zp)))


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
) -> CvfNorm:
    """Estimate the field norm: time-increment parts of f, f' and grad f, the
    remainder part, and the spatial-Holder sup part, all maximized over grid
    node pairs and the probe set.  A probe-grid sup under-approximates the
    spatial sup; the probe count is recorded.

    The sup part is sup f + sup grad f + the (gamma-1)-Holder quotient of
    grad f, plus sup f' + the quotient of f', with gamma = idx.gamma.  That
    is the C^gamma norm only for 1 < gamma <= 2 (the admissible set already
    forces gamma > 1), so a larger gamma raises InputError.

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
    if idx.gamma > 2.0:
        raise InputError(
            f"the field norm is the C^gamma norm for gamma <= 2, got {idx.gamma}"
        )
    nodes = cvf.grid.nodes
    n1 = cvf.grid.steps + 1

    # the probes at every node as groups: (N+1, Q, *out) and so on
    at_all = (np.arange(n1), np.broadcast_to(probes, (n1,) + probes.shape))
    fs, fps, grads = cvf.f(*at_all), cvf.fp(*at_all), cvf.grad(*at_all)

    # node-minor copies, (values, N+1): the largest difference over probes
    # and values is a max over rows, taken before the division by the gap's
    # power, which is positive, so monotone
    f_c, fp_c, grad_c = (np.ascontiguousarray(v.reshape(n1, -1).T)
                         for v in (fs, fps, grads))
    d_f = d_fp = d_grad = rem = 0.0
    for a in range(n1 - 1):
        gaps = nodes[a + 1 :] - nodes[a]
        gaps_p = gaps**idx.beta_p
        d_f = max(d_f, float((_spread(f_c, a) / gaps**idx.beta).max()))
        d_fp = max(d_fp, float((_spread(fp_c, a) / gaps_p).max()))
        d_grad = max(d_grad, float((_spread(grad_c, a) / gaps_p).max()))
        db = p.first_level[a + 1 :] - p.first_level[a]  # (N-a, k)
        lin = np.einsum("q...j,sj->sq...", fps[a], db)
        r = fs[a + 1 :] - fs[a] - lin
        rem = max(
            rem, float((_flat_max(r, 1) / gaps ** (idx.beta + idx.beta_p)).max())
        )

    # spatial Holder norms on probes: zeroth + first order plus the
    # (gamma-1)-quotient of the top derivative over probe pairs
    holder_exp = idx.gamma - 1.0
    sup_f = _flat_max(fs, 2).max(axis=1)
    sup_grad = _flat_max(grads, 2).max(axis=1)
    sup_fp = _flat_max(fps, 2).max(axis=1)
    iu = np.triu_indices(probes.shape[0], k=1)
    dist = np.linalg.norm(probes[iu[0]] - probes[iu[1]], axis=-1)
    keep = dist > 0
    iu, dist = (iu[0][keep], iu[1][keep]), dist[keep]

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
