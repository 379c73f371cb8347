"""Particle measure flows, transport distances, and domain certificates."""

import math
from dataclasses import dataclass

import numpy as np

from . import controlled as ct
from .rng import substream
from .roughpath import InputError, RoughPath, TimeGrid

EXACT_ASSIGNMENT_MAX = 64


@dataclass
class MeasureFlow:
    """t -> mu_t as P particle trajectories Y with derivative particles Y'.

    Y: (P, N+1, d); Yp: (P, N+1, d, k).  Weights are uniform 1/P.  Nothing
    writes into a flow's arrays: they may be read-only views (constant_flow).
    """

    grid: TimeGrid
    Y: np.ndarray
    Yp: np.ndarray

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        if self.Y.ndim != 3 or self.Y.shape[1] != self.grid.steps + 1:
            raise InputError(f"flow shape {self.Y.shape} does not match grid")
        if not np.isfinite(self.Y).all():
            raise InputError("non-finite flow particles")
        self.Yp = np.asarray(self.Yp, dtype=float)
        if self.Yp.shape[:3] != self.Y.shape or self.Yp.ndim != 4:
            raise InputError("derivative particles do not match flow shape")
        if not np.isfinite(self.Yp).all():
            raise InputError("non-finite derivative particles")

    @property
    def particles(self) -> int:
        return self.Y.shape[0]

    def cloud(self, n) -> np.ndarray:
        """Empirical cloud at node n, shape (P, d); at nodes n (G,) the
        node-major clouds (G, P, d) (at_nodes)."""
        return at_nodes(self.Y, n)

    def ensemble(self) -> ct.ControlledEnsemble:
        return ct.ControlledEnsemble(self.grid, self.Y, self.Yp)


def at_nodes(a: np.ndarray, n) -> np.ndarray:
    """a[:, n] of particle-major node tables a (P, N+1, ...): a view (P, ...)
    at one node n, and at nodes n (G,) a node-major C-contiguous copy
    (G, P, ...), so that a reduction over its particle axis sums as it does
    at one node."""
    if isinstance(n, np.ndarray):
        return np.ascontiguousarray(np.moveaxis(a, 1, 0)[n])
    return a[:, n]


def constant_flow(grid: TimeGrid, cloud: np.ndarray, k: int) -> MeasureFlow:
    """Flow frozen at an initial cloud, derivative particles zero.

    Y is a read-only broadcast view of the one cloud (P, d) over the nodes,
    and Yp one of a single zero: no node's cloud or zeros are copied."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    shape = (cloud.shape[0], grid.steps + 1, cloud.shape[1])
    return MeasureFlow(grid, np.broadcast_to(cloud[:, None, :], shape),
                       np.broadcast_to(0.0, shape + (k,)))


def from_solution(sol) -> MeasureFlow:
    """Measure flow of a solved state ensemble: the particles themselves,
    with the coefficient slot as derivative particles."""
    ens = sol.ensemble
    return MeasureFlow(ens.grid, ens.Z.copy(), ens.Zp.copy())


def wasserstein2(a: np.ndarray, b: np.ndarray, projections: int = 32, seed: int = 0) -> float:
    """W2 between point clouds.  Exact in one dimension (sorted coupling) and
    for small equal clouds (assignment); sliced estimate otherwise."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InputError("empty cloud")
    if a.shape[1] != b.shape[1]:
        raise InputError("clouds have different dimensions")
    d = a.shape[1]
    if d == 1:
        return _w2_sorted(a[:, 0], b[:, 0])
    if a.shape[0] == b.shape[0] and a.shape[0] <= EXACT_ASSIGNMENT_MAX:
        from scipy.optimize import linear_sum_assignment  # slow to import

        cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        rows, cols = linear_sum_assignment(cost)
        return math.sqrt(cost[rows, cols].mean())
    rng = substream(seed, "w2", "slices")
    dirs = rng.normal(size=(projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    acc = 0.0
    for v in dirs:
        acc += _w2_sorted(a @ v, b @ v) ** 2
    return math.sqrt(d * acc / projections)


def _w2_sorted(x: np.ndarray, y: np.ndarray) -> float:
    x = np.sort(x)
    y = np.sort(y)
    if len(x) == len(y):
        return math.sqrt(np.mean((x - y) ** 2))
    # quantile coupling on a common grid
    q = np.linspace(0.0, 1.0, 2 * max(len(x), len(y)) + 1)[1::2]
    xi = np.quantile(x, q)
    yi = np.quantile(y, q)
    return math.sqrt(np.mean((xi - yi) ** 2))


def flow_distance(a: MeasureFlow, b: MeasureFlow) -> float:
    """sup over nodes of the marginal W2 distance."""
    if a.grid != b.grid:
        raise InputError("flows on different grids")
    return max(
        wasserstein2(a.cloud(n), b.cloud(n)) for n in range(a.grid.steps + 1)
    )


def mix(a: MeasureFlow, b: MeasureFlow, lam: float, seed: int = 0) -> MeasureFlow:
    """Bernoulli(lam) trajectory-coupled mixture: each particle keeps either
    its a-trajectory (probability lam) or its b-trajectory, whole path and
    derivative together."""
    if a.grid != b.grid:
        raise InputError("flows on different grids")
    if not (0.0 <= lam <= 1.0):
        raise InputError(f"mixture weight must lie in [0, 1], got {lam}")
    if lam == 1.0:
        return a
    if lam == 0.0:
        return b
    rng = substream(seed, "flowmix")
    if b.particles != a.particles:
        sel = rng.integers(0, b.particles, size=a.particles)
        b = MeasureFlow(b.grid, b.Y[sel], b.Yp[sel])
    keep = rng.random(a.particles) < lam
    y = np.where(keep[:, None, None], a.Y, b.Y)
    yp = np.where(keep[:, None, None, None], a.Yp, b.Yp)
    return MeasureFlow(a.grid, y, yp)


@dataclass
class DomainCertificate:
    """Windowed-norm membership check for the fixed-point domain.

    member is true when every checked window of width below epsilon_window
    has power-mean norm at most M_bound.  One-sided: a failure is definite,
    success certifies the canonical representation on the checked windows.
    """

    M_bound: float
    epsilon_window: float
    m: int
    worst: float
    member: bool
    offending_window: tuple | None
    windows_checked: int
    window_norms: list


def check_domain(
    flow: MeasureFlow,
    p: RoughPath,
    idx: ct.IndexPair,
    m: int,
    M_bound: float,
    epsilon: float,
    solution=None,
    inner_samples: int = 4,
    max_windows: int = 16,
    anchor_stride: int | None = None,
    draws: dict | None = None,
) -> DomainCertificate:
    """Evaluate the windowed controlled-path norm of the flow representation
    on windows of width < epsilon and compare against M_bound.

    solution, the rsde solution whose state ensemble the flow represents,
    supplies the conditional moments: one continuation_moments request
    for the "state" target alone covers the distinct anchors of all
    windows, each continued to the furthest window end that uses it.
    Without it every window gets the unconditional lower-bound estimate.
    draws, a dict the caller owns, is handed to continuation_moments: it
    keeps the continuations' increments, so that checks of solutions with
    one seed, particle count and grid draw them once; the certificate is
    bitwise the one without it."""
    if max_windows < 1:
        raise InputError(f"need max_windows >= 1, got {max_windows}")
    ens = flow.ensemble()
    grid = flow.grid
    span = max(1, min(grid.steps, int(math.ceil(epsilon / grid.dt)) - 1))
    starts = list(range(0, grid.steps - span + 1))
    if len(starts) > max_windows:
        step = max(1, len(starts) // max_windows)
        starts = starts[::step]
    if not starts:
        starts = [0]
    windows = [(grid.nodes[s], grid.nodes[s + span]) for s in starts]
    moments = None
    if solution is not None:
        stop_of = {}
        for window in windows:
            anchors, end = ct.anchor_nodes(grid, window, anchor_stride)
            for a in anchors:
                stop_of[a] = max(stop_of.get(a, end), end)
        anchors = sorted(stop_of)
        # running further than a window needs changes no statistic, and
        # nondecreasing stops keep the pass's active rows contiguous
        stops = np.maximum.accumulate([stop_of[a] for a in anchors])
        moments = solution.continuation_moments(
            anchors, stops, inner_samples, m, ct.N_INFTY, targets=("state",),
            draws=draws,
        )["state"]
    worst = -1.0
    offender = None
    norms = []
    for window in windows:
        est = ct.estimate_norm(
            ens,
            p,
            idx,
            m=m,
            n_mode=ct.N_INFTY,
            window=window,
            moments=moments,
            anchor_stride=anchor_stride,
            combine="power_mean",
        )
        norms.append((window, est.combined))
        if est.combined > worst:
            worst = est.combined
            offender = window
    member = worst <= M_bound
    return DomainCertificate(
        M_bound=M_bound,
        epsilon_window=epsilon,
        m=m,
        worst=float(worst),
        member=bool(member),
        offending_window=None if member else offender,
        windows_checked=len(starts),
        window_norms=norms,
    )
