"""Rough-path lifts on a uniform time grid.

A lift stores the first level B and the prefix sums of the second level at
every node, O(N k^2) numbers; Chen's relation gives the iterated integral
over any node pair (s, t) without re-summation.  Two constructions are
provided: the left-point (Ito) enhancement of an increment sequence and the
exact enhancement of a piecewise-linear path (geometric).
"""

import struct
from dataclasses import dataclass

import numpy as np

BRACKET_ITO = "ito_identity"
BRACKET_GEOMETRIC = "geometric"
_MAGIC = b"RPTH"
_FORMAT_VERSION = 1


class InputError(ValueError):
    """Bad caller-supplied data (shape, grid, non-finite values)."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with spacing T/N."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise InputError(f"grid needs at least one step, got {self.steps}")
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise InputError(f"horizon must be a positive finite time, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def restrict(self, stride: int) -> "TimeGrid":
        if self.steps % stride != 0:
            raise InputError(f"stride {stride} does not divide N={self.steps}")
        return TimeGrid(self.horizon, self.steps // stride)

    def node_at(self, t: float) -> int:
        """Index of the grid node closest to time t."""
        i = int(round(t / self.dt))
        return min(max(i, 0), self.steps)


@dataclass(frozen=True)
class RoughPath:
    """First level and second-level prefix sums of a lift over a TimeGrid.

    first_level: (N+1, k) node values of B.
    prefix: (N+1, k, k) second level over [t_0, t_j] plus B_0 (x) (B_j - B_0),
    i.e. S_j = sum_{r<j} B*_r (x) dB_r with B*_r the left point (Ito) or the
    midpoint (geometric).  By Chen, `second(i, j)` = S_j - S_i - B_i (x) (B_j - B_i).
    """

    grid: TimeGrid
    first_level: np.ndarray
    prefix: np.ndarray
    bracket_mode: str

    def __post_init__(self):
        n = self.grid.steps + 1
        k = self.dim
        if self.first_level.shape != (n, k):
            raise InputError(f"first level shape {self.first_level.shape} != {(n, k)}")
        if self.prefix.shape != (n, k, k):
            raise InputError(f"prefix sums shape {self.prefix.shape} != {(n, k, k)}")
        if self.bracket_mode not in (BRACKET_ITO, BRACKET_GEOMETRIC):
            raise InputError(f"unknown bracket mode {self.bracket_mode!r}")
        if not (np.isfinite(self.first_level).all() and np.isfinite(self.prefix).all()):
            raise InputError("non-finite entries in rough path")
        self.first_level.setflags(write=False)
        self.prefix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.first_level.shape[1]

    def increment(self, i, j) -> np.ndarray:
        return self.first_level[j] - self.first_level[i]

    def increments(self) -> np.ndarray:
        """One-step increments, shape (N, k)."""
        return np.diff(self.first_level, axis=0)

    def second(self, i, j) -> np.ndarray:
        """Iterated integral over [t_i, t_j] for i <= j, shape (..., k, k);
        i and j may be broadcasting index arrays."""
        b, s = self.first_level, self.prefix
        return (s[j] - s[i]) - b[i][..., :, None] * (b[j] - b[i])[..., None, :]

    def step_second(self) -> np.ndarray:
        """One-step second level, shape (N, k, k)."""
        idx = np.arange(self.grid.steps)
        return self.second(idx, idx + 1)

    def bracket(self, i, j) -> np.ndarray:
        """Realized bracket dB (x) dB - (second + second^T) over [t_i, t_j]."""
        db = self.increment(i, j)
        bb = self.second(i, j)
        return db[..., :, None] * db[..., None, :] - (bb + np.swapaxes(bb, -1, -2))

    def step_brackets(self) -> np.ndarray:
        """Per-step realized brackets, shape (N, k, k)."""
        idx = np.arange(self.grid.steps)
        return self.bracket(idx, idx + 1)

    def restrict(self, stride: int) -> "RoughPath":
        """Lift seen on every stride-th node (both levels are subsampled)."""
        return RoughPath(
            self.grid.restrict(stride),
            self.first_level[::stride].copy(),
            self.prefix[::stride].copy(),
            self.bracket_mode,
        )


def _pairs(p: RoughPath):
    """Node pairs i < j (row-major upper triangle) and their time gaps."""
    i, j = np.triu_indices(p.grid.steps + 1, k=1)
    return i, j, p.grid.nodes[j] - p.grid.nodes[i]


def ito_lift(increments: np.ndarray, grid: TimeGrid) -> RoughPath:
    """Left-point enhancement of an increment sequence (Ito iterated sums)."""
    increments = np.asarray(increments, dtype=float)
    if increments.ndim == 1:
        increments = increments[:, None]
    if increments.shape[0] != grid.steps:
        raise InputError(
            f"expected {grid.steps} increments, got {increments.shape[0]}"
        )
    if not np.isfinite(increments).all():
        raise InputError("non-finite increment")
    k = increments.shape[1]
    first = np.zeros((grid.steps + 1, k))
    np.cumsum(increments, axis=0, out=first[1:])
    # prefix[j] = sum_{r<j} B_r (x) dW_r
    terms = first[:-1, :, None] * increments[:, None, :]
    prefix = np.zeros((grid.steps + 1, k, k))
    np.cumsum(terms, axis=0, out=prefix[1:])
    return RoughPath(grid, first, prefix, BRACKET_ITO)


def smooth_lift(path: np.ndarray, grid: TimeGrid) -> RoughPath:
    """Exact lift of the piecewise-linear interpolant of node values.

    Per segment the iterated integral is (1/2) dB (x) dB; pairs follow by Chen
    composition.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim == 1:
        path = path[:, None]
    if path.shape[0] != grid.steps + 1:
        raise InputError(f"expected {grid.steps + 1} node values, got {path.shape[0]}")
    if not np.isfinite(path).all():
        raise InputError("non-finite node value")
    k = path.shape[1]
    steps = np.diff(path, axis=0)
    # midpoint rule: prefix[j] = sum_{r<j} (B_r + dB_r/2) (x) dB_r
    terms = (path[:-1] + 0.5 * steps)[:, :, None] * steps[:, None, :]
    prefix = np.zeros((grid.steps + 1, k, k))
    np.cumsum(terms, axis=0, out=prefix[1:])
    return RoughPath(grid, path.copy(), prefix, BRACKET_GEOMETRIC)


def chen_defect(p: RoughPath) -> float:
    """Max over grid triples s<u<t of |Chen residual| (largest entry)."""
    first = p.first_level
    n = p.grid.steps + 1
    second = p.second(*np.indices((n, n)))  # (n, n, k, k), read for i < j only
    worst = 0.0
    for u in range(1, n - 1):
        # residual[i, t] for all i < u < t, one middle point at a time
        left = second[:u, u]                      # (u, k, k)
        right = second[u, u + 1:]                 # (n-u-1, k, k)
        cross = np.einsum(
            "ia,tb->itab", first[u] - first[:u], first[u + 1:] - first[u]
        )
        res = second[:u, u + 1:] - left[:, None] - right[None, :] - cross
        m = float(np.abs(res).max())
        if m > worst:
            worst = m
    return worst


def symmetry_defect(p: RoughPath) -> float:
    """Max over pairs of |Sym(second) - (1/2) dB (x) dB| (geometric identity),
    which is half the largest realized bracket."""
    i, j, _ = _pairs(p)
    return 0.5 * float(np.abs(p.bracket(i, j)).max())


@dataclass(frozen=True)
class HolderReport:
    """Grid-restricted Holder seminorms of a lift at exponent alpha."""

    alpha: float
    first_seminorm: float
    second_seminorm: float


def _check_alpha(alpha: float):
    if not (0.0 < alpha <= 0.5):
        raise InputError(f"alpha must lie in (0, 1/2], got {alpha}")


def holder_report(p: RoughPath, alpha: float = 0.45) -> HolderReport:
    _check_alpha(alpha)
    i, j, gaps = _pairs(p)
    first = np.linalg.norm(p.increment(i, j), axis=-1) / gaps ** alpha
    second = (
        np.linalg.norm(p.second(i, j).reshape(len(i), -1), axis=-1)
        / gaps ** (2 * alpha)
    )
    return HolderReport(alpha, float(first.max()), float(second.max()))


def rho_alpha(p: RoughPath, q: RoughPath, alpha: float = 0.45) -> float:
    """Grid-restricted rough-path distance: alpha-Holder gap of the first
    level plus 2*alpha-Holder gap of the second level."""
    _check_alpha(alpha)
    if p.grid != q.grid or p.dim != q.dim:
        raise InputError("rough paths must share grid and dimension")
    i, j, gaps = _pairs(p)
    gap = p.first_level - q.first_level
    first = np.linalg.norm(gap[j] - gap[i], axis=-1) / gaps ** alpha
    dbb = p.second(i, j) - q.second(i, j)
    second = (
        np.linalg.norm(dbb.reshape(len(i), -1), axis=-1)
        / gaps ** (2 * alpha)
    )
    return float(first.max() + second.max())


def from_dense(grid: TimeGrid, first: np.ndarray, second: np.ndarray,
               mode: str) -> RoughPath:
    """Compact lift from B (N+1, k) and the container's dense pair array
    (N+1, N+1, k, k), entry [i, j] the iterated integral over [t_i, t_j] for
    i < j.  The prefix sums come from row 0, S_j = second[0, j] + B_0 (x)
    (B_j - B_0); a pair whose Chen residual against them exceeds
    1e-12 (1 + max |dB|^2) raises InputError naming the worst pair."""
    if not np.isfinite(second).all():
        raise InputError("non-finite entries in rough path")
    prefix = second[0] + first[0][:, None] * (first - first[0])[:, None, :]
    p = RoughPath(grid, first, prefix, mode)
    i, j, _ = _pairs(p)
    res = np.abs(second[i, j] - p.second(i, j)).max(axis=(-2, -1))
    tol = 1e-12 * (1.0 + np.abs(p.increments()).max() ** 2)
    worst = int(np.argmax(res))
    if res[worst] > tol:
        raise InputError(
            f"second level breaks Chen's relation at node pair"
            f" ({i[worst]}, {j[worst]}): residual {res[worst]:.3e} > {tol:.3e}"
        )
    return p


_MODE_CODE = {BRACKET_ITO: 0, BRACKET_GEOMETRIC: 1}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}


def read_exact(fp, nbytes: int, what: str) -> bytes:
    """Read nbytes of a binary container; a short read raises InputError."""
    data = fp.read(nbytes)
    if len(data) != nbytes:
        raise InputError(f"truncated container: {what} needs {nbytes} bytes, got {len(data)}")
    return data


def dump(p: RoughPath, fp) -> None:
    """Write the binary container: magic, version, k, N, T, mode, B, and the
    dense pair array (iterated integral at [i, j] for i < j, zero elsewhere)."""
    n = p.grid.steps + 1
    second = np.zeros((n, n, p.dim, p.dim))
    i, j, _ = _pairs(p)
    second[i, j] = p.second(i, j)
    fp.write(_MAGIC)
    fp.write(struct.pack("<I", _FORMAT_VERSION))
    fp.write(struct.pack("<II", p.dim, p.grid.steps))
    fp.write(struct.pack("<d", p.grid.horizon))
    fp.write(struct.pack("<B", _MODE_CODE[p.bracket_mode]))
    fp.write(np.ascontiguousarray(p.first_level, dtype="<f8").tobytes())
    fp.write(np.ascontiguousarray(second, dtype="<f8").tobytes())


def load(fp) -> RoughPath:
    if fp.read(4) != _MAGIC:
        raise InputError("not a rough-path container (bad magic)")
    version, k, n, horizon, code = struct.unpack("<IIIdB", read_exact(fp, 21, "header"))
    if version != _FORMAT_VERSION:
        raise InputError(f"unsupported container version {version}")
    if code not in _CODE_MODE:
        raise InputError(f"unknown bracket mode code {code}")
    grid = TimeGrid(horizon, n)
    first = np.frombuffer(read_exact(fp, 8 * (n + 1) * k, "first level"), "<f8")
    second = np.frombuffer(read_exact(fp, 8 * (n + 1) ** 2 * k**2, "second level"), "<f8")
    return from_dense(grid, first.reshape(n + 1, k).copy(),
                      second.reshape(n + 1, n + 1, k, k), _CODE_MODE[code])


def dump_path(p: RoughPath, path) -> None:
    with open(path, "wb") as fp:
        dump(p, fp)


def load_path(path) -> RoughPath:
    with open(path, "rb") as fp:
        return load(fp)
