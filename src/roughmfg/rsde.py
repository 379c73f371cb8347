"""Forward solver for the controlled rough state dynamics, with monitors.

The state recursion per particle is

    X_{n+1} = X_n + b_bar dt + sigma dW_n + f(X_n) dB_n + fhat(X_n) BB_n

where (f, f') is the interaction coefficient built from the frozen measure
flow, fhat = grad(f) f + f' is the second-level correction, and b_bar
averages the drift over the policy's action mixture.  The same recursion,
restarted from a frozen node with fresh idiosyncratic draws, provides the
conditional continuations that feed the norm estimators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import controlled as ct
from . import models
from . import vectorfield as vf
from .rng import substream
from .roughpath import InputError, RoughPath

BLOWUP_THRESHOLD = 1e6
INNER_SALT = 1  # stream salt of the continuations' idiosyncratic draws
ANCHOR_PAIRS = 4  # anchors of the martingale battery's residual regressions


class DivergedError(RuntimeError):
    """A state left the blow-up threshold.  anchor is the node a two-level
    continuation started from, sample the common-noise sample of a bridge
    pipeline and sweep the per-sample consistency sweep whose inner solve
    blew up, each None elsewhere; particle counts within the sample (within
    the sweep's inner particles for a sweep)."""

    def __init__(self, step, particle, worst, anchor=None, sample=None,
                 sweep=None):
        which = "" if sample is None else f"sample {sample}, "
        where = "" if anchor is None else f" in the continuation from anchor node {anchor}"
        if sweep is not None:
            where += f" in consistency sweep {sweep}"
        super().__init__(
            f"state blew up at step {step}, {which}particle {particle}{where}"
            f" (|X| = {worst:.3g})"
        )
        self.step = step
        self.particle = particle
        self.worst = worst
        self.anchor = anchor
        self.sample = sample
        self.sweep = sweep


def _blowup_row(x):
    """Index of the first row of x (P, d) that is NaN or beyond the blow-up
    threshold, or None."""
    if np.abs(x).max() <= BLOWUP_THRESHOLD:  # false for NaN
        return None
    return int((~(np.abs(x) <= BLOWUP_THRESHOLD).all(axis=-1)).argmax())


def check_blowup(x, step):
    """Raise DivergedError when a state in x (P, d) is NaN or beyond the
    blow-up threshold, naming the first such particle."""
    i = _blowup_row(x)
    if i is not None:
        raise DivergedError(step, i, float(np.abs(x[i]).max()))


class CausalityViolationError(RuntimeError):
    pass


@dataclass(frozen=True)
class InitialLaw:
    """Initial sample spec: i.i.d. draws, independent of controls and noise."""

    kind: str = "normal"
    mean: float = 0.0
    spread: float = 1.0

    def sample(self, rng, count, dim) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(self.mean, self.spread, size=(count, dim))
        if self.kind == "constant":
            return np.full((count, dim), self.mean)
        if self.kind == "uniform":
            half = self.spread / 2.0
            return rng.uniform(self.mean - half, self.mean + half, size=(count, dim))
        raise InputError(f"unknown initial law {self.kind!r}")


def draw_wiener(seed, count, steps, dim, dt, *extra) -> np.ndarray:
    """Idiosyncratic increments, one row per particle; keyed so that any
    consumer can regenerate the identical block."""
    rng = substream(seed, "rsde", "W", *extra)
    return rng.normal(0.0, math.sqrt(dt), size=(count, steps, dim))


def draw_initial(seed, init: InitialLaw, count, dim, *extra) -> np.ndarray:
    if count < 1:
        raise InputError(f"need at least one particle, got {count}")
    return init.sample(substream(seed, "rsde", "X0", *extra), count, dim)


class WPrefixView:
    """Read guard handed to causal policies: exposes the idiosyncratic path
    only up to the current step and logs the deepest node accessed."""

    def __init__(self, increments: np.ndarray, limit: int):
        self._increments = increments
        self.limit = limit
        self.max_accessed = -1

    def increments(self, upto: int | None = None) -> np.ndarray:
        upto = self.limit if upto is None else upto
        if upto > self.limit:
            raise CausalityViolationError(
                f"policy requested increments up to step {upto},"
                f" only {self.limit} realized"
            )
        self.max_accessed = max(self.max_accessed, upto)
        return self._increments[:, :upto]

    def path(self, node: int) -> np.ndarray:
        """W at a grid node (cumulative from zero)."""
        if node > self.limit:
            raise CausalityViolationError(
                f"policy requested W at node {node}, only {self.limit} realized"
            )
        self.max_accessed = max(self.max_accessed, node)
        if node == 0:
            return np.zeros_like(self._increments[:, 0])
        return self._increments[:, :node].sum(axis=1)


@dataclass
class RsdeSolution:
    """Solved ensemble plus the inputs needed to replay or continue it.

    ensemble holds (X, f(X)) and fhat (P, N+1, d, k, k) the correction
    grad(f) f + f' at every node, as the step evaluated them; without a
    rough coefficient f(X) is zero and fhat is None.  sampled_actions (P, N)
    are a causal realization's draws; a feedback policy's weights are
    policy.mixture(np.arange(N), Z[:, :-1]).
    """

    ensemble: ct.ControlledEnsemble
    coeffs: object
    flow: object
    rough: RoughPath
    policy: object
    seed: int
    W_increments: np.ndarray
    sampled_actions: np.ndarray | None
    cvf: vf.ControlledVectorField | None
    correction: object | None
    fhat: np.ndarray | None
    audit_log: list | None = None

    @property
    def grid(self):
        return self.ensemble.grid

    def sigma0_ensemble(self) -> ct.ControlledEnsemble:
        """(coefficient along the path, its correction along the path): the
        pair the recursion evaluated, read from the solution's slots."""
        if self.cvf is None:
            raise InputError("solution has no rough coefficient")
        return ct.ControlledEnsemble(self.grid, self.ensemble.Zp, self.fhat)

    def first_rows(self, count: int) -> "RsdeSolution":
        """The solve of the same inputs with the first `count` particles.

        draw_initial and draw_wiener fill rows in C order, and each row's
        recursion reads only its own row, the flow and the policy, so the
        first rows of a solve are bitwise the solve with fewer particles.
        Z, Zp, fhat and W are copied, so this solution holds none of the
        rows after them.  Not for a causal realization, whose action draws
        share one exogenous stream."""
        if self.sampled_actions is not None:
            raise InputError("a causal realization has no row slice")
        if not 1 <= count <= self.ensemble.particles:
            raise InputError(
                f"need 1 to {self.ensemble.particles} rows, got {count}"
            )

        def head(a):
            return None if a is None else a[:count].copy()

        ens = self.ensemble
        return replace(
            self,
            ensemble=ct.ControlledEnsemble(ens.grid, head(ens.Z), head(ens.Zp)),
            W_increments=head(self.W_increments),
            fhat=head(self.fhat),
        )

    def _inner_increments(self, rows, s_idx, stop=None, draws=None):
        """Idiosyncratic increments of the continuations from node s_idx,
        drawn to the end of the grid and returned up to node stop (by
        default the end).

        draws, a dict the caller owns, keeps each block it is handed up to
        its stop, read-only, under everything draw_wiener reads plus the
        stop; a later request for the same key takes the kept block instead
        of drawing it again."""
        args = (self.seed, rows, self.grid.steps - s_idx, self.coeffs.l,
                self.grid.dt, "inner", INNER_SALT, s_idx)
        stop = self.grid.steps if stop is None else stop
        key = args + (stop,)
        if draws is not None and key in draws:
            return draws[key]
        block = draw_wiener(*args)[:, : stop - s_idx]
        if draws is not None:
            block = block.copy()
            block.flags.writeable = False
            draws[key] = block
        return block

    def _require_feedback(self):
        if self.policy is not None and getattr(self.policy, "mode", "feedback") != "feedback":
            raise InputError("conditional resampling needs a feedback policy")

    def make_resampler(self, which: str = "state"):
        """Two-level Monte Carlo continuations of one anchor at a time.

        which="state" yields futures of (X, f(X)); which="sigma0" yields
        futures of (f(X), fhat(X)).  Continuations freeze each particle at
        the anchor node and redraw the idiosyncratic noise; flow, lift and
        policy stay frozen.  Each future is the solution's own prefix before
        the anchor spliced to the continuation's slots from the anchor on.
        Feedback/mixture policies only.  The norm estimators use
        continuation_moments, which runs the same continuations for many
        anchors in one pass; this per-anchor form is its reference.
        """
        self._require_feedback()
        if which not in ("state", "sigma0"):
            raise InputError(f"unknown resampler target {which!r}")
        if which == "sigma0" and self.cvf is None:
            raise InputError("solution has no rough coefficient")

        def resample(s_idx, n_inner):
            p_count = self.ensemble.particles
            dw = self._inner_increments(p_count * n_inner, s_idx)
            xc, fc, fhatc = _evolve(
                self.coeffs,
                self.flow,
                self.rough,
                self.policy,
                np.repeat(self.ensemble.Z[:, s_idx], n_inner, axis=0),
                dw,
                self.cvf,
                self.correction,
                start=s_idx,
            )

            def splice(prefix, cont):
                out = np.empty((p_count, n_inner) + prefix.shape[1:])
                out[:, :, :s_idx] = prefix[:, None, :s_idx]
                out[:, :, s_idx:] = cont.reshape(out[:, :, s_idx:].shape)
                return out

            if which == "sigma0":
                return splice(self.ensemble.Zp, fc), splice(self.fhat, fhatc)
            return splice(self.ensemble.Z, xc), splice(self.ensemble.Zp, fc)

        return resample

    def continuation_moments(self, anchors, stops, n_inner: int, m: int,
                             n_mode: str = ct.N_INFTY, targets=None,
                             draws=None):
        """Conditional moments for the two-level norm estimators, from one
        grouped pass over the grid.

        Group g freezes every particle at node anchors[g] and continues it
        n_inner times with fresh idiosyncratic noise to node stops[g]; flow,
        lift and policy stay frozen.  These are make_resampler's
        continuations (default salt), on the same random numbers: the
        "inner" block keyed by the anchor is drawn at full length, and only
        its columns up to the stop are used.  draws, a dict the caller
        owns, keeps those columns of each block, so that passes over
        solutions of one seed, particle count and grid draw each anchor's
        block once (common random numbers); without it nothing is kept
        past the pass.  At node n the active groups, those with
        anchors[g] <= n <= stops[g], advance together: one coefficient,
        correction, policy and drift call per node on all their rows.  The
        estimator's per-node statistics (ct.node_moments, one call per
        node for every target) are folded into the pass, so only the
        current rows, the anchor values, the increments not yet consumed
        and the tables are kept.  Anchors must increase and stops must not
        decrease, so the active rows are one contiguous block.

        The groups that step change only at anchors and stops, the cut
        nodes.  A group's block is cut, when it is drawn, into time-major
        (len, rows, l) pieces between the cut nodes it spans; at each cut
        node the stepping groups' pieces are joined into one array, whose
        slices are the nodes' increments, and the pieces are dropped.  Each
        node reads the draw's own numbers, so the continuations are bitwise
        make_resampler's; node_moments states where its statistics are
        bitwise the per-target np.linalg.norm and np.mean ones.

        Returns {"state": moments of (X, f(X)), "sigma0": moments of
        (f(X), fhat(X))}, each a ct.ConditionalMoments with (G, N+1)
        tables, for the requested targets: by default every target the
        solution has, "sigma0" only with a rough coefficient.  Only the
        requested tables are built and only the slots they read are held
        at the anchors; without "sigma0" no fhat is held (the step still
        evaluates it).  An unknown target, "sigma0" without a rough
        coefficient, a moment order below 2 or an unknown n_mode raises
        InputError before any continuation runs.  A continuation that
        blows up raises DivergedError naming the step, the outer particle
        and the anchor.
        """
        self._require_feedback()
        anchors = [int(a) for a in anchors]
        stops = [int(e) for e in stops]
        n_groups, steps = len(anchors), self.grid.steps
        if n_groups == 0:
            raise InputError(f"need at least one anchor, got anchors={anchors}")
        if len(stops) != n_groups:
            raise InputError(
                f"need one stop per anchor, got stops={stops} for anchors={anchors}"
            )
        if n_inner < 1:
            raise InputError(f"need at least one inner sample, got n_inner={n_inner}")
        if not (0 <= anchors[0] and stops[-1] <= steps
                and all(a < e for a, e in zip(anchors, stops))
                and all(a < b for a, b in zip(anchors, anchors[1:]))
                and all(e <= f for e, f in zip(stops, stops[1:]))):
            raise InputError(
                "anchors must increase and stops must not decrease, each stop"
                f" past its anchor and within the grid of {steps} steps"
            )
        if m < 2:
            raise InputError(f"moment order must be >= 2, got {m}")
        if n_mode not in (ct.N_INFTY, ct.N_EQ_M):
            raise InputError(f"unknown n mode {n_mode!r}")
        coeffs, cvf, rough = self.coeffs, self.cvf, self.rough
        p_count, d, k = self.ensemble.particles, coeffs.d, rough.dim
        rows = p_count * n_inner
        nodes = self.grid.nodes
        db = rough.increments()
        bb = rough.step_second()
        # slots x, f(x), fhat(x); a target is a (Z, Z') pair of slots
        pairs = {"state": (0, 1)} if cvf is None else {"state": (0, 1), "sigma0": (1, 2)}
        if targets is None:
            targets = tuple(pairs)
        for t in targets:
            if t == "sigma0" and cvf is None:
                raise InputError("solution has no rough coefficient")
            if t not in pairs:
                raise InputError(f"unknown continuation target {t!r}")
        if not targets:
            raise InputError("need at least one continuation target")
        targets = {t: pairs[t] for t in targets}
        held_slots = max(j for _, j in targets.values()) + 1
        shapes = [(d,), (d, k), (d, k, k)][:held_slots]
        anchor = [np.empty((n_groups * rows,) + shape) for shape in shapes]
        tables = {t: np.full((3, n_groups, steps + 1), np.nan) for t in targets}
        x = np.empty_like(anchor[0])
        cut_nodes = set(anchors) | set(stops)
        pieces = [None] * n_groups  # per group, its pieces not yet joined
        dw = dw_node = None  # the stepping rows' increments from node dw_node
        lo = hi = 0  # the active groups are lo .. hi-1
        for n in range(anchors[0], stops[-1] + 1):
            while stops[lo] < n:
                lo += 1
            fresh = hi < n_groups and anchors[hi] == n
            if fresh:
                block = self._inner_increments(rows, n, stop=stops[hi], draws=draws)
                ends = sorted(c for c in cut_nodes if n <= c <= stops[hi])
                pieces[hi] = [block[:, a - n : b - n].transpose(1, 0, 2).copy()
                              for a, b in zip(ends, ends[1:])]
                del block  # only the pieces outlive the draw
                x[hi * rows : (hi + 1) * rows] = np.repeat(
                    self.ensemble.Z[:, n], n_inner, axis=0
                )
                hi += 1
            xa = x[lo * rows : hi * rows]
            pair = _pair(cvf, self.correction, n, xa)
            slots = [xa, *pair] if pair else [xa, np.zeros((len(xa), d, k))]
            if fresh:
                for held, now in zip(anchor, slots):
                    held[(hi - 1) * rows : hi * rows] = now[-rows:]
            done = hi - fresh  # groups lo .. done-1 have a target node at n
            if done > lo:
                cut = (done - lo) * rows

                def grouped(a):
                    return a.reshape((done - lo, p_count, n_inner) + a.shape[1:])

                held = [grouped(a[lo * rows : done * rows]) for a in anchor]
                now = [grouped(a[:cut]) for a in slots]
                inc = rough.increment(np.asarray(anchors[lo:done]), n)
                stats = ct.node_moments(held, now, inc, targets, m, n_mode)
                for t, table in tables.items():
                    table[:, lo:done, n] = stats[t]
            first = lo  # groups first .. hi-1 step on from n
            while first < hi and stops[first] == n:
                first += 1
            if first == hi:
                continue
            if n in cut_nodes:
                dw = None  # freed before the next segment is joined
                dw = np.concatenate([pieces[g].pop(0) for g in range(first, hi)],
                                    axis=1)
                dw_node = n
            run = slice((first - lo) * rows, None)
            nxt = _advance(coeffs, self.flow, self.policy, nodes, n, xa[run],
                           dw[n - dw_node], db[n : n + 1], bb[n : n + 1],
                           *(a[run] for a in pair))
            bad = _blowup_row(nxt)
            if bad is not None:
                g, r = divmod(bad, rows)
                raise DivergedError(n, r // n_inner, float(np.abs(nxt[bad]).max()),
                                    anchor=anchors[first + g])
            x[first * rows : hi * rows] = nxt
        return {
            t: ct.ConditionalMoments(anchors, stops, *tables[t], m=m,
                                     n_mode=n_mode, inner_samples=n_inner)
            for t in targets
        }


def _mixture_weights(policy, n, x, n_actions) -> np.ndarray:
    if policy is None:
        raise InputError("a policy is required (use a constant policy)")
    weights = policy.mixture(n, x)
    if weights.shape[-1] != n_actions:
        raise InputError(
            f"policy mixes {weights.shape[-1]} actions, model has {n_actions}"
        )
    return weights


def _drift_mixture(coeffs, t, x, cloud, weights) -> np.ndarray:
    """Policy-averaged drift of the states x (..., d) with weights (..., K);
    x and cloud may carry leading group axes (see models).  An action that
    some row weights is evaluated on every group and adds 0·b to the rest,
    which leaves their sums bitwise as long as b is finite there."""
    out = np.zeros_like(x)
    for a in range(coeffs.n_actions):
        w = weights[..., a]
        if not np.any(w):
            continue
        out += w[..., None] * coeffs.b(t, x, cloud, coeffs.actions[a])
    return out


def _step(coeffs, nodes, n, xn, cloud, drift, dw_n, db_n, bb_n, f_n=None,
          fhat_n=None):
    """One Euler-Davie step of the states xn (P, d) from node n: the drift
    (P, d), the idiosyncratic increments dw_n (P, l) and, with a rough
    coefficient, f_n dB + fhat_n BB from the pair evaluated at node n.

    The node's rough increments come one pair per group, db_n (G, k) and
    bb_n (G, k, k), for rows grouped contiguously into G equal blocks; a
    single path passes G = 1.  All three noise terms are einsum
    contractions: sigma dW over l, f dB over k, fhat BB over (i, j)."""
    t = nodes[n]
    nxt = xn + drift * (nodes[n + 1] - t)
    nxt = nxt + np.einsum("pdl,pl->pd", coeffs.sigma(t, xn, cloud), dw_n)
    if f_n is not None:
        groups, k = db_n.shape
        f_g = f_n.reshape((groups, -1) + f_n.shape[1:])
        fhat_g = fhat_n.reshape(groups, -1, k, k)
        nxt = nxt + np.einsum("gqdk,gk->gqd", f_g, db_n).reshape(nxt.shape)
        nxt = nxt + np.einsum("gqij,gij->gq", fhat_g, bb_n).reshape(nxt.shape)
    return nxt


def _pair(cvf, correction, n, x):
    """The rough terms _advance takes at node n on the states x: (f(x),
    grad(f) f + f'), or () without a rough coefficient."""
    if cvf is None:
        return ()
    f = cvf.f(n, x)
    return f, correction(n, x, f)


def _advance(coeffs, flow, policy, nodes, n, xn, dw_n, db_n, bb_n, f_n=None,
             fhat_n=None, actions=None):
    """The states after node n: the flow's cloud, the drift and _step, with
    the pair _pair evaluated on xn at node n.  The drift mixes the actions
    by the policy's weights or, given sampled actions (P,), takes each
    row's own action."""
    cloud = flow.cloud(n)
    if actions is None:
        weights = _mixture_weights(policy, n, xn, coeffs.n_actions)
        drift = _drift_mixture(coeffs, nodes[n], xn, cloud, weights)
    else:
        drift = np.zeros_like(xn)
        for a in range(coeffs.n_actions):
            mask = actions == a
            if np.any(mask):
                drift[mask] = coeffs.b(nodes[n], xn[mask], cloud, coeffs.actions[a])
    return _step(coeffs, nodes, n, xn, cloud, drift, dw_n, db_n, bb_n, f_n, fhat_n)


def _evolve(coeffs, flow, rough, policy, x0, dW, cvf, correction, start=0,
            causal=None):
    """Run the recursion from node `start` over dW.shape[1] steps.

    Returns (x, fx, fhat): the states (P, steps+1, d) and, at every node
    visited, the last included, the pair the step evaluates once and uses:
    fx = f(X) (P, steps+1, d, k) and fhat = grad(f) f + f' (P, steps+1, d,
    k, k).  Without a rough coefficient fx is zero and fhat is None.

    causal, when set, is (exo_rng, audit_list, actions_list) and switches
    to sampled open-loop actions fed only the W prefix; each step appends
    its access log and its actions (P,) to the lists.
    """
    nodes = flow.grid.nodes
    steps = dW.shape[1]
    p_count, d = x0.shape
    x = np.empty((p_count, steps + 1, d))
    x[:, 0] = x0
    fx = np.zeros((p_count, steps + 1, d, rough.dim))
    fhat = None if cvf is None else np.empty(fx.shape + (rough.dim,))
    db = rough.increments()
    bb = rough.step_second()
    actions = None
    for i in range(steps + 1):
        n = start + i
        xn = x[:, i]
        pair = _pair(cvf, correction, n, xn)
        if pair:
            fx[:, i], fhat[:, i] = pair
        if i == steps:
            break
        if causal is not None:
            exo_rng, audit, sampled = causal
            view = WPrefixView(dW, limit=n)
            actions = policy.sample_causal(n, view, exo_rng)
            audit.append({"step": n, "max_node_accessed": view.max_accessed})
            sampled.append(actions)
        nxt = _advance(coeffs, flow, policy, nodes, n, xn, dW[:, i], db[n : n + 1],
                       bb[n : n + 1], *pair, actions=actions)
        check_blowup(nxt, n)
        x[:, i + 1] = nxt
    return x, fx, fhat


def solve(coeffs, flow, p: RoughPath, policy, init: InitialLaw, particles: int,
          seed: int) -> RsdeSolution:
    """Simulate the state ensemble under a frozen flow, lift and policy."""
    return _solve(coeffs, flow, p, policy, init, particles, seed, audit=None)


def realize_from_measure(coeffs, flow, p, policy, init: InitialLaw,
                         particles: int, seed: int) -> RsdeSolution:
    """Solve under an open-loop causal policy; every control draw consumes
    only the realized W prefix plus an exogenous stream, and the audit log
    records the deepest node each draw touched."""
    if getattr(policy, "mode", None) != "open_loop_causal":
        raise InputError("causal realization needs an open-loop causal policy")
    sol = _solve(coeffs, flow, p, policy, init, particles, seed, audit=[])
    for entry in sol.audit_log:
        if entry["max_node_accessed"] > entry["step"]:
            raise CausalityViolationError(
                f"draw at step {entry['step']} touched node"
                f" {entry['max_node_accessed']}"
            )
    return sol


def _rough_coefficient(coeffs, flow):
    """(cvf, correction): the interaction coefficient along the frozen flow
    and its second-level correction, or (None, None) without a rough term."""
    if coeffs.sigma0 is None:
        return None, None
    cvf = vf.build_cvf_from_flow(coeffs, flow)
    return cvf, vf.gubinelli_correction(cvf)


def _solve(coeffs, flow, p, policy, init, particles, seed, audit):
    """Shared body of solve and realize_from_measure; a list `audit` switches
    to sampled causal actions and receives the access log."""
    if flow.grid != p.grid:
        raise InputError("flow and rough path live on different grids")
    cvf, correction = _rough_coefficient(coeffs, flow)
    x0 = draw_initial(seed, init, particles, coeffs.d)
    dw = draw_wiener(seed, particles, p.grid.steps, coeffs.l, p.grid.dt)
    causal = None if audit is None else (substream(seed, "rsde", "exo"), audit, [])
    x, fx, fhat = _evolve(coeffs, flow, p, policy, x0, dw, cvf, correction,
                          causal=causal)
    return RsdeSolution(
        ensemble=ct.ControlledEnsemble(p.grid, x, fx),
        coeffs=coeffs,
        flow=flow,
        rough=p,
        policy=policy,
        seed=seed,
        W_increments=dw,
        sampled_actions=None if causal is None else np.stack(causal[2], axis=1),
        cvf=cvf,
        correction=correction,
        fhat=fhat,
        audit_log=audit,
    )


def bridge_refine(dw: np.ndarray, dt: float, seed, *salt) -> np.ndarray:
    """Split each increment in two by a Brownian-bridge midpoint: the halves
    sum to the parent exactly, each carries half its variance, and they are
    conditionally independent given the parent."""
    p_count, steps, dim = dw.shape
    rng = substream(seed, "bridge", *salt)
    xi = rng.normal(0.0, math.sqrt(dt / 4.0), size=(p_count, steps, dim))
    out = np.empty((p_count, 2 * steps, dim))
    out[:, 0::2] = 0.5 * dw + xi
    out[:, 1::2] = 0.5 * dw - xi
    return out


# -- martingale diagnostics ---------------------------------------------------


def _bump3(u):
    """Compactly supported C^2 bump (1-u^2)^3 on |u|<1 with two derivatives."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    s = np.where(inside, 1.0 - u**2, 0.0)
    val = s**3
    d1 = np.where(inside, -6.0 * u * s**2, 0.0)
    d2 = np.where(inside, -6.0 * s**2 + 24.0 * u**2 * s, 0.0)
    return val, d1, d2


def _factor(spec, u):
    """Bump, polynomial, first and second derivative of one factor
    bump(u/r)·(u - center)^power; spec None is the constant factor 1."""
    if spec is None:
        zero = np.zeros(np.shape(u))
        return 1.0, 1.0, zero, zero
    radius, center, power = spec
    c, c1, c2 = _bump3(u / radius)
    if power == 0:
        return c, 1.0, c1 / radius, c2 / radius**2
    v = u - center
    if power == 1:
        return c, v, c + v * c1 / radius, 2.0 * c1 / radius + v * c2 / radius**2
    return (c, v**2, 2.0 * v * c + v**2 * c1 / radius,
            2.0 * c + 4.0 * v * c1 / radius + v**2 * c2 / radius**2)


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function phi(x, w) = x_factor(x)·w_factor(w) for
    d = l = 1.  A factor is a spec (radius, center, power) for
    bump(u/radius)·(u - center)^power with power 0, 1 or 2, or None for
    the constant 1."""

    name: str
    x_factor: tuple | None
    w_factor: tuple | None

    @property
    def depends_x(self) -> bool:
        return self.x_factor is not None

    @property
    def depends_w(self) -> bool:
        return self.w_factor is not None

    def parts(self, x, w):
        """(value, grad_x, grad_w, hess_xx, hess_xw, hess_ww) on arrays of
        any shape."""
        bx, px, gx, hx = _factor(self.x_factor, x)
        bw, pw, gw, hw = _factor(self.w_factor, w)
        zero = np.zeros(np.shape(x))
        # left to right: grouping (bx·px)·(bw·pw) moves the last bits
        value = np.ones(np.shape(x)) * bx * px * bw * pw
        if not self.depends_w:
            return value, gx, zero, hx, zero, zero
        if not self.depends_x:
            return value, zero, gw, zero, zero, hw
        vx, vw = bx * px, bw * pw
        return value, gx * vw, vx * gw, hx * vw, gx * gw, vx * hw


def pure_w_bump(radius=3.0):
    """Plain compact bump in w alone (no polynomial): the refinement rate
    check of the Brownian characterization uses this one."""
    return TestFunction("pure_w_bump", None, (radius, 0.0, 0))


def default_battery(radius_x=6.0, radius_w=14.0):
    """Constant, coordinate bump, offset quadratic bump, W coordinate bump,
    mixed X-W bump (all compact bumps times polynomials).

    The radii are wide relative to the diffusive range: the bump's third
    derivative enters the quadratic-variation bias of the discretized
    process with the noise loading, and tight bumps push the level-0.01
    tests off size once the Monte Carlo error drops below that bias
    (bias/error grows like sqrt(particles * dt)).  The quadratic is offset
    so its curvature-to-slope ratio stays small on the bulk of the state
    distribution; otherwise the O(dt) bias of the realized quadratic
    variation dominates the Monte Carlo error at large particle counts.
    """
    return [
        TestFunction("constant", None, None),
        TestFunction("x_bump", (radius_x, 0.0, 1), None),
        TestFunction("x_quad", (radius_x, -2.0, 2), None),
        TestFunction("w_bump", None, (radius_w, 0.0, 1)),
        TestFunction("xw_mixed", (radius_x, -2.0, 1), (radius_w, -2.0, 1)),
    ]


@dataclass
class PhiDiagnostics:
    name: str
    exact_zero: bool
    residual_tstats: list
    residual_pass: bool
    qv_tstat: float
    qv_pass: bool


@dataclass
class MartingaleDiagnostics:
    level: float
    particles: int
    low_power: bool
    per_phi: list
    cross: list  # (name_x, name_w, tstat, passed)

    @property
    def all_pass(self) -> bool:
        return all(e.residual_pass and e.qv_pass for e in self.per_phi) and all(
            c[3] for c in self.cross
        )


def _martingale_paths(sol):
    """Shared per-call tables for d = l = 1: states x (P, N+1), the W path
    (P, N+1), the noise loading sigma at nodes 0..N-1 (P, N), and the
    mixed drift at nodes 0..N-1 (P, N), None for a causal policy: one sigma
    call, one mixture call and one drift mixture, the nodes as groups."""
    coeffs, steps = sol.coeffs, np.arange(sol.grid.steps)
    x = sol.ensemble.Z[..., 0]
    wpath = np.concatenate(
        [np.zeros((x.shape[0], 1)), np.cumsum(sol.W_increments[..., 0], axis=1)],
        axis=1,
    )
    t, xn, cloud = (models.node_time(sol.grid.nodes, steps),
                    sol.ensemble.Z[:, :-1].swapaxes(0, 1), sol.flow.cloud(steps))
    sig = models.grouped_call(coeffs, "sigma", coeffs.sigma, t, xn, cloud)
    drift = None
    if sol.policy.mode == "feedback":
        weights = sol.policy.mixture(steps, sol.ensemble.Z[:, :-1]).swapaxes(0, 1)
        mixed = functools.partial(_drift_mixture, coeffs)
        drift = models.grouped_call(coeffs, "b", mixed, t, xn, cloud, weights)
        drift = np.ascontiguousarray(drift[..., 0].T)
    return x, wpath, np.ascontiguousarray(sig[..., 0, 0].T), drift


def _compensated(sol, phi, paths):
    """Increments of the compensated process of one test function and its
    noise loadings grad_x·sigma and grad_w, each (P, N), from one
    evaluation of phi on the whole (P, N+1) grid."""
    x, wpath, sig, drift = paths
    if drift is None and phi.depends_x:
        raise InputError("diagnostics need a feedback policy, not a causal one")
    val, *derivs = phi.parts(x, wpath)
    gx, gw, hxx, hxw, hww = (a[:, :-1] for a in derivs)
    if not phi.depends_x:
        drift = np.zeros_like(sig)
    comp = (drift * gx + 0.5 * (sig**2 * hxx + hww) + sig * hxw) * sol.grid.dt
    if sol.cvf is not None and phi.depends_x:
        db = sol.rough.increments()[:, 0]
        bb = sol.rough.step_second()[:, 0, 0]
        brackets = sol.rough.step_brackets()[:, 0, 0]
        s0 = sol.ensemble.Zp[:, :-1, 0, 0]
        shat = sol.fhat[:, :-1, 0, 0, 0]
        comp += gx * s0 * db + (hxx * s0**2 + gx * shat) * bb
        # second-order bracket correction of the rough term
        comp += 0.5 * hxx * s0**2 * brackets
    return val[:, 1:] - val[:, :-1] - comp, gx * sig, gw


def _qv_gap(dm, load_x, load_w, dt):
    return (dm**2).sum(axis=1) - ((load_x + load_w) ** 2 * dt).sum(axis=1)


def _tstat(sample):
    sd = sample.std(ddof=1)
    return 0.0 if sd == 0.0 else float(sample.mean() / (sd / math.sqrt(len(sample))))


def qv_gap(sol: RsdeSolution, phi: TestFunction) -> np.ndarray:
    """Per-particle gap between the realized quadratic variation of the
    compensated process and the integrated squared loading.  Under grid
    refinement its spread shrinks like sqrt(dt)."""
    return _qv_gap(*_compensated(sol, phi, _martingale_paths(sol)), sol.grid.dt)


def martingale_diagnostics(sol: RsdeSolution, phis=None,
                           level: float = 0.01) -> MartingaleDiagnostics:
    """Statistical checks of the compensated-process structure.

    (a) conditional-mean residuals: increments of the compensated process
    regressed on frozen-time features must have zero mean; (b) realized
    quadratic variation against the integrated squared noise loading; (c)
    realized cross variation between state and noise test functions against
    the integrated product of loadings.  Pass flags compare |t| to the
    two-sided critical value at `level` (Bonferroni within each family).
    """
    from scipy import special  # slow to import

    if sol.coeffs.d != 1 or sol.coeffs.l != 1:
        raise InputError("the default diagnostics battery needs d = l = 1")
    if phis is None:
        phis = default_battery()
    grid = sol.grid
    p_count = sol.ensemble.particles
    paths = _martingale_paths(sol)
    x, wpath = paths[0], paths[1]
    t_crit = special.stdtrit(p_count - 1, 1.0 - 0.5 * level)

    anchors = sorted({int(a) for a in np.linspace(0, grid.steps // 2, ANCHOR_PAIRS)})
    spans = [max(1, grid.steps // 4), max(1, grid.steps // 2)]

    per_phi = []
    compensated = {}
    for phi in phis:
        dm, load_x, load_w = compensated[phi.name] = _compensated(sol, phi, paths)
        if np.all(dm == 0.0):
            per_phi.append(
                PhiDiagnostics(phi.name, True, [0.0], True, 0.0, True)
            )
            continue
        m_cum = np.concatenate(
            [np.zeros((p_count, 1)), np.cumsum(dm, axis=1)], axis=1
        )
        # (a) orthogonality to frozen-time features
        tstats = []
        for s in anchors:
            bump_s, _, _ = _bump3(x[:, s] / 3.0)
            for span in spans:
                t_end = min(grid.steps, s + span)
                if t_end <= s:
                    continue
                window = m_cum[:, t_end] - m_cum[:, s]
                for feat in (np.ones(p_count), x[:, s], wpath[:, s], bump_s):
                    prod = window * feat
                    if prod.std(ddof=1) != 0.0:
                        tstats.append(_tstat(prod))
        n_tests = max(1, len(tstats))
        crit = special.ndtri(1.0 - 0.5 * level / n_tests)
        residual_pass = all(abs(t) < crit for t in tstats)
        # (b) realized quadratic variation vs integrated loading
        qv_t = _tstat(_qv_gap(dm, load_x, load_w, grid.dt))
        per_phi.append(
            PhiDiagnostics(
                phi.name, False, tstats, residual_pass, qv_t, abs(qv_t) < t_crit
            )
        )

    # (c) cross variation between x-only and w-only test functions; the
    # target is summed in grid order
    cross = []
    x_phis = [f for f in phis if f.depends_x and not f.depends_w]
    w_phis = [f for f in phis if f.depends_w and not f.depends_x]
    for fx in x_phis:
        for fw in w_phis:
            (dm_x, load_x, _), (dm_w, _, load_w) = compensated[fx.name], compensated[fw.name]
            realized = (dm_x * dm_w).sum(axis=1)
            target = np.cumsum(load_x * load_w * grid.dt, axis=1)[:, -1]
            t = _tstat(realized - target)
            cross.append((fx.name, fw.name, t, bool(abs(t) < t_crit)))

    return MartingaleDiagnostics(level, p_count, p_count < 100, per_phi, cross)


# -- a priori monitor ---------------------------------------------------------


@dataclass
class AprioriSnapshot:
    """Norm estimates of the solved pair against the coefficient-norm
    envelope const * max(1, field_norm)^exponent."""

    state_norm: ct.NormEstimate
    coeff_norm: ct.NormEstimate
    field_norm: float
    envelope: float
    const: float
    exponent: float
    flagged: bool


def apriori_monitor(sol: RsdeSolution, idx: ct.IndexPair, m: int = 4,
                    const: float = 20.0, exponent: float = 3.0,
                    probes: np.ndarray | None = None,
                    inner_samples: int = 4,
                    anchor_stride: int | None = None) -> AprioriSnapshot:
    """Estimate the solved-pair norms and compare them to the envelope.

    Both estimates, of (X, f(X)) and of (f(X), fhat(X)), read their
    conditional moments from one grouped continuation pass."""
    if sol.cvf is None:
        raise InputError("monitor needs a rough coefficient")
    if probes is None:
        z = sol.ensemble.Z
        probes = np.linspace(z.min(axis=(0, 1)) - 0.5, z.max(axis=(0, 1)) + 0.5, 17)
    field = vf.cvf_norm(sol.cvf, sol.rough, idx, probes).total
    anchors, stop = ct.anchor_nodes(sol.grid, None, anchor_stride)
    moments = sol.continuation_moments(anchors, [stop] * len(anchors),
                                       inner_samples, m)
    state = ct.estimate_norm(sol.ensemble, sol.rough, idx, m=m,
                             moments=moments["state"], anchor_stride=anchor_stride)
    coeff = ct.estimate_norm(sol.sigma0_ensemble(), sol.rough, idx, m=m,
                             moments=moments["sigma0"], anchor_stride=anchor_stride)
    envelope = const * max(1.0, field) ** exponent
    flagged = state.combined > envelope or coeff.combined > envelope
    return AprioriSnapshot(state, coeff, field, envelope, const, exponent, flagged)
