"""Best response, cost, exploitability, and the equilibrium fixed point.

The best response against a frozen flow and frozen lift is a classical
finite-horizon control problem: backward induction on a state lattice with
Gauss-Hermite quadrature for the idiosyncratic noise, the rough increments
entering as deterministic per-step forcing (first and second level).  The
fixed point is searched by damped iteration of

    flow  ->  best response  ->  solved ensemble  ->  its empirical flow

with three certificates per sweep: the sup-over-time W2 update distance, a
Monte Carlo exploitability bound, and the windowed-norm domain membership.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import controlled as ct
from . import measureflow as mf
from . import models
from . import rsde
from .roughpath import InputError, RoughPath
from .vectorfield import NumericError

FEEDBACK = "feedback"
OPEN_LOOP_CAUSAL = "open_loop_causal"
PILOT_PARTICLES = 128  # the pilot solve behind automatic lattice bounds


class LatticeEscapeError(RuntimeError):
    pass


class RelaxedPolicy:
    """Probability mixtures over a finite action set.

    Feedback mode stores a table pi(t_n, lattice node) -> K-vector; lookup at
    an off-lattice state uses the nearest node, which keeps the mixture an
    exact probability vector.  Open-loop causal mode wraps a sampler that is
    handed only the realized idiosyncratic prefix plus an exogenous stream.
    """

    def __init__(self, actions, mode=FEEDBACK, lattice=None, table=None,
                 sampler=None):
        self.actions = np.atleast_2d(np.asarray(actions, dtype=float).T).T
        if self.actions.ndim == 1:
            self.actions = self.actions[:, None]
        self.mode = mode
        self.lattice = None if lattice is None else np.asarray(lattice, dtype=float)
        self.table = None if table is None else np.asarray(table, dtype=float)
        self.sampler = sampler
        if mode == FEEDBACK:
            if self.table is None or self.lattice is None:
                raise InputError("feedback policy needs a lattice and a table")
            if (self.lattice.ndim != 1 or len(self.lattice) == 0
                    or not np.all(np.diff(self.lattice) > 0)):
                raise InputError("policy lattice must be strictly increasing")
            if self.table.ndim != 3 or self.table.shape[2] != self.n_actions:
                raise InputError(f"bad policy table shape {self.table.shape}")
            if self.table.min() < 0:
                raise InputError("negative policy probabilities")
            rowsum = self.table.sum(axis=2)
            if np.abs(rowsum - 1.0).max() > 1e-12:
                raise InputError("policy rows must sum to one within 1e-12")
            self._spacing = _uniform_spacing(self.lattice)
        elif mode == OPEN_LOOP_CAUSAL:
            if sampler is None:
                raise InputError("causal policy needs a sampler")
        else:
            raise InputError(f"unknown policy mode {mode!r}")

    @property
    def n_actions(self) -> int:
        return self.actions.shape[0]

    def _node_index(self, x) -> np.ndarray:
        """Nearest lattice node, the lower one on a tie; NaN maps to the
        last node.

        The nodes j - 1 and j compared are the bracket that holds x, the
        first or the last bracket for x off the lattice (searchsorted).  On
        a uniform lattice j comes from the spacing instead.  Its rounding
        error is below 2**-10 of a spacing (see _uniform_spacing), so it
        picks a neighbouring bracket only for x that close to the node the
        two brackets share, and both comparisons then return that node."""
        x = np.asarray(x)[..., 0]
        lat = self.lattice
        last = len(lat) - 1
        if last == 0:
            return np.zeros(x.shape, dtype=np.intp)
        if self._spacing is None:
            j = np.clip(np.searchsorted(lat, x), 1, last)
        else:
            # fmin before fmax sends NaN to the last bracket
            guess = np.floor((x - lat[0]) / self._spacing) + 1.0
            j = np.fmax(np.fmin(guess, last), 1.0).astype(np.intp)
        return j - (np.abs(x - lat[j - 1]) <= np.abs(x - lat[j]))

    def mixture(self, n, x: np.ndarray) -> np.ndarray:
        """Action mixture at step n for states x (P, d), shape (P, K); an
        array of steps broadcasts against x's leading axes, so that
        np.arange(N) with x (P, N, d) gives (P, N, K).

        The rows are gathered with take, from the step's table row for one
        step and from the flattened table for an array of steps: the same
        values as table[n, nodes], several times faster on large clouds."""
        if self.mode != FEEDBACK:
            raise InputError("mixture lookup needs a feedback policy")
        rows = self.table.shape[0]
        lo, hi = (n.min(), n.max()) if isinstance(n, np.ndarray) else (n, n)
        if lo < 0 or hi >= rows:
            bad = hi if hi >= rows else lo
            raise InputError(f"policy table has {rows} steps, step {bad} requested")
        idx = self._node_index(x)
        if not isinstance(n, np.ndarray):
            return self.table[n].take(idx, axis=0)
        flat = self.table.reshape(-1, self.n_actions)
        return flat.take(n * self.table.shape[1] + idx, axis=0)

    def same_feedback(self, other) -> bool:
        """True when both are feedback policies with equal actions, lattice
        and table, so that a solve under one is the solve under the other."""
        return (self.mode == FEEDBACK and other.mode == FEEDBACK
                and np.array_equal(self.actions, other.actions)
                and np.array_equal(self.lattice, other.lattice)
                and np.array_equal(self.table, other.table))

    def sample_causal(self, n: int, w_view, rng) -> np.ndarray:
        if self.mode != OPEN_LOOP_CAUSAL:
            raise InputError("causal sampling needs an open-loop causal policy")
        return np.asarray(self.sampler(n, w_view, rng), dtype=int)

    @classmethod
    def constant(cls, actions, steps, action_index=0, lattice=None):
        """Feedback policy putting mass one on a single action everywhere."""
        actions = np.asarray(actions, dtype=float)
        k = actions.shape[0]
        lattice = np.array([0.0]) if lattice is None else lattice
        table = np.zeros((steps, len(lattice), k))
        table[:, :, action_index] = 1.0
        return cls(actions, FEEDBACK, lattice, table)

    @classmethod
    def causal(cls, actions, sampler):
        return cls(actions, OPEN_LOOP_CAUSAL, sampler=sampler)


def _uniform_spacing(lattice) -> float | None:
    """The node spacing of a lattice equal to
    np.linspace(lattice[0], lattice[-1], len(lattice)), or None.  None as
    well for one node, and for nodes above 2**40 spacings in magnitude:
    below that, (x - lattice[0]) / spacing for x on the lattice is within
    2**-10 of x's position in spacings, node rounding included."""
    last = len(lattice) - 1
    if last == 0:
        return None
    lo, hi = lattice[0], lattice[-1]
    spacing = (hi - lo) / last
    if not max(abs(lo), abs(hi)) <= 2.0**40 * spacing < np.inf:
        return None
    if not np.array_equal(lattice, np.linspace(lo, hi, last + 1)):
        return None
    return spacing


@dataclass
class CostEstimate:
    value: float
    error_bar: float
    particles: int
    # the solve the estimate averages over; not part of equality
    solution: rsde.RsdeSolution | None = field(default=None, repr=False,
                                               compare=False)


def cost(coeffs, flow, p: RoughPath, policy, particles: int, seed: int,
         init: rsde.InitialLaw | None = None) -> CostEstimate:
    """Monte Carlo cost: running mixture cost plus terminal cost, with the
    sample standard error of the particle mean.  The running cost weighs the
    actions by the weights the solve stepped with, from one mixture call.
    The estimate carries that solve.  A standard error needs two particles,
    so fewer raises InputError before the solve; a non-finite total raises
    NumericError naming its particle."""
    if particles < 2:
        raise InputError(f"a standard error needs two particles, got {particles}")
    init = init or rsde.InitialLaw()
    sol = rsde.solve(coeffs, flow, p, policy, init, particles, seed)
    grid = sol.grid
    x = sol.ensemble.Z
    steps = np.arange(grid.steps)
    weights = policy.mixture(steps, x[:, :-1])  # (P, N, K)
    used = [a for a in range(coeffs.n_actions) if np.any(weights[..., a])]
    f = _per_action(coeffs, "f", models.node_time(grid.nodes, steps),
                    x[:, :-1].swapaxes(0, 1), flow.cloud(steps), used)
    totals = np.zeros(x.shape[0])
    for n in range(grid.steps):
        for a in used:
            w = weights[:, n, a]
            if np.any(w):
                totals += w * f[a][n] * grid.dt
    totals += coeffs.g(x[:, grid.steps], flow.cloud(grid.steps))
    _refuse_non_finite(totals, "cost: non-finite total", "particle")
    n_p = len(totals)
    return CostEstimate(float(totals.mean()),
                        float(totals.std(ddof=1) / math.sqrt(n_p)), n_p, sol)


def _per_action(coeffs, name, t, x, cloud, actions):
    """{a: coeffs.b or coeffs.f of action a} for a in actions, on node
    groups: states x (G, Q, d) against the nodes' clouds (G, P, d) at their
    times t (G, 1, 1), each call through models.grouped_call."""
    def call(a):
        return lambda t, x, mu: getattr(coeffs, name)(t, x, mu, coeffs.actions[a])

    return {a: models.grouped_call(coeffs, name, call(a), t, x, cloud) for a in actions}


@dataclass
class DpSettings:
    lattice_lo: float | None = None
    lattice_hi: float | None = None
    lattice_nodes: int = 101
    gh_order: int = 5
    strict: bool = False
    escape_tolerance: float = 0.05


@dataclass
class BestResponse:
    policy: RelaxedPolicy
    values: np.ndarray  # (N+1, nodes)
    lattice: np.ndarray
    escape_mass: float


def _auto_bounds(coeffs, flow, p, init, seed) -> tuple:
    """Pilot run under the uniform mixture; bounds cover the initial law and
    the pilot range by six standard deviations."""
    k = coeffs.n_actions
    lattice = np.array([0.0])
    table = np.full((p.grid.steps, 1, k), 1.0 / k)
    pilot_policy = RelaxedPolicy(coeffs.actions, FEEDBACK, lattice, table)
    sol = rsde.solve(coeffs, flow, p, pilot_policy, init, PILOT_PARTICLES, seed)
    x = sol.ensemble.Z[..., 0]
    sd = max(float(x.std(axis=0).max()), 1e-3)
    lo = min(float(x.mean(axis=0).min()), init.mean) - 6.0 * sd
    hi = max(float(x.mean(axis=0).max()), init.mean) + 6.0 * sd
    return lo, hi


def best_response(coeffs, flow, p: RoughPath, settings: DpSettings | None = None,
                  init: rsde.InitialLaw | None = None, seed: int = 0) -> BestResponse:
    """Backward induction on the lattice against the frozen flow and lift.

    Pure argmin policies: pointwise minimization over a finite action set
    always admits a pure minimizer; ties break to the lowest action index.
    None of the coefficients depends on the value function, so sigma, the
    rough pair and each action's b and f are tabulated on the lattice at
    every step, with the steps as groups, and the backward loop calls no
    model function.
    A non-finite terminal value or Q value raises NumericError naming the
    step, the lattice node and the action, also without settings.strict.
    """
    if coeffs.d != 1 or coeffs.l != 1:
        raise InputError("the lattice solver handles scalar state and noise")
    settings = settings or DpSettings()
    for name in ("lattice_nodes", "gh_order"):
        if getattr(settings, name) < 1:
            raise InputError(f"need {name} >= 1, got {getattr(settings, name)}")
    init = init or rsde.InitialLaw()
    if settings.lattice_lo is None or settings.lattice_hi is None:
        lo, hi = _auto_bounds(coeffs, flow, p, init, seed)
    else:
        lo, hi = settings.lattice_lo, settings.lattice_hi
    lattice = np.linspace(lo, hi, settings.lattice_nodes)
    grid = p.grid
    dt = grid.dt

    cvf, correction = rsde._rough_coefficient(coeffs, flow)
    db, bb = p.increments(), p.step_second()

    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(settings.gh_order)
    gh_w = gh_w / gh_w.sum()

    n_lat = len(lattice)
    steps = np.arange(grid.steps)
    xs = np.broadcast_to(lattice[:, None], (grid.steps, n_lat, 1))
    forcing = np.zeros((grid.steps, n_lat))
    # the pair first, so that its node-major copies of the flow and the
    # clouds below are not held at once
    if cvf is not None:
        fx, fhat = rsde._pair(cvf, correction, steps, xs)
        forcing = fx[..., 0, 0] * db[:, :1] + fhat[..., 0, 0, 0] * bb[:, 0, :1]
    t, clouds = models.node_time(grid.nodes, steps), flow.cloud(steps)
    sig = models.grouped_call(coeffs, "sigma", coeffs.sigma, t, xs, clouds)[..., 0, 0]
    actions = range(coeffs.n_actions)
    drift = _per_action(coeffs, "b", t, xs, clouds, actions)
    run = _per_action(coeffs, "f", t, xs, clouds, actions)

    values = np.empty((grid.steps + 1, n_lat))
    values[grid.steps] = coeffs.g(lattice[:, None], flow.cloud(grid.steps))
    _refuse_non_finite(values[grid.steps], "best response: non-finite terminal "
                       f"value at step {grid.steps}", "lattice node", step=grid.steps)
    table = np.zeros((grid.steps, n_lat, coeffs.n_actions))
    escaped = 0.0
    total_mass = 0.0
    for n in range(grid.steps - 1, -1, -1):
        q = np.empty((coeffs.n_actions, n_lat))
        for a in actions:
            base = lattice + drift[a][n, :, 0] * dt + forcing[n]
            nxt = base[:, None] + np.sqrt(dt) * sig[n, :, None] * gh_x[None, :]
            escaped += float((((nxt < lo) | (nxt > hi)) @ gh_w).sum())
            total_mass += n_lat
            ev = np.interp(nxt, lattice, values[n + 1]) @ gh_w
            q[a] = run[a][n] * dt + ev
        _refuse_non_finite(q, f"best response: non-finite Q value at step {n}",
                           "action", "lattice node", step=n)
        best = q.argmin(axis=0)
        values[n] = q[best, np.arange(n_lat)]
        table[n, np.arange(n_lat), best] = 1.0

    escape_rate = escaped / max(total_mass, 1.0)
    warned = escape_rate > settings.escape_tolerance
    if warned:
        msg = (
            f"quadrature mass escaped the lattice at rate {escape_rate:.2%}"
            f" (tolerance {settings.escape_tolerance:.0%}); widen the bounds"
        )
        if settings.strict:
            raise LatticeEscapeError(msg)
        warnings.warn(msg)
    policy = RelaxedPolicy(coeffs.actions, FEEDBACK, lattice, table)
    return BestResponse(policy, values, lattice, escape_rate)


def _refuse_non_finite(table, what, *axes, **known):
    """NumericError "what, <axis> <index>, ..." at table's first non-finite
    entry; its where holds known and each axis's index, under the axis name
    with underscores for spaces."""
    bad = ~np.isfinite(table)
    if bad.any():
        at = [int(i) for i in np.unravel_index(bad.argmax(), table.shape)]
        raise NumericError(", ".join([what, *(f"{a} {i}" for a, i in zip(axes, at))]),
                           {**known, **{a.replace(" ", "_"): i for a, i in zip(axes, at)}})


@dataclass
class ExploitabilityReport:
    value: float        # clipped at zero for reporting
    raw: float
    error_bar: float
    policy_cost: CostEstimate
    response_cost: CostEstimate
    best_response: BestResponse


def exploitability(coeffs, flow, p: RoughPath, policy, particles: int,
                   seed: int, settings: DpSettings | None = None,
                   init: rsde.InitialLaw | None = None) -> ExploitabilityReport:
    """Cost of the policy minus cost of the best response against the same
    frozen flow, on common random numbers.

    cost is deterministic in its arguments, so when the best response has
    the policy's actions, lattice and table (RelaxedPolicy.same_feedback)
    its cost is the policy cost, taken without a second solve, and raw is
    exactly zero.  The report keeps the best response it computed, and
    response_cost.solution is the solve of the best response's policy
    against this flow: the policy cost's solve when the two are the same
    feedback."""
    init = init or rsde.InitialLaw()
    c_pol = cost(coeffs, flow, p, policy, particles, seed, init)
    br = best_response(coeffs, flow, p, settings, init, seed)
    if br.policy.same_feedback(policy):
        c_br = c_pol
    else:
        c_br = cost(coeffs, flow, p, br.policy, particles, seed, init)
    raw = c_pol.value - c_br.value
    err = math.hypot(c_pol.error_bar, c_br.error_bar)
    return ExploitabilityReport(max(raw, 0.0), raw, err, c_pol, c_br, br)


@dataclass
class IterationRecord:
    index: int
    w2_update: float
    exploitability: float
    exploitability_raw: float
    exploitability_err: float
    escape_rate: float  # the sweep's best response escape_mass
    domain_member: bool | None  # None: no domain check ran
    domain_worst: float | None
    offending_window: tuple | None


@dataclass
class EquilibriumReport:
    iterations: list
    converged: bool
    converged_at: int | None
    tol_w2: float
    tol_exp: float
    seed: int


@dataclass
class FixedPointResult:
    report: EquilibriumReport
    flow: mf.MeasureFlow
    policy: RelaxedPolicy
    solution: rsde.RsdeSolution
    values: np.ndarray


def _phi_step(coeffs, flow, p, init, particles, seed, settings, br=None,
              sol=None):
    """One application of the equilibrium map: best response (br, when it
    is already known for this flow) then simulate (sol, when the solve of
    br's policy against this flow is already known)."""
    if br is None:
        br = best_response(coeffs, flow, p, settings, init, seed)
    if sol is None:
        sol = rsde.solve(coeffs, flow, p, br.policy, init, particles, seed)
    return br, sol, mf.from_solution(sol)


def fixed_point(
    coeffs,
    p: RoughPath,
    init: rsde.InitialLaw,
    particles: int,
    seed: int,
    lambda_mix: float = 1.0,
    max_iters: int = 20,
    tol_w2: float = 1e-3,
    tol_exp: float = 1e-2,
    settings: DpSettings | None = None,
    idx: ct.IndexPair | None = None,
    m: int = 4,
    domain_bound: float | None = None,
    domain_epsilon: float | None = None,
    domain_inner: int = 2,
    domain_windows: int = 8,
    exploit_particles: int | None = None,
) -> FixedPointResult:
    """Damped iteration of the equilibrium map with per-sweep certificates.

    The starting flow is the image of a frozen initial cloud under the map,
    so measure-independent models converge at the first sweep with bitwise
    equal flows.  Convergence requires both the W2 update below tol_w2 and
    the exploitability below tol_exp; non-convergence is reported, not
    raised.  The returned flow is always the undamped image of the last
    sweep, so its marginals equal the final solution's marginals exactly.

    With lambda_mix == 1, mf.mix returns the candidate flow itself, and the
    next sweep's best response is the one exploitability computed against
    that flow with the same settings, init and seed; the sweep takes it
    from the report instead of repeating the DP.  With exploit_particles >=
    particles it takes the solve too: the first `particles` rows of the
    response cost's solve (RsdeSolution.first_rows), bitwise the solve it
    would make.  A damped mix makes a new flow, and the next sweep runs its
    own DP and solve.

    Without domain_bound no domain check runs, and every record's
    domain_member and domain_worst are None.

    Every sweep solves with the same seed (common random numbers), so the
    domain checks share one dict of continuation increments
    (mf.check_domain's draws) and draw each anchor's block once per call.
    """
    if max_iters < 1:
        raise InputError(f"need max_iters >= 1, got {max_iters}")
    settings = settings or DpSettings()
    idx = idx or ct.IndexPair()
    exploit_particles = exploit_particles or particles
    grid = p.grid
    boot = mf.constant_flow(
        grid, rsde.draw_initial(seed, init, particles, coeffs.d), coeffs.k
    )
    if settings.lattice_lo is None or settings.lattice_hi is None:
        lo, hi = _auto_bounds(coeffs, boot, p, init, seed)
        settings = replace(settings, lattice_lo=lo, lattice_hi=hi)
    _, _, flow_prev = _phi_step(coeffs, boot, p, init, particles, seed, settings)

    records = []
    converged = False
    converged_at = None
    br = sol = flow_cand = known_br = known_sol = None
    draws = {}
    for it in range(1, max_iters + 1):
        br, sol, flow_cand = _phi_step(
            coeffs, flow_prev, p, init, particles, seed, settings, known_br,
            known_sol,
        )
        dist = mf.flow_distance(flow_cand, flow_prev)
        exp_rep = exploitability(
            coeffs, flow_cand, p, br.policy, exploit_particles, seed, settings, init
        )
        exp_value, exp_raw, exp_err = exp_rep.value, exp_rep.raw, exp_rep.error_bar
        # with lambda_mix == 1 the next sweep maps flow_cand itself (mf.mix
        # returns it); of the report's solves only the reused rows are kept
        known_br = known_sol = None
        if lambda_mix == 1.0:
            known_br = exp_rep.best_response
            if exploit_particles >= particles:
                known_sol = exp_rep.response_cost.solution.first_rows(particles)
        del exp_rep
        if domain_bound is not None:
            eps = domain_epsilon if domain_epsilon is not None else grid.horizon / 4
            cert = mf.check_domain(
                flow_cand, p, idx, m, domain_bound, eps,
                solution=sol, draws=draws,
                inner_samples=domain_inner, max_windows=domain_windows,
                anchor_stride=4,
            )
            member, worst, offend = cert.member, cert.worst, cert.offending_window
            if not member:
                warnings.warn(
                    f"iteration {it}: flow left the norm domain"
                    f" (worst window {offend}, norm {worst:.3g})"
                )
        else:
            member = worst = offend = None
        records.append(
            IterationRecord(it, dist, exp_value, exp_raw, exp_err,
                            br.escape_mass, member, worst, offend)
        )
        if dist < tol_w2 and exp_value < tol_exp:
            converged = True
            converged_at = it
            break
        flow_prev = mf.mix(flow_cand, flow_prev, lambda_mix, seed=seed + it)

    report = EquilibriumReport(records, converged, converged_at, tol_w2,
                               tol_exp, seed)
    return FixedPointResult(report, flow_cand, br.policy, sol, br.values)
