"""Built-in coefficient sets and the model registry.

Evaluator conventions: x is batched with trailing state axis d, mu is a
particle cloud (P, d), u is a single action vector (du,).  Drift and costs
are evaluated per action; callers average over the policy mixture.

Groups: a cloud may carry a leading group axis, (G, P, d) against states
(G, Q, d), and each group of states then interacts only with its own
cloud.  A group is a common-noise sample or a grid node; at nodes (G,) t
is (G, 1, 1) (node_time), where one node passes a number.  Evaluators
reduce over the particle axis -2, never axis 0, so a plain (P, d) cloud is
the one-group case.  No built-in model reads t; one that does must
broadcast it like a (..., 1) state (np.expand_dims(t, -1) against a
(..., d, k) result) and never reduce it or turn it into a float.
grouped_call refuses a model that fails on groups but not on group 0
alone, or whose group 0 differs from the call on group 0 alone.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

import numpy as np

from .roughpath import InputError


class UnknownModelError(KeyError):
    pass


@dataclass(slots=True)
class CoefficientSet:
    """Model coefficients: drift b(t,x,mu,u), noise loadings sigma(t,x,mu)
    and sigma0(t,x,mu), costs f(t,x,mu,u) and g(x,mu).

    sigma0 may be None (no rough term; the solver then reduces to a plain
    Euler-Maruyama recursion).  Its regularity gamma is not the model's but
    the index pair's (controlled.IndexPair).  A model with sigma0 supplies
    both derivatives, exactly: grad_sigma0, the spatial Jacobian
    (..., d, k, d), and sigma0_dmu(t, x, mu, v), with v (P, d, k) one
    direction per particle of mu and rough direction, the derivative of
    sigma0 as each mu[p] moves along v[p, :, j], shaped (..., d, k, k); it
    equals the particle average of the measure derivative contracted with
    v, so it is linear in v and zero along v = 0, where
    vectorfield.build_cvf_from_flow does not call it.  A coefficient
    constant in x or in the measure has an exact zero.

    Every evaluator also takes groups (module docstring): mu (G, P, d)
    against x (G, Q, d), v (G, P, d, k), and t a number or (G, 1, 1).
    """

    name: str
    d: int
    l: int
    k: int
    actions: np.ndarray
    b: callable
    sigma: callable
    f: callable
    g: callable
    sigma0: callable | None = None
    grad_sigma0: callable | None = None
    sigma0_dmu: callable | None = None
    params: dict = field(default_factory=dict)

    @property
    def n_actions(self) -> int:
        return self.actions.shape[0]

    def spot_check(self, probes: np.ndarray, cloud: np.ndarray):
        """Sampled boundedness check of the coefficient bundle at t = 0;
        returns the largest magnitude seen (runtime monitor, not a proof)."""
        worst = 0.0
        for u in self.actions:
            worst = max(worst, float(np.abs(self.b(0.0, probes, cloud, u)).max()))
        worst = max(worst, float(np.abs(self.sigma(0.0, probes, cloud)).max()))
        if self.sigma0 is not None:
            worst = max(worst, float(np.abs(self.sigma0(0.0, probes, cloud)).max()))
        return worst


def node_time(nodes, n):
    """t at node n of the grid nodes: nodes[n], and (G, 1, 1) for nodes n
    (G,), which broadcasts against the groups' states (G, Q, d)."""
    return nodes[n][:, None, None] if isinstance(n, np.ndarray) else nodes[n]


def _group0(call, t, groups):
    t0 = t if np.ndim(t) == 0 else np.ravel(t)[0]
    return call(t0, *(a[0] for a in groups))


def grouped_call(coeffs, name, call, t, *groups):
    """call(t, *groups), checked by check_grouped.  A ValueError or
    TypeError that the call on group 0 alone does not raise (an array t
    read as a number) becomes InputError; one that it raises propagates."""
    try:
        out = call(t, *groups)
    except (ValueError, TypeError) as exc:
        try:
            _group0(call, t, groups)
        except Exception:
            raise exc from None
        raise InputError(
            f"coefficient {name} of model {coeffs.name!r} fails on grouped "
            "(G, P, d) clouds but not on one group's cloud; broadcast an "
            "array t (G, 1, 1) like a state, never read it as a number"
        ) from exc
    check_grouped(coeffs, name, out, call, t, *groups)
    return out


def check_grouped(coeffs, name, got, call, t, *groups):
    """Raise InputError unless group 0 of got = call(t, *groups) equals
    (rtol 1e-12) the call on group 0 alone, at group 0's time: a model that
    reduces a cloud over axis 0 instead of the particle axis -2, or reads an
    array t as a number, would mix the groups."""
    want = _group0(call, t, groups)
    got = np.asarray(got)[0]
    if got.shape != want.shape or not np.allclose(
            got, want, rtol=1e-12, atol=0.0, equal_nan=True):
        raise InputError(
            f"coefficient {name} of model {coeffs.name!r} differs on grouped "
            "(G, P, d) clouds from a call on one group's cloud; reduce clouds "
            "over the particle axis -2, not axis 0, and broadcast an array t"
        )


def _mean(mu):
    """Particle mean of a cloud's first coordinate, the one the built-in
    models read: a scalar for a plain (P, d) cloud, (G, 1, 1) for a grouped
    (G, P, d) one, so it broadcasts against the group's states (G, P_x, d)."""
    mu = np.asarray(mu)
    m = np.add.reduce(mu, axis=-2) / mu.shape[-2]  # ndarray.mean, unwrapped
    return m[0] if m.ndim == 1 else m[..., None, :1]


def _sech2(x):
    # 1/cosh^2 without overflow for extreme states (limit is zero)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    small = np.abs(x) < 350.0
    out[small] = 1.0 / np.cosh(x[small]) ** 2
    return out


def _scalarize(u):
    return float(np.asarray(u).reshape(-1)[0])


def _const_field(value):
    def f(t, x, *mu_v):
        x = np.asarray(x, dtype=float)
        # read-only view: no caller writes into a coefficient result
        return np.broadcast_to(value, x.shape[:-1] + value.shape)

    return f


def _build_lq(params):
    """Controlled drift with linear mean coupling; quadratic costs; constant
    noise loadings."""
    d = l = k = 1
    p = {
        "actions": (-1.0, 0.0, 1.0),
        "mean_coupling": 0.1,
        "sigma": 0.5,
        "sigma0": 0.4,
        "cost_u": 1.0,
        "cost_x": 0.5,
        "cost_g": 0.5,
    }
    p.update(params)
    a_mean = p["mean_coupling"]
    s_mat = np.full((d, l), p["sigma"])
    rough = p["sigma0"] is not None

    def b(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, _scalarize(u) + a_mean * _mean(mu))

    def f(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        uu = _scalarize(u)
        return p["cost_u"] * uu**2 + p["cost_x"] * x[..., 0] ** 2

    def g(x, mu):
        x = np.asarray(x, dtype=float)
        return p["cost_g"] * x[..., 0] ** 2

    return CoefficientSet(
        name="lq",
        d=d,
        l=l,
        k=k,
        actions=np.asarray(p["actions"], dtype=float).reshape(-1, 1),
        b=b,
        sigma=_const_field(s_mat),
        # a constant sigma0: both derivatives are exact zeros
        sigma0=_const_field(np.full((d, k), p["sigma0"])) if rough else None,
        grad_sigma0=_const_field(np.zeros((d, k, d))) if rough else None,
        sigma0_dmu=_const_field(np.zeros((d, k, k))) if rough else None,
        f=f,
        g=g,
        params=p,
    )


def _build_no_interaction(params):
    """Measure-independent everything: the fixed-point map is constant."""
    p = dict(params)
    p["mean_coupling"] = 0.0
    model = _build_lq(p)
    model.name = "no-interaction"
    return model


def _build_tanh(params):
    """Bounded smooth interaction: drift reverts through tanh, the rough
    loading couples state and population mean multiplicatively."""
    d = l = k = 1
    p = {
        "actions": (-1.0, 0.0, 1.0),
        "b_revert": 0.5,
        "b_mean": 0.2,
        "sigma": 0.5,
        "s_base": 0.25,
        "s_int": 0.25,
        "cost_u": 1.0,
        "cost_x": 0.5,
        "cost_g": 0.5,
    }
    p.update(params)
    s_mat = np.full((d, l), p["sigma"])

    # d = k = 1: states keep their trailing axis, so a grouped mean
    # (G, 1, 1) broadcasts against them
    def b(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        return (
            _scalarize(u)
            - p["b_revert"] * np.tanh(x)
            + p["b_mean"] * np.tanh(_mean(mu))
        )

    def sigma0(t, x, mu):
        x = np.asarray(x, dtype=float)
        m = np.tanh(_mean(mu))
        return (p["s_base"] + p["s_int"] * np.tanh(x) * m)[..., None]

    def grad_sigma0(t, x, mu):
        x = np.asarray(x, dtype=float)
        m = np.tanh(_mean(mu))
        val = p["s_int"] * m * _sech2(x)
        return val[..., None, None]

    def sigma0_dmu(t, x, mu, v):
        # coefficient depends on mu through its mean only: moving the
        # particles along v moves the mean along the mean of v
        x = np.asarray(x, dtype=float)
        val = p["s_int"] * np.tanh(x) * _sech2(_mean(mu))
        v_mean = v[..., 0, :].mean(axis=-2, keepdims=True)  # (..., 1, k)
        return (val * v_mean)[..., None, None, :]

    def f(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        return p["cost_u"] * _scalarize(u) ** 2 + p["cost_x"] * x[..., 0] ** 2

    def g(x, mu):
        x = np.asarray(x, dtype=float)
        return p["cost_g"] * x[..., 0] ** 2

    return CoefficientSet(
        name="tanh-interaction",
        d=d,
        l=l,
        k=k,
        actions=np.asarray(p["actions"], dtype=float).reshape(-1, 1),
        b=b,
        sigma=_const_field(s_mat),
        sigma0=sigma0,
        grad_sigma0=grad_sigma0,
        sigma0_dmu=sigma0_dmu,
        f=f,
        g=g,
        params=p,
    )


_REGISTRY = {
    "lq": _build_lq,
    "no-interaction": _build_no_interaction,
    "tanh-interaction": _build_tanh,
}


def list_models():
    """Registry names with their default parameters."""
    return {name: build({}).params for name, build in sorted(_REGISTRY.items())}


def make_model(name: str, **overrides) -> CoefficientSet:
    if name not in _REGISTRY:
        close = difflib.get_close_matches(name, _REGISTRY.keys(), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise UnknownModelError(f"unknown model {name!r}{hint}")
    known = _REGISTRY[name]({}).params
    for key in overrides:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(f"model {name!r} has no parameter {key!r}{hint}")
    return _REGISTRY[name](overrides)
