"""Built-in coefficient sets and the model registry.

Evaluator conventions: x is batched with trailing state axis d, mu is a
particle cloud (P, d), u is a single action vector (du,).  Drift and costs
are evaluated per action; callers average over the policy mixture.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

import numpy as np


class UnknownModelError(KeyError):
    pass


@dataclass(slots=True)
class CoefficientSet:
    """Model coefficients: drift b(t,x,mu,u), noise loadings sigma(t,x,mu)
    and sigma0(t,x,mu), costs f(t,x,mu,u) and g(x,mu).

    sigma0 may be None (no rough term; the solver then reduces to a plain
    Euler-Maruyama recursion).  grad_sigma0 is the spatial Jacobian
    (..., d, k, d).  sigma0_dmu(t, x, mu, v), with v (P, d, k) one direction
    per particle of mu and rough direction, is the derivative of sigma0 as
    each mu[p] moves along v[p, :, j], shaped (..., d, k, k); it equals the
    particle average of the measure derivative contracted with v.  Without
    it the field builder takes a central difference along v.
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
    gamma: float = 2.0
    bound: float = 10.0
    lipschitz: float = 5.0
    params: dict = field(default_factory=dict)

    @property
    def n_actions(self) -> int:
        return self.actions.shape[0]

    def spot_check(self, probes: np.ndarray, cloud: np.ndarray, t: float = 0.0):
        """Sampled boundedness check of the coefficient bundle; returns the
        largest magnitude seen (runtime monitor, not a proof)."""
        worst = 0.0
        for u in self.actions:
            worst = max(worst, float(np.abs(self.b(t, probes, cloud, u)).max()))
        worst = max(worst, float(np.abs(self.sigma(t, probes, cloud)).max()))
        if self.sigma0 is not None:
            worst = max(worst, float(np.abs(self.sigma0(t, probes, cloud)).max()))
        return worst


def _mean(mu):
    return np.asarray(mu).mean(axis=0)  # (d,)


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
    def f(t, x, mu):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(value, x.shape[:-1] + value.shape)
        return out.copy()

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
    s0_mat = np.full((d, k), p["sigma0"])

    def b(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, _scalarize(u) + a_mean * _mean(mu)[0])

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
        sigma0=None if p["sigma0"] is None else _const_field(s0_mat),
        grad_sigma0=None
        if p["sigma0"] is None
        else _const_field(np.zeros((d, k, d))),
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

    def b(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        return (
            _scalarize(u)
            - p["b_revert"] * np.tanh(x[..., 0])
            + p["b_mean"] * np.tanh(_mean(mu)[0])
        )[..., None]

    def sigma0(t, x, mu):
        x = np.asarray(x, dtype=float)
        m = np.tanh(_mean(mu)[0])
        return (p["s_base"] + p["s_int"] * np.tanh(x[..., 0]) * m)[..., None, None]

    def grad_sigma0(t, x, mu):
        x = np.asarray(x, dtype=float)
        m = np.tanh(_mean(mu)[0])
        val = p["s_int"] * m * _sech2(x[..., 0])
        return val[..., None, None, None]

    def sigma0_dmu(t, x, mu, v):
        # coefficient depends on mu through its mean only: moving the
        # particles along v moves the mean along the mean of v
        x = np.asarray(x, dtype=float)
        val = p["s_int"] * np.tanh(x[..., 0]) * _sech2(_mean(mu)[0])
        return (val[..., None] * v[:, 0].mean(axis=0))[..., None, None, :]

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
