"""Test models shared by several test modules.

sin-mean is d = k = 2: its rough loading sigma0_ab = tanh(x_a)
tanh(mean_p sin(w_b . y_p)) depends on the state and on the cloud, and its
spatial, measure and directional derivatives are known in closed form.  The
particle mean is over axis -2, so grouped clouds work.  late-nan is a
registry-style builder whose rough coefficient and its measure derivative
are NaN from t = 0.5 on; t-branch one whose coefficient branches on t as a
number, against the grouping convention.
"""

import numpy as np

from roughmfg import models

W = np.array([[1.3, -0.4], [0.6, 0.9]])


def sin_mean_model():
    base = models.make_model("lq")

    def sigma0(t, x, mu):
        m = np.sin(mu @ W.T).mean(axis=-2)  # (k,), or (G, k) for grouped clouds
        return np.tanh(x)[..., :, None] * np.tanh(m)[..., None, None, :]

    def grad_sigma0(t, x, mu):
        # d sigma0_ab / dx_c = delta_ac sech^2(x_a) tanh(m_b)
        m = np.sin(mu @ W.T).mean(axis=-2)
        diag = np.eye(2)[:, None, :] / np.cosh(x)[..., :, None, None] ** 2
        return diag * np.tanh(m)[..., None, None, :, None]

    def sigma0_dmu(t, x, mu, v):
        # d/dh m_b({y_p + h v_p[:, j]}) = mean_p cos(w_b . y_p) (w_b . v_p[:, j])
        sech2 = 1.0 / np.cosh(np.sin(mu @ W.T).mean(axis=-2)) ** 2  # (..., k)
        dm = (np.cos(mu @ W.T)[..., None] * np.einsum("bc,...pcj->...pbj", W, v)
              ).mean(axis=-3)  # (..., k, k)
        return np.tanh(x)[..., :, None, None] * (sech2[..., None] * dm)[..., None, None, :, :]

    return models.CoefficientSet(
        name="sin-mean", d=2, l=1, k=2, actions=base.actions, b=base.b,
        sigma=base.sigma, f=base.f, g=base.g, sigma0=sigma0,
        grad_sigma0=grad_sigma0, sigma0_dmu=sigma0_dmu,
    )


def sin_mean_lions(t, x, mu, y):
    """The measure derivative of sigma0 at the probe particles y (Py, d), for
    a plain cloud mu: (..., Py, d, k, d), varying with the probe particle."""
    sech2 = 1.0 / np.cosh(np.sin(mu @ W.T).mean(axis=-2)) ** 2  # (k,)
    per_probe = np.cos(y @ W.T)[:, :, None] * W  # (Py, k, d)
    return np.tanh(x)[..., None, :, None, None] * (sech2[:, None] * per_probe)[:, None]


def late_nan_model(params):
    """tanh-interaction whose rough coefficient and its measure derivative
    are NaN from t = 0.5 on; they broadcast an array t against their
    (..., d, k) and (..., d, k, k) results."""
    model = models.make_model("tanh-interaction", **params)
    finite, finite_dmu = model.sigma0, model.sigma0_dmu

    def sigma0(t, x, mu):
        return np.where(np.expand_dims(t, -1) >= 0.5, np.nan, finite(t, x, mu))

    def sigma0_dmu(t, x, mu, v):
        late = np.expand_dims(t, (-2, -1)) >= 0.5
        return np.where(late, np.nan, finite_dmu(t, x, mu, v))

    model.sigma0, model.sigma0_dmu = sigma0, sigma0_dmu
    model.name = "late-nan"
    return model


def t_branch_model(params, coefficient="sigma0"):
    """tanh-interaction whose coefficient doubles from t = 0.5 on, through
    an `if` on t: right at one node, where t is a number, but ambiguous for
    the (G, 1, 1) t of a call on node groups."""
    model = models.make_model("tanh-interaction", **params)
    plain = getattr(model, coefficient)

    def branched(t, *args):
        if t >= 0.5:
            return 2.0 * plain(t, *args)
        return plain(t, *args)

    setattr(model, coefficient, branched)
    model.name = "t-branch"
    return model
