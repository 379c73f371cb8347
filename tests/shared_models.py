"""Test models shared by several test modules.

sin-mean is d = k = 2: its rough loading sigma0_ab = tanh(x_a)
tanh(mean_p sin(w_b . y_p)) depends on the state and on the cloud; it has
no sigma0_dmu, so the field builder takes central differences, and its
measure derivative is known in closed form.  The particle mean is over
axis -2, so grouped clouds work.  late-nan is a registry-style builder
whose rough coefficient is NaN from t = 0.5 on.
"""

import numpy as np

from roughmfg import models

W = np.array([[1.3, -0.4], [0.6, 0.9]])


def sin_mean_model():
    base = models.make_model("lq")

    def sigma0(t, x, mu):
        m = np.sin(mu @ W.T).mean(axis=-2)  # (k,), or (G, k) for grouped clouds
        return np.tanh(x)[..., :, None] * np.tanh(m)[..., None, None, :]

    return models.CoefficientSet(
        name="sin-mean", d=2, l=1, k=2, actions=base.actions, b=base.b,
        sigma=base.sigma, f=base.f, g=base.g, sigma0=sigma0,
    )


def sin_mean_lions(t, x, mu, y):
    """The measure derivative of sigma0 at the probe particles y (Py, d), for
    a plain cloud mu: (..., Py, d, k, d), varying with the probe particle."""
    sech2 = 1.0 / np.cosh(np.sin(mu @ W.T).mean(axis=-2)) ** 2  # (k,)
    per_probe = np.cos(y @ W.T)[:, :, None] * W  # (Py, k, d)
    return np.tanh(x)[..., None, :, None, None] * (sech2[:, None] * per_probe)[:, None]


def late_nan_model(params):
    """tanh-interaction whose rough coefficient is NaN from t = 0.5 on; it
    broadcasts an array t against its (..., d, k) result."""
    model = models.make_model("tanh-interaction", **params)
    finite = model.sigma0

    def sigma0(t, x, mu):
        return np.where(np.expand_dims(t, -1) >= 0.5, np.nan, finite(t, x, mu))

    model.sigma0 = sigma0
    model.name = "late-nan"
    return model
