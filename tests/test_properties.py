"""Property tests: an evaluation on grid nodes as groups equals the stacked
evaluations at one node each, bit for bit, a model's derivatives of sigma0
agree with central differences of sigma0 on node groups, and config.validate
refuses a setting exactly where its _SETTINGS domain does.

Hypothesis draws the model (each registry model and the d = k = 2 sin-mean
model), a node subset (unsorted, with repeats), the flow's particle count P
and the probe count Q; for the settings table, a row with a domain and a
value of the row's type on both sides of it.  The examples are
derandomized and no database is kept, so the suite is deterministic; 40
small examples per field property keep the module to a few seconds.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmfg import config
from roughmfg import measureflow as mf
from roughmfg import models
from roughmfg import roughpath as rp
from roughmfg import vectorfield as vf
from roughmfg.rng import substream
from shared_models import sin_mean_model

STEPS = 6
MODELS = {name: lambda name=name: models.make_model(name)
          for name in models.list_models()}
MODELS["sin-mean"] = sin_mean_model
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def groups(draw):
    """(model, grid nodes, flow, states (G, Q, d))"""
    name = draw(st.sampled_from(sorted(MODELS)))
    nodes = np.array(draw(st.lists(st.integers(0, STEPS), min_size=1, max_size=7)))
    p, q = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    model = MODELS[name]()
    rng = substream(draw(st.integers(0, 2**16)), "props")
    grid = rp.TimeGrid(1.0, STEPS)
    flow = mf.MeasureFlow(grid, rng.normal(size=(p, STEPS + 1, model.d)),
                          0.3 * rng.normal(size=(p, STEPS + 1, model.d, model.k)))
    return model, nodes, flow, rng.normal(size=(len(nodes), q, model.d))


def stacked(call, nodes, x):
    return np.stack([call(n, xg) for n, xg in zip(nodes, x)])


@PROPERTY
@given(groups())
def test_field_on_node_groups_equals_per_node_calls(case):
    model, nodes, flow, x = case
    cvf = vf.build_cvf_from_flow(model, flow)
    correction = vf.gubinelli_correction(cvf)
    for call in (cvf.f, cvf.fp, cvf.grad,
                 lambda n, x: correction(n, x, cvf.f(n, x))):
        np.testing.assert_array_equal(call(nodes, x), stacked(call, nodes, x))


@PROPERTY
@given(groups())
def test_coefficients_on_node_groups_equal_per_node_calls(case):
    model, nodes, flow, x = case
    times = flow.grid.nodes
    calls = [model.sigma]
    for u in model.actions:
        calls += [lambda t, x, mu, u=u: model.b(t, x, mu, u),
                  lambda t, x, mu, u=u: model.f(t, x, mu, u)]
    for call in calls:
        got = call(models.node_time(times, nodes), x, flow.cloud(nodes))
        want = stacked(lambda n, xg: call(times[n], xg, flow.cloud(n)), nodes, x)
        np.testing.assert_array_equal(got, want)


def difference_grad(sigma0, t, x, mu, h=1e-6):
    """Central difference of sigma0 in x, one column per state coordinate:
    (..., d, k, d)."""
    cols = []
    for c in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[c] = h
        cols.append((sigma0(t, x + e, mu) - sigma0(t, x - e, mu)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def difference_dmu(sigma0, t, x, mu, v, h=1e-5):
    """Central difference of sigma0 as every particle of mu moves along its
    direction v[..., j], one column per rough direction: (..., d, k, k)."""
    cols = [(sigma0(t, x, mu + h * v[..., j]) - sigma0(t, x, mu - h * v[..., j]))
            / (2.0 * h) for j in range(v.shape[-1])]
    return np.stack(cols, axis=-1)


# the truncation and round-off of the central differences at these steps,
# for states, particles and directions of unit scale: over 200 drawn cases
# the largest gap to the closed forms was 8.8e-11 (sin-mean's gradient) and
# 3.6e-11 (tanh-interaction's); lq's and no-interaction's zeros are exact
DERIVATIVE_ATOL = 1e-9


@PROPERTY
@given(groups())
def test_sigma0_derivatives_match_central_differences(case):
    model, nodes, flow, x = case
    t, cloud = models.node_time(flow.grid.nodes, nodes), flow.cloud(nodes)
    v = mf.at_nodes(flow.Yp, nodes)
    np.testing.assert_allclose(model.grad_sigma0(t, x, cloud),
                               difference_grad(model.sigma0, t, x, cloud),
                               rtol=0, atol=DERIVATIVE_ATOL)
    np.testing.assert_allclose(model.sigma0_dmu(t, x, cloud, v),
                               difference_dmu(model.sigma0, t, x, cloud, v),
                               rtol=0, atol=DERIVATIVE_ATOL)


# the table's rows with a domain, and values of each type on both sides of
# every bound in use (0, 0.5, 1, 2 and the powers of 2)
DOMAIN_ROWS = sorted(key for key, (_, _, domain) in config._SETTINGS.items()
                     if domain is not None)
VALUES = {
    int: st.integers(-4, 70),
    float: st.one_of(st.floats(-3.0, 3.0),
                     st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.0])),
}


def values_of(key):
    """Values of the row's type: one of a tuple domain's values or any
    short text, a number near the bounds otherwise."""
    _, cast, domain = config._SETTINGS[key]
    if isinstance(domain, tuple):
        return st.one_of(st.sampled_from(domain), st.text(max_size=6))
    return VALUES[cast]


def configured(key, value):
    """The default config with the row's field set to value, bypassing the
    part's own checks (IndexPair's admissible set), which validate never
    reaches."""
    cfg = config.ExperimentConfig()
    part, _, attr = config._SETTINGS[key][0].rpartition(".")
    if not part:
        return dataclasses.replace(cfg, **{attr: value})
    fields = dataclasses.asdict(getattr(cfg, part))
    return dataclasses.replace(cfg, **{part: SimpleNamespace(**{**fields,
                                                                attr: value})})


@pytest.mark.parametrize("key", DOMAIN_ROWS)
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_validate_refuses_a_setting_where_its_domain_does(key, data):
    value = data.draw(values_of(key))
    domain = config._SETTINGS[key][2]
    section, option = key.split(".")
    named = [issue for issue in config.validate(configured(key, value))
             if issue.startswith(f"[{section}] {option} ")]
    if config._within(value, domain):
        assert named == []
    else:
        allowed = ("one of " + " | ".join(domain) if isinstance(domain, tuple)
                   else domain)
        assert named == [f"[{section}] {option} must be {allowed}, got {value!r}"]
