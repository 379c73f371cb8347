"""Property tests: an evaluation on grid nodes as groups equals the stacked
evaluations at one node each, bit for bit.

Hypothesis draws the model (each registry model and the d = k = 2 sin-mean
model), a node subset (unsorted, with repeats), the flow's particle count P
and the probe count Q.  The examples are derandomized and no database is
kept, so the suite is deterministic; 40 small examples per property keep
the module to a few seconds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for call in (cvf.f, cvf.fp, cvf.gradient,
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
