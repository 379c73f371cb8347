"""Spans around roughmfg's public entry points, recorded from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded roughmfg module that holds it, so callers inside the package
(which look names up in their module globals at call time, including names
imported with `from .roughpath import ito_lift`) reach the wrapper too.
Spans are kept in memory as (name, parent, start, end) and written out by
`save`.  The wrappers only time and count; they never touch arguments or
results, so traced outputs are bitwise equal to untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

from spec import SPANS


def lift_mb(lift) -> float:
    """Computed size of a lift's stored levels in MiB."""
    arrays = [v for v in vars(lift).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / 2**20


class Tracer:
    def __init__(self):
        self.names = [span for span, _, _ in SPANS]
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.particle_steps = 0
        self.domain_windows = 0
        self.escape_mass = []
        self.lift_mb = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def timed(self, span, fn, after=None):
        """Wrap fn in a span; after(result, args, kwargs) records counters."""
        ix = self.names.index(span)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(me)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[me] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- counters at span boundaries -----------------------------------------

    def _after_solve(self, sig):
        def after(sol, args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            self.particle_steps += int(bound["particles"]) * bound["p"].grid.steps

        return after

    def _wrap_resampler(self, orig):
        @functools.wraps(orig)
        def make_resampler(sol, *args, **kwargs):
            resample = orig(sol, *args, **kwargs)
            p_count, steps = sol.ensemble.particles, sol.grid.steps

            def after(result, r_args, r_kwargs):
                s_idx, n_inner = r_args
                self.particle_steps += p_count * n_inner * (steps - s_idx)

            return self.timed("rsde.resample", resample, after)

        return make_resampler

    def _wrap_cvf(self, cvf):
        cvf.f = self.timed("vectorfield.f", cvf.f)
        cvf.fp = self.timed("vectorfield.fp", cvf.fp)
        if cvf.grad is not None:
            cvf.grad = self.timed("vectorfield.grad", cvf.grad)
        return cvf

    def _wrap_correction(self, corr):
        return self.timed("vectorfield.correction", corr)

    def _after_domain(self, cert, args, kwargs):
        self.domain_windows += cert.windows_checked

    def _after_best_response(self, br, args, kwargs):
        self.escape_mass.append(br.escape_mass)

    def _after_lift(self, lift, args, kwargs):
        self.lift_mb.append(lift_mb(lift))

    # -- installation ---------------------------------------------------------

    def _replace(self, module, attr, make):
        """Replace module.attr and every alias of it in roughmfg modules."""
        orig = getattr(module, attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "roughmfg" and not name.startswith("roughmfg."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def install(self):
        from roughmfg import cli, controlled, measureflow, mfg, randomize
        from roughmfg import roughpath, rsde, vectorfield

        def span(name, after=None):
            return lambda orig: self.timed(name, orig, after)

        def hook(replace_result):
            # no span of its own: wraps what the factory returns
            def make(orig):
                @functools.wraps(orig)
                def wrapper(*args, **kwargs):
                    return replace_result(orig(*args, **kwargs))
                return wrapper
            return make

        targets = [
            (roughpath, "ito_lift", span("roughpath.lift", self._after_lift)),
            (roughpath, "smooth_lift", span("roughpath.lift", self._after_lift)),
            (randomize, "sample_lift", span("randomize.sample_lift")),
            (rsde, "solve",
             span("rsde.solve", self._after_solve(inspect.signature(rsde.solve)))),
            (rsde, "martingale_diagnostics", span("rsde.martingale")),
            (rsde, "apriori_monitor", span("rsde.apriori")),
            (vectorfield, "build_cvf_from_flow", hook(self._wrap_cvf)),
            (vectorfield, "gubinelli_correction", hook(self._wrap_correction)),
            (vectorfield, "cvf_norm", span("vectorfield.cvf_norm")),
            (controlled, "estimate_norm", span("controlled.estimate_norm")),
            (measureflow, "check_domain",
             span("measureflow.check_domain", self._after_domain)),
            (measureflow, "flow_distance", span("measureflow.flow_distance")),
            (measureflow, "mix", span("measureflow.mix")),
            (mfg, "best_response", span("mfg.best_response", self._after_best_response)),
            (mfg, "cost", span("mfg.cost")),
            (mfg, "exploitability", span("mfg.exploitability")),
            (randomize, "pathwise_terminals", span("randomize.pathwise")),
            (randomize, "joint_simulate", span("randomize.joint")),
            (randomize, "energy_permutation_test", span("randomize.energy_test")),
            (cli, "main", span("cli.main")),
        ]
        for module, attr, make in targets:
            self._replace(module, attr, make)
        orig = rsde.RsdeSolution.make_resampler
        self._undo.append((rsde.RsdeSolution, "make_resampler", orig))
        rsde.RsdeSolution.make_resampler = self._wrap_resampler(orig)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Self time and call count per span, plus the counters."""
        names = np.asarray(self.name_ix)
        parents = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = np.bincount(names, weights=dur - child, minlength=len(SPANS))
        calls = np.bincount(names, minlength=len(SPANS))
        out = {}
        for i, (_, self_name, calls_name) in enumerate(SPANS):
            out[self_name] = float(self_time[i])
            out[calls_name] = int(calls[i])
        out["rsde.particle_steps"] = self.particle_steps
        out["measureflow.domain_windows"] = self.domain_windows
        out["mfg.escape_rate"] = (
            float(np.mean(self.escape_mass)) if self.escape_mass else 0.0
        )
        out["roughpath.lift_mb"] = max(self.lift_mb, default=0.0)
        return out

    def save(self, path):
        """Write every span as arrays: names, name index, parent, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name_ix),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
