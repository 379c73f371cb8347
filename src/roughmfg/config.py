"""Experiment configuration: INI-style files with environment overrides.

_SETTINGS is the one table of typed keys: each row names the
ExperimentConfig field a key sets, its type and its domain.  load_config
casts and assigns from it, and validate checks every domain, so a value from
the file, the environment or a CLI flag is refused before any work runs.
[model] keys besides name are model parameters, [rough] keys besides source
the source's.  Environment variables ROUGHMFG_SECTION__KEY override file
values (CI hook).  The effective key-value map is hashed so identical
effective configs produce identical manifests.  An unknown section (empty or
not) or key, in the file or the environment, and a ROUGHMFG_ variable that
names no key are a ConfigError; a [rough] key the chosen source does not
read is a validation issue.
"""

from __future__ import annotations

import ast
import configparser
import difflib
import functools
import hashlib
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import models
from . import randomize as rz
from .controlled import IndexPair
from .mfg import DpSettings
from .roughpath import InputError, RoughPath, TimeGrid, load_path, smooth_lift
from .rsde import InitialLaw

ENV_PREFIX = "ROUGHMFG_"


class ConfigError(ValueError):
    pass


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


@dataclass
class ExperimentConfig:
    task: str = "mfg"
    seed: int = 0
    model_name: str = "lq"
    model_overrides: dict = field(default_factory=dict)
    horizon: float = 1.0
    steps: int = 64
    rough_source: str = "sample"
    rough_params: dict = field(default_factory=dict)
    init: InitialLaw = field(default_factory=InitialLaw)
    dp: DpSettings = field(default_factory=DpSettings)
    indices: IndexPair = field(default_factory=IndexPair)
    m: int = 4
    particles: int = 256
    lambda_mix: float = 1.0
    max_iters: int = 10
    tol_w2: float = 1e-3
    tol_exp: float = 1e-2
    domain_bound: float | None = None
    domain_epsilon: float | None = None
    domain_inner: int = 2
    domain_windows: int = 8
    rz_samples: int = 50
    rz_particles: int = 200
    rz_mode: str = "frozen-flow"
    rz_inner_refine: int = 1
    rsde_particles: int = 256
    effective: dict = field(default_factory=dict)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)

    def config_hash(self) -> str:
        canon = "\n".join(
            f"{k}={self.effective[k]}" for k in sorted(self.effective)
        )
        return hashlib.sha256(canon.encode()).hexdigest()

    def manifest_hash(self) -> str:
        from . import __version__

        text = f"{self.config_hash()}|seed={self.seed}|v={__version__}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# key: (ExperimentConfig field it sets, type, domain).  A dotted field is a
# field of that part (init, dp, indices); the defaults live in the
# dataclasses.  A domain is None (any value), a tuple of the allowed values,
# or clauses joined by " and ", each "<op> <bound>" or "a power of 2".
_SETTINGS = {
    "experiment.task": ("task", str, ("mfg", "rsde", "randomize")),
    "experiment.seed": ("seed", int, None),
    "model.name": ("model_name", str, None),  # models.make_model checks it
    "grid.t": ("horizon", float, "> 0"),
    "grid.n": ("steps", int, ">= 1"),
    "rough.source": ("rough_source", str, None),  # checked in validate
    "init.kind": ("init.kind", str, ("normal", "constant", "uniform")),
    "init.mean": ("init.mean", float, None),
    "init.spread": ("init.spread", float, ">= 0"),
    "policy.lattice_lo": ("dp.lattice_lo", float, None),
    "policy.lattice_hi": ("dp.lattice_hi", float, None),
    "policy.lattice_nodes": ("dp.lattice_nodes", int, ">= 1"),
    "policy.gh_order": ("dp.gh_order", int, ">= 1"),
    "policy.escape_tolerance": ("dp.escape_tolerance", float, ">= 0"),
    # IndexPair checks the admissible set when the config is loaded; the
    # field norm is the C^gamma norm only up to gamma = 2, and alpha, the
    # lift's Holder exponent, lies in (0, 1/2] as holder_report and rho_alpha
    # require (it is not compared with the lift's measured regularity)
    "indices.beta": ("indices.beta", float, None),
    "indices.beta_p": ("indices.beta_p", float, None),
    "indices.gamma": ("indices.gamma", float, "<= 2"),
    "indices.alpha": ("indices.alpha", float, "<= 0.5"),
    "indices.m": ("m", int, ">= 2"),
    # an error bar needs two particles: the exploitability's standard error
    "fixedpoint.particles": ("particles", int, ">= 2"),
    "fixedpoint.lambda_mix": ("lambda_mix", float, ">= 0 and <= 1"),
    "fixedpoint.max_iters": ("max_iters", int, ">= 1"),
    # convergence needs the W2 update and the exploitability strictly below
    "fixedpoint.tol_w2": ("tol_w2", float, "> 0"),
    "fixedpoint.tol_exp": ("tol_exp", float, "> 0"),
    "domain.m_bound": ("domain_bound", float, "> 0"),
    "domain.epsilon": ("domain_epsilon", float, "> 0"),
    "domain.inner_samples": ("domain_inner", int, ">= 1"),
    "domain.max_windows": ("domain_windows", int, ">= 1"),
    # the bridge's standard errors need two samples and two particles
    "randomize.samples": ("rz_samples", int, ">= 2"),
    "randomize.particles": ("rz_particles", int, ">= 2"),
    "randomize.mode": ("rz_mode", str, ("frozen-flow", "per-sample-fixedpoint")),
    "randomize.inner_refine": ("rz_inner_refine", int, "a power of 2"),
    # an error bar needs two particles: the martingale battery's t statistics
    "rsde.particles": ("rsde_particles", int, ">= 2"),
}
_SECTIONS = {key.split(".", 1)[0] for key in _SETTINGS}
# the [rough] keys build_rough reads besides source, by source
_ROUGH_PARAMS = {
    "sample": {"seed_salt"},
    "smooth:linear": {"amplitude"},
    "smooth:sin": {"amplitude", "cycles"},
}
_KNOWN = set(_SETTINGS) | {f"rough.{k}" for keys in _ROUGH_PARAMS.values() for k in keys}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _within(value, domain) -> bool:
    if isinstance(domain, tuple):
        return value in domain
    for clause in domain.split(" and "):
        if clause == "a power of 2":
            ok = value >= 1 and not value & (value - 1)
        else:
            op, bound = clause.split()
            ok = _COMPARE[op](value, float(bound))
        if not ok:
            return False
    return True


def _reject_unknown(flat: dict, sections) -> None:
    """Every section must be one of the table's and every key a table key or
    a [rough] key some source reads; [model] keys besides name are the
    model's parameters, which models.make_model checks."""
    for section in sorted({*sections, *(key.split(".", 1)[0] for key in flat)}):
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    for key in sorted(flat):
        if key in _KNOWN or key.startswith("model."):
            continue
        close = difflib.get_close_matches(key, _KNOWN, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"unknown config key {key!r}{hint}")


def _collect(parser: configparser.ConfigParser, env) -> dict:
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    for name, value in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        if "__" not in rest:
            raise ConfigError(
                f"environment variable {name} names no key; use"
                f" {ENV_PREFIX}SECTION__KEY"
            )
        section, key = rest.split("__", 1)
        flat[f"{section.lower()}.{key.lower()}"] = value
    return flat


def _params(flat: dict, section: str) -> dict:
    """The section's keys that are not table rows, as Python literals."""
    return {
        k.split(".", 1)[1]: _literal(v)
        for k, v in flat.items()
        if k.startswith(section + ".") and k not in _SETTINGS
    }


def load_config(path, env=None) -> ExperimentConfig:
    """Parse the file, apply environment overrides, build the typed config.

    Parse errors surface with configparser's line numbers.
    """
    env = os.environ if env is None else env
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fp:
            parser.read_file(fp, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    flat = _collect(parser, env)
    _reject_unknown(flat, parser.sections())
    parts = {}  # part ("" for ExperimentConfig itself) -> {field: value}
    for key, (name, cast, _) in _SETTINGS.items():
        if key not in flat:
            continue
        try:
            value = cast(flat[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {flat[key]!r}") from exc
        part, _, attr = name.rpartition(".")
        parts.setdefault(part, {})[attr] = value
    cfg = ExperimentConfig(
        **parts.pop("", {}),
        model_overrides=_params(flat, "model"),
        rough_params=_params(flat, "rough"),
        effective=flat,
    )
    try:
        return replace(cfg, **{
            part: replace(getattr(cfg, part), **values)
            for part, values in parts.items()
        })
    except InputError as exc:
        raise ConfigError(f"indices outside the admissible set: {exc}") from exc


def validate(cfg: ExperimentConfig) -> list:
    """All invariant checks without running; returns the issue list.

    Every set value of a _SETTINGS row must lie in the row's domain, which
    the issue names as "[section] key must be <domain>, got <value>";
    beside the table stand the policy lattice's order (lattice_lo below
    lattice_hi when it has more than one node), the model check and the
    rough source's.
    """
    issues = []
    for key, (name, _, domain) in _SETTINGS.items():
        value = functools.reduce(getattr, name.split("."), cfg)
        if domain is None or value is None or _within(value, domain):
            continue
        section, option = key.split(".")
        allowed = "one of " + " | ".join(domain) if isinstance(domain, tuple) else domain
        issues.append(f"[{section}] {option} must be {allowed}, got {value!r}")
    lo, hi = cfg.dp.lattice_lo, cfg.dp.lattice_hi
    if cfg.dp.lattice_nodes > 1 and None not in (lo, hi) and lo >= hi:
        issues.append("[policy] lattice_lo must be < [policy] lattice_hi when"
                      f" lattice_nodes > 1, got {lo!r} >= {hi!r}")
    try:
        models.make_model(cfg.model_name, **cfg.model_overrides)
    except models.UnknownModelError as exc:
        issues.append(str(exc))
    except (TypeError, ValueError) as exc:
        issues.append(f"bad model overrides: {exc}")
    src = cfg.rough_source
    if src != "sample" and not src.startswith(("file:", "smooth:")):
        issues.append(
            f"rough source {src!r} must be 'sample', 'file:<path>'"
            " or 'smooth:<name>'"
        )
    if src.startswith("file:") and not os.path.exists(src[5:]):
        issues.append(f"rough path container {src[5:]!r} does not exist")
    if src.startswith("smooth:") and src[7:] not in ("linear", "sin"):
        issues.append(f"unknown smooth path {src[7:]!r} (linear | sin)")
    for key in sorted(set(cfg.rough_params) - _ROUGH_PARAMS.get(src, set())):
        issues.append(f"[rough] {key} is not read by source {src!r}")
    return issues


def build_rough(cfg: ExperimentConfig, k: int) -> RoughPath:
    """Materialize the configured rough input on the configured grid."""
    grid = cfg.grid()
    src = cfg.rough_source
    if src == "sample":
        salt = int(cfg.rough_params.get("seed_salt", 0))
        return rz.sample_lift(grid, k, cfg.seed, salt)
    if src.startswith("file:"):
        p = load_path(src[5:])
        if p.grid != grid:
            raise ConfigError(
                f"rough container grid (T={p.grid.horizon}, N={p.grid.steps})"
                f" does not match config (T={grid.horizon}, N={grid.steps})"
            )
        if p.dim != k:
            raise ConfigError(f"rough container has dim {p.dim}, model needs {k}")
        return p
    if src.startswith("smooth:"):
        name = src[7:]
        amp = float(cfg.rough_params.get("amplitude", 1.0))
        if name == "linear":
            path = amp * grid.nodes
        elif name == "sin":
            cycles = float(cfg.rough_params.get("cycles", 1.0))
            path = amp * np.sin(2.0 * np.pi * cycles * grid.nodes / grid.horizon)
        else:
            raise ConfigError(f"unknown smooth path {name!r}")
        cols = np.stack([path] * k, axis=1)
        return smooth_lift(cols, grid)
    raise ConfigError(f"unknown rough source {src!r}")
