"""Experiment configuration: INI-style files with environment overrides.

Sections: [experiment] (task, seed), [model] (name plus parameter
overrides), [grid], [rough], [init], [policy], [indices], [fixedpoint],
[domain], [randomize], [rsde].  Environment variables with the prefix
ROUGHMFG_SECTION__KEY override file values (CI hook).  The effective
key-value map is hashed so identical effective configs produce identical
manifests.  An unknown section or key, in the file or the environment, and a
ROUGHMFG_ variable that names no key are a ConfigError; a [rough] key the
chosen source does not read is a validation issue.
"""

from __future__ import annotations

import ast
import configparser
import difflib
import hashlib
import os
from dataclasses import dataclass, field

from . import models
from .controlled import IndexPair
from .mfg import DpSettings
from .roughpath import InputError, RoughPath, TimeGrid, ito_lift, load_path, smooth_lift
from .rng import substream
from .rsde import InitialLaw

ENV_PREFIX = "ROUGHMFG_"

import numpy as np


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


_KNOWN_SECTIONS = {
    "experiment", "model", "grid", "rough", "init", "policy", "indices",
    "fixedpoint", "domain", "randomize", "rsde",
}
# the [rough] keys build_rough reads besides source, by source
_ROUGH_PARAMS = {
    "sample": {"seed_salt"},
    "smooth:linear": {"amplitude"},
    "smooth:sin": {"amplitude", "cycles"},
}


def _reject_unknown(flat: dict, read: set) -> None:
    """Every effective key must be one load_config reads; [model] keys are
    the model's parameters, which models.make_model checks."""
    for key in sorted(flat):
        section = key.split(".", 1)[0]
        if section == "model" or key in read:
            continue
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}] (key {key!r})")
        close = difflib.get_close_matches(key, read, n=1)
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

    cfg = ExperimentConfig()
    read = {"model.name", "rough.source"} | {
        f"rough.{k}" for keys in _ROUGH_PARAMS.values() for k in keys
    }

    def get(key, default, cast):
        read.add(key)
        if key in flat:
            try:
                return cast(flat[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {flat[key]!r}") from exc
        return default

    cfg.task = get("experiment.task", cfg.task, str)
    cfg.seed = get("experiment.seed", cfg.seed, int)
    cfg.model_name = get("model.name", cfg.model_name, str)
    cfg.model_overrides = {
        k.split(".", 1)[1]: _literal(v)
        for k, v in flat.items()
        if k.startswith("model.") and k != "model.name"
    }
    cfg.horizon = get("grid.t", cfg.horizon, float)
    cfg.steps = get("grid.n", cfg.steps, int)
    cfg.rough_source = get("rough.source", cfg.rough_source, str)
    cfg.rough_params = {
        k.split(".", 1)[1]: _literal(v)
        for k, v in flat.items()
        if k.startswith("rough.") and k != "rough.source"
    }
    cfg.init = InitialLaw(
        get("init.kind", "normal", str),
        get("init.mean", 0.0, float),
        get("init.spread", 1.0, float),
    )
    cfg.dp = DpSettings(
        lattice_lo=get("policy.lattice_lo", None, float),
        lattice_hi=get("policy.lattice_hi", None, float),
        lattice_nodes=get("policy.lattice_nodes", 101, int),
        gh_order=get("policy.gh_order", 5, int),
        escape_tolerance=get("policy.escape_tolerance", 0.05, float),
    )
    beta = get("indices.beta", 0.45, float)
    beta_p = get("indices.beta_p", 0.4, float)
    gamma = get("indices.gamma", 2.0, float)
    alpha = get("indices.alpha", 0.45, float)
    try:
        cfg.indices = IndexPair(beta, beta_p, gamma, alpha)
    except InputError as exc:
        raise ConfigError(
            f"indices outside the admissible set: {exc}"
        ) from exc
    cfg.m = get("indices.m", 4, int)
    cfg.particles = get("fixedpoint.particles", cfg.particles, int)
    cfg.lambda_mix = get("fixedpoint.lambda_mix", cfg.lambda_mix, float)
    cfg.max_iters = get("fixedpoint.max_iters", cfg.max_iters, int)
    cfg.tol_w2 = get("fixedpoint.tol_w2", cfg.tol_w2, float)
    cfg.tol_exp = get("fixedpoint.tol_exp", cfg.tol_exp, float)
    cfg.domain_bound = get("domain.m_bound", None, float)
    cfg.domain_epsilon = get("domain.epsilon", None, float)
    cfg.domain_inner = get("domain.inner_samples", cfg.domain_inner, int)
    cfg.domain_windows = get("domain.max_windows", cfg.domain_windows, int)
    cfg.rz_samples = get("randomize.samples", cfg.rz_samples, int)
    cfg.rz_particles = get("randomize.particles", cfg.rz_particles, int)
    cfg.rz_mode = get("randomize.mode", cfg.rz_mode, str)
    cfg.rz_inner_refine = get("randomize.inner_refine", cfg.rz_inner_refine, int)
    cfg.rsde_particles = get("rsde.particles", cfg.rsde_particles, int)
    _reject_unknown(flat, read)
    cfg.effective = flat
    return cfg


def validate(cfg: ExperimentConfig) -> list:
    """All invariant checks without running; returns the issue list."""
    issues = []
    if cfg.task not in ("mfg", "rsde", "randomize"):
        issues.append(f"unknown task {cfg.task!r} (mfg | rsde | randomize)")
    try:
        models.make_model(cfg.model_name, **cfg.model_overrides)
    except models.UnknownModelError as exc:
        issues.append(str(exc))
    except (TypeError, ValueError) as exc:
        issues.append(f"bad model overrides: {exc}")
    if cfg.steps < 1:
        issues.append(f"grid needs N >= 1, got {cfg.steps}")
    if cfg.horizon <= 0:
        issues.append(f"horizon must be positive, got {cfg.horizon}")
    src = cfg.rough_source
    if not (
        src == "sample" or src.startswith("file:") or src.startswith("smooth:")
    ):
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
    if cfg.rz_mode not in ("frozen-flow", "per-sample-fixedpoint"):
        issues.append(f"unknown randomize mode {cfg.rz_mode!r}")
    if not (0.0 <= cfg.lambda_mix <= 1.0):
        issues.append(f"lambda_mix must lie in [0, 1], got {cfg.lambda_mix}")
    if cfg.m < 2:
        issues.append(f"moment order m must be >= 2, got {cfg.m}")
    if cfg.rz_samples < 1:
        issues.append(f"[randomize] samples must be >= 1, got {cfg.rz_samples}")
    return issues


def build_rough(cfg: ExperimentConfig, k: int) -> RoughPath:
    """Materialize the configured rough input on the configured grid."""
    grid = cfg.grid()
    src = cfg.rough_source
    if src == "sample":
        salt = int(cfg.rough_params.get("seed_salt", 0))
        rng = substream(cfg.seed, "randomize", "B0", salt)
        dw = rng.normal(0.0, np.sqrt(grid.dt), size=(grid.steps, k))
        return ito_lift(dw, grid)
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
