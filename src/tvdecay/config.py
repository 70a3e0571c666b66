"""Flat key-value scenario configuration.

Format: one `section.key = value` per line, `#` starts a comment.  Values are
parsed as float/int/bool/string; comma-separated lists are allowed for the
`envelopes` key.  An unknown key is a ConfigError; the `envelope.<name>.*`
keys are checked against the envelope table in `cli.py`.  The same text
round-trips through `render_config`, which is what the provenance echo in
reports uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import ConfigError, InadmissibleEta, InvalidSpec
from .measures import (
    PotentialSpec,
    ProbabilityMeasure1D,
    build_measure,
    eigen_perturbation,
    shifted_gaussian_density,
    step_density,
    tabulated_density,
    tail_ratio_density,
)
from .psi import EtaProfile, eta_entropy, eta_power, eta_quadratic
from .simulate import SimConfig

# open intervals a number read by get_number must lie in
ANY = (-math.inf, math.inf)
POSITIVE = (0.0, math.inf)
# initial.family -> (h0, clipped mass).  Entries call each density function by
# its module-level name when they run, so rebinding that name takes effect.
INITIAL = {
    "eigen_perturbation": lambda mu, p: (eigen_perturbation(mu, p["epsilon"]), 0.0),
    "step": lambda mu, p: (step_density(mu), 0.0),
    "shifted_gaussian": lambda mu, p: (shifted_gaussian_density(mu, p["shift"]), 0.0),
    "tail_ratio": lambda mu, p: tail_ratio_density(mu, p["p"], cap=p["cap"]),
    "tabulated": lambda mu, p: (tabulated_density(mu, p["table"][:, 0],
                                                  p["table"][:, 1]), 0.0),
}


def parse_config_text(text: str) -> dict:
    """Parse flat `section.key = value` lines into an ordered dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in _KEYS and not key.startswith("envelope."):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def render_config(cfg: dict) -> str:
    return "\n".join(f"{k} = {v}" for k, v in sorted(cfg.items())) + "\n"


def get_str(cfg: dict, key: str, default=None, required: bool = False) -> Optional[str]:
    if key in cfg and cfg[key] != "":
        return cfg[key]
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _number(raw: str, key: str, kind=float, within=ANY):
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {raw!r}") from exc
    if not within[0] < value < within[1]:     # also false for nan and +-inf
        raise ConfigError(f"key {key!r}: expected a finite {kind.__name__} in "
                          f"({within[0]:g}, {within[1]:g}), got {raw!r}")
    return value


def get_number(cfg, key, default=None, required=False, kind=float, within=ANY):
    """The value of `key` converted by `kind` (float or int); `default` when
    unset.  A set value must lie in the open interval `within`."""
    raw = get_str(cfg, key, None, required)
    return default if raw is None else _number(raw, key, kind, within)


def choose(table: dict, key: str, name: str):
    """table[name]; a name the table lacks is a ConfigError naming `key`."""
    if name not in table:
        raise ConfigError(f"key {key!r}: unknown {name!r} ({' | '.join(table)})")
    return table[name]


def _get_bool(cfg, key, default=False) -> bool:
    raw = get_str(cfg, key, None)
    if raw is None:
        return default
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


# psi.eta -> constructor; a profile listed as name(p) is written name(value)
ETAS = {"quadratic": eta_quadratic, "entropy": eta_entropy, "power(p)": eta_power}


def _get_eta(cfg) -> EtaProfile:
    text = get_str(cfg, "psi.eta", "quadratic")
    name, paren, arg = text.partition("(")
    make = ETAS.get(f"{name}(p)" if paren and arg.endswith(")") else text)
    if make is None:
        raise ConfigError(f"key 'psi.eta': unknown profile {text!r} ({' | '.join(ETAS)})")
    try:
        return make(_number(arg[:-1], "psi.eta")) if paren else make()
    except InadmissibleEta as exc:
        raise ConfigError(f"key 'psi.eta': {exc}") from exc


def _read_table(cfg, key) -> np.ndarray:
    """The two-column CSV (with a header line) named by `key`."""
    path = get_str(cfg, key, required=True)
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot read table {path!r}: {exc}") from exc


# potential.family -> (constructor, {its potential.* key: the reader of that
# key}).  The constructor takes the keys the config sets by name, so an unset
# key keeps the constructor's default; potential.path is read as its x,V table.
POTENTIALS = {
    "gaussian": (PotentialSpec.gaussian, {"sigma": get_number}),
    "power": (PotentialSpec.power, {"alpha": partial(get_number, required=True),
                                     "scale": get_number}),
    "power_log": (PotentialSpec.power_log, {"alpha": partial(get_number, required=True)}),
    "tabulated": (lambda path: PotentialSpec.tabulated(path[:, 0], path[:, 1]),
                  {"path": _read_table}),
}
# analysis.<key> -> (default, the open interval a set value must lie in)
_ANALYSIS = {"w_osc": (0.0, (-math.inf, 709.0)),      # exp(w_osc) must be finite
             "c_p_override": (None, POSITIVE), "rho_override": (None, ANY),
             "c_ls_override": (None, POSITIVE),
             "capacity_rho": (None, (1.0, 1e150)),    # rho^2 must be finite
             "capacity_f_const": (1.0, ANY)}
_KEYS = frozenset("""potential.family grid.n_points grid.tail_tol initial.family
    initial.epsilon initial.shift initial.p initial.cap initial.path sim.dt sim.t_end
    sim.scheme sim.save_every psi.eta psi.a envelopes envelopes.calibrate
    """.split()) | {f"analysis.{k}" for k in _ANALYSIS} | {
    f"potential.{k}" for _, keys in POTENTIALS.values() for k in keys}


@dataclass
class Scenario:
    """A fully resolved scenario; `build` materializes measure and h0."""

    config: dict
    potential: PotentialSpec
    n_points: int
    tail_tol: float
    initial_family: str
    initial_params: dict
    sim: SimConfig
    eta: EtaProfile
    psi_a: Optional[float]
    envelope_names: list
    calibrate: bool
    analysis: dict
    clipped_mass: float = 0.0
    seed: int = 0

    def build_measure(self) -> ProbabilityMeasure1D:
        return build_measure(self.potential, self.n_points, self.tail_tol)

    def build_initial(self, mu: ProbabilityMeasure1D) -> np.ndarray:
        h, self.clipped_mass = INITIAL[self.initial_family](mu, self.initial_params)
        return h


def scenario_from_config(cfg: dict) -> Scenario:
    make, readers = choose(POTENTIALS, "potential.family",
                           get_str(cfg, "potential.family", required=True))
    args = {k: read(cfg, f"potential.{k}") for k, read in readers.items()}
    try:
        potential = make(**{k: v for k, v in args.items() if v is not None})
    except InvalidSpec as exc:
        raise ConfigError(f"potential: {exc}") from exc

    init_fam = get_str(cfg, "initial.family", "eigen_perturbation")
    choose(INITIAL, "initial.family", init_fam)
    init_params = {
        "epsilon": get_number(cfg, "initial.epsilon", 0.2),
        "shift": get_number(cfg, "initial.shift", 0.5),
        "p": get_number(cfg, "initial.p", 1.0),
        "cap": get_number(cfg, "initial.cap", 50.0, within=POSITIVE),
        "table": _read_table(cfg, "initial.path") if init_fam == "tabulated" else None,
    }
    try:
        sim = SimConfig(
            dt=get_number(cfg, "sim.dt", 1e-3),
            t_end=get_number(cfg, "sim.t_end", 3.0),
            scheme=get_str(cfg, "sim.scheme", "implicit_euler"),
            save_every=get_number(cfg, "sim.save_every", 50, kind=int),
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    names = [e.strip() for e in get_str(cfg, "envelopes", "").split(",") if e.strip()]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"key 'envelopes': {name!r} is listed twice")
    return Scenario(
        config=dict(cfg),
        potential=potential,
        n_points=get_number(cfg, "grid.n_points", 4001, kind=int),
        tail_tol=get_number(cfg, "grid.tail_tol", 1e-16),
        initial_family=init_fam,
        initial_params=init_params,
        sim=sim,
        eta=_get_eta(cfg),
        psi_a=get_number(cfg, "psi.a", None),
        envelope_names=names,
        calibrate=_get_bool(cfg, "envelopes.calibrate", True),
        analysis={k: get_number(cfg, f"analysis.{k}", d, within=w)
                  for k, (d, w) in _ANALYSIS.items()},
    )


def load_scenario(path: str) -> Scenario:
    return scenario_from_config(load_config(path))
