"""Flat key-value scenario configuration.

Format: one `section.key = value` per line, `#` starts a comment; the
`envelopes` key takes a comma-separated list.  `render_config` writes the text
that the provenance echo in reports holds, and it parses back to the same config.

Tables declare the keys as {key: (default, within)}.  An unset key takes
`default` (REQUIRED: it must be set; an int default makes an int key); a set
value must lie in the open interval `within`, or, with TABLE, names an x,y CSV
table.  `read_keys` reads such keys; `read_form` reads the keys of the row
(maker, keys) that a selector such as `potential.family` names, rejects a set
key of another row and returns the maker applied to the values.  Every read
key joins the config's `read` set, and `cli.plan_envelopes`, the last reader,
rejects a set key that nothing read.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import BadExponent, ConfigError, InadmissibleEta, InvalidSpec
from .inequalities import BetaFunction
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
from .simulate import FLOWS, SimConfig

# open intervals a number read by get_number must lie in
ANY = (-math.inf, math.inf)
POSITIVE = (0.0, math.inf)
REQUIRED, TABLE = object(), object()


class Config(dict):
    """A parsed config whose `read` set holds each key that get_str looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()


def parse_config_text(text: str) -> Config:
    """Parse flat `section.key = value` lines into an ordered Config."""
    out = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


def render_config(cfg: dict) -> str:
    return "\n".join(f"{k} = {v}" for k, v in sorted(cfg.items())) + "\n"


def get_str(cfg: Config, key: str, default=None) -> Optional[str]:
    """The text of `key`; `default` when unset, and a ConfigError when that
    default is REQUIRED."""
    cfg.read.add(key)
    if key in cfg and cfg[key] != "":
        return cfg[key]
    if default is REQUIRED:
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


def get_number(cfg, key, default=None, kind=float, within=ANY):
    """The value of `key` converted by `kind` (float or int); `default` when
    unset (REQUIRED: it must be set).  A set value must lie in the open
    interval `within`."""
    raw = get_str(cfg, key, default if default is REQUIRED else None)
    return default if raw is None else _number(raw, key, kind, within)


def choose(table: dict, key: str, name: str):
    """table[name]; a name the table lacks is a ConfigError naming `key`."""
    if name not in table:
        raise ConfigError(f"key {key!r}: unknown {name!r} ({' | '.join(table)})")
    return table[name]


# the values of a boolean key, in lower case
BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
         **dict.fromkeys(("false", "0", "no", "off"), False)}
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


def _read_table(cfg, key, default) -> np.ndarray:
    """The two-column CSV (with a header line) named by `key`."""
    path = get_str(cfg, key, default)
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot read table {path!r}: {exc}") from exc


def read_keys(cfg, prefix: str, keys: dict, defaults: Optional[dict] = None) -> dict:
    """{key: the value of prefix + key} for `keys`, {key: (default, within)};
    `defaults` replaces the defaults of the keys it holds."""
    defaults = defaults or {}
    return {k: _read_table(cfg, prefix + k, d) if w is TABLE
            else get_number(cfg, prefix + k, defaults.get(k, d),
                            int if type(d) is int else float, w)
            for k, (d, w) in keys.items()}


def read_form(cfg, prefix: str, selector: str, table: dict, default_form=REQUIRED,
              defaults: Optional[dict] = None, shared: tuple = ()):
    """The row (make, keys) of `table` that prefix + selector names
    (default_form when unset), as make(*its keys' values in order).  Under
    default_form, `defaults` replaces the row's defaults of the keys it holds.
    A set key of another row is a ConfigError, unless `shared` names it: such a
    key is read under every row.  With the selector unset and default_form None
    no row reads any key, and the result is None.  A maker's InvalidSpec or
    BadExponent is a ConfigError that gives the keys' values."""
    form = get_str(cfg, prefix + selector, default_form)
    make, keys = choose(table, prefix + selector, form) if form else (None, {})
    others = {k: spec for _, row_keys in table.values() for k, spec in row_keys.items()
              if k not in keys and prefix + k in cfg}    # `in`: not marked read
    for key in others:
        if key not in shared:
            raise ConfigError(f"key {prefix + key!r} is not read with {prefix}{selector} "
                              + (f"= {form}" if form else "unset"))
    read_keys(cfg, prefix, others)      # range-checks the shared keys set
    if form is None:
        return None
    values = read_keys(cfg, prefix, keys, defaults if form == default_form else None)
    try:
        return make(*values.values())
    except (BadExponent, InvalidSpec) as exc:
        given = ", ".join(f"{prefix}{k} = {cfg.get(prefix + k) or format(v, 'g')}"
                          for k, v in values.items())
        raise ConfigError(f"{given}: {exc}") from exc


# potential.family -> (PotentialSpec constructor, its potential.* keys); the
# constructor checks the values
POTENTIALS = {
    "gaussian": (PotentialSpec.gaussian, {"sigma": (math.sqrt(0.5), ANY)}),
    "power": (PotentialSpec.power, {"alpha": (REQUIRED, ANY), "scale": (1.0, ANY)}),
    "power_log": (PotentialSpec.power_log, {"alpha": (REQUIRED, ANY)}),
    "tabulated": (lambda path: PotentialSpec.tabulated(path[:, 0], path[:, 1]),
                  {"path": (REQUIRED, TABLE)}),
}
# initial.family -> (maker, its initial.* keys); the made start maps mu to (h0,
# the relative mass its cap removed).  Starts call each density function by
# its module-level name when they run, so rebinding that name takes effect.
INITIAL = {
    "eigen_perturbation": (lambda epsilon: lambda mu: (eigen_perturbation(mu, epsilon), 0.0),
                           {"epsilon": (0.2, ANY)}),
    "step": (lambda: lambda mu: (step_density(mu), 0.0), {}),
    "shifted_gaussian": (lambda shift: lambda mu: (shifted_gaussian_density(mu, shift), 0.0),
                         {"shift": (0.5, ANY)}),
    "tail_ratio": (lambda p, cap: lambda mu: tail_ratio_density(mu, p, cap=cap),
                   {"p": (1.0, ANY), "cap": (50.0, POSITIVE)}),
    "tabulated": (lambda path: lambda mu: (tabulated_density(mu, path[:, 0], path[:, 1]), 0.0),
                  {"path": (REQUIRED, TABLE)}),
}
# still read, and range-checked, under every initial family (ROADMAP item 18)
INITIAL_SHARED = ("epsilon", "shift", "p", "cap")
# the keys of the sections without a selector
GRID = {"n_points": (4001, (100, math.inf)),    # build_measure needs at least 101 points
        "tail_tol": (1e-16, (0.0, 1.0))}
SIM = {"dt": (1e-3, ANY), "t_end": (3.0, ANY), "save_every": (50, ANY)}   # SimConfig checks
ANALYSIS = {"w_osc": (0.0, (-math.inf, 709.0)),       # exp(w_osc) must be finite
            "c_p_override": (None, POSITIVE), "rho_override": (None, ANY),
            "c_ls_override": (None, POSITIVE),
            "capacity_rho": (None, (1.0, 1e150)),     # rho^2 must be finite
            "capacity_f_const": (1.0, POSITIVE)}
# The forms of envelope.<name>.phi and envelope.<name>.beta_form.  phi must
# rise to infinity.
PHIS = {
    "power": (lambda q: lambda u: np.asarray(u, float) ** (q - 1.0),
              {"q": (1.5, (1.0, math.inf))}),
    "logbeta": (lambda b: lambda u: np.maximum(
        np.log(np.maximum(np.asarray(u, float), 1e-300)), 0.0) ** b,
        {"beta_exp": (1.0, POSITIVE)}),
    "linear": (lambda: lambda u: np.asarray(u, float), {}),
    "loglog": (lambda: lambda u: np.log1p(np.maximum(np.log(np.maximum(
        np.asarray(u, float), 1.0)), 0.0)), {}),
}
BETA_FORMS = {
    "constant": (BetaFunction.constant, {"beta_c": (1.0, ANY)}),
    "power": (BetaFunction.power, {"beta_c": (1.0, ANY), "beta_q": (1.0, ANY)}),
    "logpower": (BetaFunction.logpower, {"beta_d": (1.0, ANY), "beta_r": (1.0, ANY),
                                         "beta_s0": (2.0, ANY)}),
}


class Scenario:
    """A fully resolved scenario; `build_measure` materializes mu, and
    `initial(mu)` gives h0 with the relative mass its cap removed."""

    def __init__(self, config: Config, potential: PotentialSpec, n_points: int,
                 tail_tol: float, initial: Callable, sim: SimConfig, eta: EtaProfile,
                 psi_a: Optional[float], envelope_names: list, calibrate: bool,
                 analysis: dict, seed: int = 0):
        self.config, self.potential = config, potential
        self.n_points, self.tail_tol, self.initial = n_points, tail_tol, initial
        self.sim, self.eta, self.psi_a = sim, eta, psi_a
        self.envelope_names, self.calibrate, self.analysis = envelope_names, calibrate, analysis
        self.seed = seed

    def build_measure(self) -> ProbabilityMeasure1D:
        return build_measure(self.potential, self.n_points, self.tail_tol)

    def build_initial(self, mu: ProbabilityMeasure1D) -> np.ndarray:
        """h0 alone."""
        return self.initial(mu)[0]


def scenario_from_config(cfg: dict) -> Scenario:
    cfg = Config(cfg)
    potential = read_form(cfg, "potential.", "family", POTENTIALS)
    initial = read_form(cfg, "initial.", "family", INITIAL, "eigen_perturbation",
                        shared=INITIAL_SHARED)
    scheme = get_str(cfg, "sim.scheme", "implicit_euler")
    choose(FLOWS, "sim.scheme", scheme)
    try:
        sim = SimConfig(scheme=scheme, **read_keys(cfg, "sim.", SIM))
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    names = [e.strip() for e in get_str(cfg, "envelopes", "").split(",") if e.strip()]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"key 'envelopes': {name!r} is listed twice")
    eta = _get_eta(cfg)
    return Scenario(
        config=cfg,
        potential=potential,
        **read_keys(cfg, "grid.", GRID),
        initial=initial,
        sim=sim,
        eta=eta,
        # the splice point must exceed max(2, b), and psi(a) = (a^2 - a)/2 be finite
        psi_a=get_number(cfg, "psi.a", None, within=(max(2.0, eta.b), 1e150)),
        envelope_names=names,
        calibrate=choose(BOOLS, "envelopes.calibrate",
                         get_str(cfg, "envelopes.calibrate", "true").lower()),
        analysis=read_keys(cfg, "analysis.", ANALYSIS),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return scenario_from_config(parse_config_text(text))
