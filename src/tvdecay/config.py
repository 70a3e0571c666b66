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
key joins the config's `read` set; `scenario_from_config` reads the listed
envelopes' keys last and then rejects a set key that nothing read.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np

from .envelopes import (DecayEnvelope, envelope_curvature, envelope_hellinger,
                        envelope_ipsi, envelope_logsob, envelope_orlicz,
                        envelope_poincare_l2, envelope_restricted_logsob,
                        envelope_truncation_logsob, envelope_truncation_poincare,
                        envelope_weak_logsob, envelope_weak_poincare)
from .errors import BadExponent, ConfigError, InadmissibleEta, InvalidSpec, TvDecayError
from .inequalities import BetaFunction
from .measures import (
    Functionals,
    PotentialSpec,
    ProbabilityMeasure1D,
    build_measure,
    eigen_perturbation,
    integrate,
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
    """Parse flat `section.key = value` lines, each key set once, into an ordered Config."""
    out, first = Config(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if first.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {first[key]}")
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
    """The x,y CSV named by `key`: a header line, which is not all numbers,
    then 2 columns, at least 2 rows, finite cells and strictly increasing x."""
    path = get_str(cfg, key, default)
    try:
        with warnings.catch_warnings():     # loadtxt warns on a table without rows
            warnings.simplefilter("ignore")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            with open(path, encoding="utf-8-sig") as fh:    # a cell that is no number is nan
                header = np.genfromtxt([fh.readline()], delimiter=",")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot read table {path!r}: {exc}") from exc
    problem = ("needs a header line" if header.size and not np.isnan(header).any() else
               "needs at least 2 rows" if len(table) < 2 else
               "needs exactly 2 columns" if table.shape[1] != 2 else
               "has a non-finite cell" if not np.isfinite(table).all() else
               "needs strictly increasing x" if (np.diff(table[:, 0]) <= 0).any() else None)
    if problem:
        raise ConfigError(f"key {key!r}: table {path!r} {problem}")
    return table


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


class EnvelopeInputs:
    """What the envelope builders read: mu, h0, its functionals f0, eta and the
    analysed constants."""

    def __init__(self, mu: ProbabilityMeasure1D, h0: np.ndarray, f0: Functionals,
                 eta: EtaProfile, C_P: float, C_LS: Optional[float], rho: float,
                 capacity: Optional[dict]):
        self.mu, self.h0, self.f0, self.eta = mu, h0, f0, eta
        self.C_P, self.C_LS, self.rho, self.capacity = C_P, C_LS, rho, capacity

    def moment(self, phi) -> float:
        return integrate(self.mu, self.h0 * phi(self.h0))

    def c_ls(self, name: str) -> float:
        if self.C_LS is None:
            raise TvDecayError(f"{name} envelope needs a positive C_LS "
                               "(rho <= 0 and no override)")
        return self.C_LS


class EnvelopeFamily:
    """One row of ENVELOPES: `build(x, phi, beta, extras)`, the default phi as
    (its PHIS form, {a key of that form: the family's own default}), the
    default beta as a function of the EnvelopeInputs x, and the family's own
    keys with (default, within), none by default.  `parse` reads exactly the
    envelope.<name>.* keys that these entries and the selected phi and beta
    forms take."""

    def __init__(self, build: Callable, phi: Optional[tuple] = None,
                 beta: Optional[Callable] = None, extras: Optional[dict] = None):
        self.build, self.phi, self.beta = build, phi, beta
        self.extras = {} if extras is None else extras

    def parse(self, cfg: Config, name: str) -> Callable:
        """Parse the envelope.<name>.* values; returns build(EnvelopeInputs)."""
        prefix = f"envelope.{name}."
        phi = read_form(cfg, prefix, "phi", PHIS, *self.phi) if self.phi else None
        beta = read_form(cfg, prefix, "beta_form", BETA_FORMS, None) if self.beta else None
        extras = read_keys(cfg, prefix, self.extras)

        def build(x: EnvelopeInputs) -> DecayEnvelope:
            return self.build(x, phi, self.beta(x) if beta is None and self.beta
                              else beta, extras)
        return build


def _ipsi(x: EnvelopeInputs, phi, beta, extras) -> DecayEnvelope:
    c_eta = extras["C_eta"]
    if c_eta <= 0 and x.capacity:
        c_eta = x.capacity["C_eta_bound"]
    if c_eta <= 0:
        raise TvDecayError("ipsi envelope needs C_eta (config or capacity check)")
    eta_moment = integrate(x.mu, np.asarray(x.eta.eta(x.h0), float))
    return envelope_ipsi(c_eta, extras["M_eta"], eta_moment)


def _curvature(x: EnvelopeInputs, phi, beta, extras) -> DecayEnvelope:
    if x.rho is None or x.rho < 0:
        raise TvDecayError("curvature envelope needs rho >= 0")
    return envelope_curvature(x.rho, beta)


# a name listed in `envelopes` -> its row.  The builders look each
# envelope_<family> up by its module-level name when they run, so rebinding
# that name (e.g. to wrap it) takes effect.
ENVELOPES = {
    "poincare_l2": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_poincare_l2(x.C_P, math.sqrt(x.f0.variance))),
    "truncation_poincare": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_truncation_poincare(x.C_P, phi, x.moment(phi)),
        phi=("power", {})),
    "weak_poincare": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_weak_poincare(beta, phi, x.moment(phi)),
        phi=("power", {}), beta=lambda x: BetaFunction.constant(x.C_P)),
    "orlicz": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_orlicz(beta, phi, x.moment(phi), C=o["C"]),
        phi=("power", {"q": 3.0}), beta=lambda x: BetaFunction.constant(x.C_P),
        extras={"C": (1.0, POSITIVE)}),
    "logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_logsob(x.c_ls("logsob"), x.f0.entropy)),
    "truncation_logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_truncation_logsob(
            x.c_ls("truncation_logsob"), phi, x.moment(phi)),
        phi=("logbeta", {})),
    "weak_logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_weak_logsob(beta, phi, x.moment(phi),
                                                     eps=o["eps"]),
        phi=("power", {}), beta=lambda x: BetaFunction.constant(x.c_ls("weak_logsob")),
        extras={"eps": (1.0 / math.e, POSITIVE)}),
    "restricted_logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_restricted_logsob(x.C_P, beta, phi,
                                                           x.moment(phi)),
        phi=("power", {}),
        beta=lambda x: BetaFunction.power(x.c_ls("restricted_logsob"), 1.0)),
    "ipsi": EnvelopeFamily(_ipsi, extras={"C_eta": (0.0, ANY), "M_eta": (1.0, POSITIVE)}),
    "hellinger": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_hellinger(beta, phi, x.moment(phi)),
        phi=("linear", {}), beta=lambda x: BetaFunction.power(x.C_P, 1.0)),
    "curvature": EnvelopeFamily(_curvature, beta=lambda x: BetaFunction.constant(x.C_P)),
}


class Scenario:
    """A fully resolved scenario; `build_measure` materializes mu,
    `initial(mu)` gives h0 with the relative mass its cap removed, and
    `envelopes` maps each listed envelope, in order, to build(EnvelopeInputs)."""

    def __init__(self, config: Config, potential: PotentialSpec, n_points: int,
                 tail_tol: float, initial: Callable, sim: SimConfig, eta: EtaProfile,
                 psi_a: Optional[float], envelopes: dict, calibrate: bool,
                 analysis: dict, seed: int = 0):
        self.config, self.potential = config, potential
        self.n_points, self.tail_tol, self.initial = n_points, tail_tol, initial
        self.sim, self.eta, self.psi_a = sim, eta, psi_a
        self.envelopes, self.calibrate, self.analysis = envelopes, calibrate, analysis
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
    scn = Scenario(
        config=cfg,
        potential=potential,
        **read_keys(cfg, "grid.", GRID),
        initial=initial,
        sim=sim,
        eta=eta,
        # the splice point must exceed max(2, b), and psi(a) = (a^2 - a)/2 be finite
        psi_a=get_number(cfg, "psi.a", None, within=(max(2.0, eta.b), 1e150)),
        calibrate=choose(BOOLS, "envelopes.calibrate",
                         get_str(cfg, "envelopes.calibrate", "true").lower()),
        analysis=read_keys(cfg, "analysis.", ANALYSIS),
        envelopes={name: choose(ENVELOPES, "envelopes", name).parse(cfg, name)
                   for name in names},
    )
    for key in cfg:
        if key not in cfg.read:
            raise ConfigError(f"key {key!r} is unknown or unused in this scenario")
    return scn


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return scenario_from_config(parse_config_text(text))
