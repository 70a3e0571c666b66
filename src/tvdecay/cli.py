"""Scenario-driven command line: analyze | bounds | simulate | compare.

Outputs are deterministic: identical configs produce byte-identical CSV/JSON
(17 significant digits, sorted JSON keys, no wall-clock anywhere).  Exit
codes: 0 success, 2 configuration error, 3 numeric failure (the failing
operation is named on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .config import (ANY, POSITIVE, Scenario, choose, get_number, get_str, load_scenario,
                     render_config)
from .envelopes import (
    DecayEnvelope,
    envelope_curvature,
    envelope_hellinger,
    envelope_ipsi,
    envelope_logsob,
    envelope_orlicz,
    envelope_poincare_l2,
    envelope_restricted_logsob,
    envelope_truncation_logsob,
    envelope_truncation_poincare,
    envelope_weak_logsob,
    envelope_weak_poincare,
)
from .errors import BadExponent, ConfigError, TvDecayError
from .inequalities import (
    BetaFunction,
    bakry_emery,
    capacity_condition_check,
    muckenhoupt_poincare,
)
from .measures import Functionals, ProbabilityMeasure1D, functionals, integrate
from .psi import EtaProfile, build_psi_from_eta, splice_point
from .simulate import evolve
from ._numerics import fit_log_slope

SERIES_COLUMNS = ("tv", "hellinger", "variance", "entropy", "i_psi",
                  "v_reverse", "e_reverse")


def write_csv(path: Path, header: list, columns: list) -> None:
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # numpy scalars and arrays become plain JSON numbers and lists
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True,
                  default=lambda x: x.tolist())
        fh.write("\n")


# ---------------------------------------------------------------------------
# analysis assembly
# ---------------------------------------------------------------------------

def analyze_scenario(scn: Scenario, mu) -> dict:
    opt = scn.analysis
    bracket = muckenhoupt_poincare(mu)
    be = bakry_emery(mu, w_osc=opt["w_osc"])

    def pick(key, computed):
        return computed if opt[key] is None else opt[key]

    capacity = None
    if opt["capacity_rho"] is not None:
        f_const = opt["capacity_f_const"]
        chk = capacity_condition_check(
            mu, lambda u: np.full_like(np.asarray(u, float), f_const),
            scn.eta, splice_point(scn.eta, scn.psi_a), opt["capacity_rho"])
        capacity = {k: getattr(chk, k) for k in (
            "HprimeF_sup_right", "HprimeF_sup_left", "C_cap", "C_eta_bound",
            "alt_remark_ratio_sup", "alt_remark_flag")}
    return {
        "poincare": {"B_plus": bracket.B_plus, "B_minus": bracket.B_minus,
                     "B": bracket.B, "C_P_interval": list(bracket.C_P_interval)},
        "bakry_emery": {"rho": be.rho, "C_LS": be.C_LS, "w_osc": opt["w_osc"]},
        "effective": {"C_P": pick("c_p_override", bracket.C_P_interval[1]),
                      "C_LS": pick("c_ls_override", be.C_LS),
                      "rho": pick("rho_override", be.rho)},
        "capacity": capacity,
    }


# ---------------------------------------------------------------------------
# envelope table
# ---------------------------------------------------------------------------

# envelope.<name>.phi -> (phi of its parameter, its key or None, where phi rises to infinity)
PHIS = {
    "power": (lambda q: lambda u: np.asarray(u, float) ** (q - 1.0), "q", (1.0, math.inf)),
    "logbeta": (lambda b: lambda u: np.maximum(
        np.log(np.maximum(np.asarray(u, float), 1e-300)), 0.0) ** b, "beta_exp", POSITIVE),
    "linear": (lambda _: lambda u: np.asarray(u, float), None, None),
    "loglog": (lambda _: lambda u: np.log1p(np.maximum(np.log(np.maximum(
        np.asarray(u, float), 1.0)), 0.0)), None, None),
}
PHI_KEYS = tuple(key for _, key, _ in PHIS.values() if key)
# beta_form -> (constructor, the envelope.<name>.* keys it takes, in order)
BETA_FORMS = {"constant": (BetaFunction.constant, ("beta_c",)),
              "power": (BetaFunction.power, ("beta_c", "beta_q")),
              "logpower": (BetaFunction.logpower, ("beta_d", "beta_r", "beta_s0"))}
BETA_DEFAULTS = {"beta_c": 1.0, "beta_q": 1.0, "beta_d": 1.0, "beta_r": 1.0,
                 "beta_s0": 2.0}


def _reject_unread(cfg: dict, prefix: str, keys, read, form: str) -> None:
    """A set key of `keys` that `form` does not read (not in `read`) is a ConfigError.
    Looks with `in`, so the keys it passes over are not marked read."""
    for k in keys:
        if k not in read and prefix + k in cfg:
            raise ConfigError(f"key {prefix + k!r} is not read with {form}")


def _phi_from_config(cfg: dict, prefix: str, default_family: str, default_param: float):
    family = get_str(cfg, prefix + "phi", default_family)
    make, key, within = choose(PHIS, prefix + "phi", family)
    _reject_unread(cfg, prefix, PHI_KEYS, (key,), f"{prefix}phi = {family}")
    return make(get_number(cfg, prefix + key, default_param, within=within) if key else None)


def _beta_from_config(cfg: dict, prefix: str) -> Optional[BetaFunction]:
    """The configured beta, or None when beta_form is unset (family default)."""
    form = get_str(cfg, prefix + "beta_form")
    make, keys = choose(BETA_FORMS, prefix + "beta_form", form) if form else (None, ())
    _reject_unread(cfg, prefix, BETA_DEFAULTS, keys,
                   f"{prefix}beta_form " + (f"= {form}" if form else "unset"))
    if form is None:
        return None
    args = [get_number(cfg, prefix + k, BETA_DEFAULTS[k]) for k in keys]
    try:
        return make(*args)
    except BadExponent as exc:
        given = ", ".join(f"{prefix}{k} = {a:g}" for k, a in zip(keys, args))
        raise ConfigError(f"{given}: {exc}") from exc


class _Inputs:
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
    """One row of the envelope table: `build(x, phi, beta, extras)` with the
    default phi (family, parameter), the default beta as a function of the
    _Inputs x, and the family's own keys with (default, the open interval a
    set value must lie in), none by default.  `parse` reads exactly the
    envelope.<name>.* keys that these entries and the selected phi and beta
    forms take."""

    def __init__(self, build: Callable, phi: Optional[tuple] = None,
                 beta: Optional[Callable] = None, extras: Optional[dict] = None):
        self.build, self.phi, self.beta = build, phi, beta
        self.extras = {} if extras is None else extras

    def parse(self, cfg: dict, name: str) -> Callable:
        """Parse the envelope.<name>.* values; returns build(_Inputs)."""
        prefix = f"envelope.{name}."
        phi = _phi_from_config(cfg, prefix, *self.phi) if self.phi else None
        beta = _beta_from_config(cfg, prefix) if self.beta else None
        extras = {k: get_number(cfg, prefix + k, d, within=w)
                  for k, (d, w) in self.extras.items()}

        def build(x: _Inputs) -> DecayEnvelope:
            return self.build(x, phi, self.beta(x) if beta is None and self.beta
                              else beta, extras)
        return build


def _ipsi(x: _Inputs, phi, beta, extras) -> DecayEnvelope:
    c_eta = extras["C_eta"]
    if c_eta <= 0 and x.capacity:
        c_eta = x.capacity["C_eta_bound"]
    if c_eta <= 0:
        raise TvDecayError("ipsi envelope needs C_eta (config or capacity check)")
    eta_moment = integrate(x.mu, np.asarray(x.eta.eta(x.h0), float))
    return envelope_ipsi(c_eta, extras["M_eta"], eta_moment)


def _curvature(x: _Inputs, phi, beta, extras) -> DecayEnvelope:
    if x.rho is None or x.rho < 0:
        raise TvDecayError("curvature envelope needs rho >= 0")
    return envelope_curvature(x.rho, beta)


# The builders look each envelope_<family> up by its module-level name when
# they run, so rebinding that name (e.g. to wrap it) takes effect.
ENVELOPES = {
    "poincare_l2": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_poincare_l2(x.C_P, math.sqrt(x.f0.variance))),
    "truncation_poincare": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_truncation_poincare(x.C_P, phi, x.moment(phi)),
        phi=("power", 1.5)),
    "weak_poincare": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_weak_poincare(beta, phi, x.moment(phi)),
        phi=("power", 1.5), beta=lambda x: BetaFunction.constant(x.C_P)),
    "orlicz": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_orlicz(beta, phi, x.moment(phi), C=o["C"]),
        phi=("power", 3.0), beta=lambda x: BetaFunction.constant(x.C_P),
        extras={"C": (1.0, POSITIVE)}),
    "logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_logsob(x.c_ls("logsob"), x.f0.entropy)),
    "truncation_logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_truncation_logsob(
            x.c_ls("truncation_logsob"), phi, x.moment(phi)),
        phi=("logbeta", 1.0)),
    "weak_logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_weak_logsob(beta, phi, x.moment(phi),
                                                     eps=o["eps"]),
        phi=("power", 1.5), beta=lambda x: BetaFunction.constant(x.c_ls("weak_logsob")),
        extras={"eps": (1.0 / math.e, POSITIVE)}),
    "restricted_logsob": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_restricted_logsob(x.C_P, beta, phi,
                                                           x.moment(phi)),
        phi=("power", 1.5),
        beta=lambda x: BetaFunction.power(x.c_ls("restricted_logsob"), 1.0)),
    "ipsi": EnvelopeFamily(_ipsi, extras={"C_eta": (0.0, ANY), "M_eta": (1.0, POSITIVE)}),
    "hellinger": EnvelopeFamily(
        lambda x, phi, beta, o: envelope_hellinger(beta, phi, x.moment(phi)),
        phi=("linear", 0.0), beta=lambda x: BetaFunction.power(x.C_P, 1.0)),
    "curvature": EnvelopeFamily(_curvature, beta=lambda x: BetaFunction.constant(x.C_P)),
}


def plan_envelopes(scn: Scenario) -> dict:
    """name -> build(_Inputs) for every requested envelope, from its name in
    ENVELOPES and its envelope.<name>.* values; then, as the config's last
    reader, rejects the first set key that nothing read.  Does no numeric work."""
    plan = {name: choose(ENVELOPES, "envelopes", name).parse(scn.config, name)
            for name in scn.envelope_names}
    for key in scn.config:
        if key not in scn.config.read:
            raise ConfigError(f"key {key!r} is unknown or unused in this scenario")
    return plan


def _bound_curves(scn: Scenario, plan: dict, mu, h0, constants: dict, times: np.ndarray):
    """Build every planned envelope, calibrate it to the TV of h0 when the
    scenario asks, and evaluate it over the t array; returns (envelopes, curves).
    A bound that overflows, is not finite or is below 0 at some t is a numeric
    failure."""
    x = _Inputs(mu, h0, functionals(mu, h0), scn.eta, capacity=constants["capacity"],
                **constants["effective"])
    envs, curves = {}, {}
    for name, build in plan.items():
        env = build(x)
        envs[name] = env.calibrate(x.f0.tv) if scn.calibrate else env
        try:
            curves[name] = bound = np.array(envs[name].eval(times))
        except (OverflowError, ValueError) as exc:
            raise TvDecayError(f"envelope {name!r}: {exc} on t in "
                               f"[{times[0]:g}, {times[-1]:g}]") from None
        bad = ~np.isfinite(bound) | (bound < 0)
        if bad.any():
            raise TvDecayError(f"envelope {name!r}: the bound is {bound[bad][0]} "
                               f"at t = {times[bad][0]:g}")
    return envs, curves


def _provenance(scn: Scenario, mu) -> dict:
    return {
        "tool_version": __version__,
        "config_echo": render_config(scn.config),
        "grid": {
            "n_points": int(len(mu.grid)),
            "x_min": float(mu.grid[0]),
            "x_max": float(mu.grid[-1]),
            "dx": float(mu.dx),
            "log_partition": float(mu.log_partition),
            "median": float(mu.median),
        },
        "clipped_mass": scn.clipped_mass,
        "seed": scn.seed,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(scn: Scenario, plan: dict, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    constants = analyze_scenario(scn, mu)
    payload = {"constants": constants, "provenance": _provenance(scn, mu)}
    write_json(out / "constants.json", payload)


def cmd_bounds(scn: Scenario, plan: dict, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    h0 = scn.build_initial(mu)
    constants = analyze_scenario(scn, mu)
    ts = np.geomspace(max(scn.sim.dt, 1e-3), scn.sim.t_end, t_grid)
    _, curves = _bound_curves(scn, plan, mu, h0, constants, ts)
    write_csv(out / "curves.csv", ["t"] + [f"bound_{n}" for n in curves],
              [ts, *curves.values()])


def _simulate(scn: Scenario, mu, h0):
    return evolve(mu, h0, scn.sim, psi=build_psi_from_eta(scn.eta, scn.psi_a))


def _series_columns(series) -> tuple:
    return ["t", *SERIES_COLUMNS], [series.times, *(getattr(series, c)
                                                    for c in SERIES_COLUMNS)]


def cmd_simulate(scn: Scenario, plan: dict, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    series = _simulate(scn, mu, scn.build_initial(mu))
    write_csv(out / "curves.csv", *_series_columns(series))


def cmd_compare(scn: Scenario, plan: dict, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    h0 = scn.build_initial(mu)
    constants = analyze_scenario(scn, mu)
    series = _simulate(scn, mu, h0)
    envs, curves = _bound_curves(scn, plan, mu, h0, constants, series.times)
    header, cols = _series_columns(series)
    write_csv(out / "curves.csv", header + [f"bound_{n}" for n in curves],
              cols + list(curves.values()))

    half = series.times >= 0.5 * series.times[-1]
    tv_slope = fit_log_slope(series.times[half],
                             np.maximum(series.tv[half], 1e-300))
    summary = {"envelopes": {}, "tv_fitted_slope": tv_slope}
    for name, bound in curves.items():
        dominated = bound >= series.tv - 1e-12
        summary["envelopes"][name] = {
            "domination_fraction": float(np.mean(dominated)),
            "fitted_slope": fit_log_slope(series.times[half],
                                          np.maximum(bound[half], 1e-300)),
            "valid_from": envs[name].valid_from,
            "calibration_scale": envs[name].scale,
        }
    summary["provenance"] = _provenance(scn, mu)
    write_json(out / "summary.json", summary)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tvdecay",
        description="Total-variation decay envelopes and Fokker-Planck "
                    "verification for 1-D ergodic diffusions.")
    parser.add_argument("command",
                        choices=["analyze", "bounds", "simulate", "compare"])
    parser.add_argument("config", help="scenario configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--t-grid", type=_positive_int, default=200,
                        help="number of t samples for bounds")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed echoed into provenance (commands are "
                             "deterministic)")
    args = parser.parse_args(argv)

    try:
        scn = load_scenario(args.config)
        scn.seed = args.seed
        plan = plan_envelopes(scn)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dispatch = {"analyze": cmd_analyze, "bounds": cmd_bounds,
                    "simulate": cmd_simulate, "compare": cmd_compare}
        dispatch[args.command](scn, plan, out, args.t_grid)
        return 0
    except ConfigError as exc:
        print(f"tvdecay: config error: {exc}", file=sys.stderr)
        return 2
    except TvDecayError as exc:
        print(f"tvdecay: {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


# `run` ends the process with os._exit, skipping interpreter teardown (module
# teardown of numpy and scipy's LAPACK extension, GC of every object): 25-28 ms
# of a 200-220 ms command (medians of 9 fresh processes on a 2-CPU host,
# 1001-point gaussian analyze, bounds and simulate).  Nothing is lost by it:
# write_csv and write_json close every output file inside `with open(...)`
# before `main` returns, the package registers no atexit hook and starts no
# thread, and the standard streams are flushed here.  A usage error, --help
# or a traceback leaves `main` by exception and so exits the normal way.
def run() -> None:
    """Console entry point: `main`'s exit code, without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
