"""Scenario-driven command line: analyze | bounds | simulate | compare.

Outputs are deterministic: identical configs produce byte-identical CSV/JSON
(17 significant digits, sorted JSON keys, no wall-clock anywhere).  Exit
codes: 0 success, 2 configuration error, 3 numeric failure (the failing
operation is named on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import EnvelopeInputs, Scenario, load_scenario, render_config
from .envelopes import verdict
from .errors import ConfigError, TvDecayError
from .inequalities import bakry_emery, capacity_condition_check, muckenhoupt_poincare
from .measures import functionals
from .psi import build_psi_from_eta, splice_point
from .simulate import evolve

SERIES_COLUMNS = ("tv", "hellinger", "variance", "entropy", "i_psi",
                  "v_reverse", "e_reverse")


def write_csv(path: Path, header: list, columns: list) -> None:
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_json(path: Path, payload: dict) -> None:
    # imported here: only analyze and compare write JSON
    import json

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


def _bound_curves(scn: Scenario, mu, h0, constants: dict, times: np.ndarray):
    """Build every listed envelope, calibrate it to the TV of h0 when the
    scenario asks, and evaluate it over the t array; returns (envelopes, curves).
    A bound that overflows, is not finite or is below 0 at some t is a numeric
    failure."""
    x = EnvelopeInputs(mu, h0, functionals(mu, h0), scn.eta,
                       capacity=constants["capacity"], **constants["effective"])
    envs, curves = {}, {}
    for name, build in scn.envelopes.items():
        env = build(x)
        envs[name] = env.calibrate(x.f0.tv) if scn.calibrate else env
        try:
            curves[name] = bound = np.array(envs[name].eval(times))
        except OverflowError as exc:
            raise TvDecayError(f"envelope {name!r}: {exc} on t in "
                               f"[{times[0]:g}, {times[-1]:g}]") from None
        bad = ~np.isfinite(bound) | (bound < 0)
        if bad.any():
            raise TvDecayError(f"envelope {name!r}: the bound is {bound[bad][0]} "
                               f"at t = {times[bad][0]:g}")
    return envs, curves


def _provenance(scn: Scenario, mu, clipped_mass: float) -> dict:
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
        "clipped_mass": clipped_mass,
        "seed": scn.seed,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(scn: Scenario, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    h0, clipped_mass = scn.initial(mu)
    functionals(mu, h0)     # checks that h0 is a density, as the other commands do
    write_json(out / "constants.json", {"constants": analyze_scenario(scn, mu),
                                        "provenance": _provenance(scn, mu, clipped_mass)})


def cmd_bounds(scn: Scenario, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    h0 = scn.build_initial(mu)
    constants = analyze_scenario(scn, mu)
    # t_grid points in [dt, t_end], from 1e-3 when t_end is past it; one when dt = t_end
    dt, t_end = scn.sim.dt, scn.sim.t_end
    start = max(dt, 1e-3) if t_end > 1e-3 else dt
    ts = np.geomspace(start, t_end, t_grid if start < t_end else 1)
    _, curves = _bound_curves(scn, mu, h0, constants, ts)
    write_csv(out / "curves.csv", ["t"] + [f"bound_{n}" for n in curves],
              [ts, *curves.values()])


def _simulate(scn: Scenario, mu, h0):
    return evolve(mu, h0, scn.sim, psi=build_psi_from_eta(scn.eta, scn.psi_a))


def _series_columns(series) -> tuple:
    return ["t", *SERIES_COLUMNS], [series.times, *(getattr(series, c)
                                                    for c in SERIES_COLUMNS)]


def cmd_simulate(scn: Scenario, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    series = _simulate(scn, mu, scn.build_initial(mu))
    write_csv(out / "curves.csv", *_series_columns(series))


def cmd_compare(scn: Scenario, out: Path, t_grid: int) -> None:
    mu = scn.build_measure()
    h0, clipped_mass = scn.initial(mu)
    constants = analyze_scenario(scn, mu)
    series = _simulate(scn, mu, h0)
    envs, curves = _bound_curves(scn, mu, h0, constants, series.times)
    header, cols = _series_columns(series)
    write_csv(out / "curves.csv", header + [f"bound_{n}" for n in curves],
              cols + list(curves.values()))
    write_json(out / "summary.json", {**verdict(series.times, series.tv, curves, envs),
                                      "provenance": _provenance(scn, mu, clipped_mass)})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# numpy's warnings would print ahead of the one-line error (`envelopes._exp` still raises)
@np.errstate(all="ignore")
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
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:      # e.g. --out names a file, or a path under one
            raise ConfigError(f"--out {args.out!r}: {exc}") from None
        dispatch = {"analyze": cmd_analyze, "bounds": cmd_bounds,
                    "simulate": cmd_simulate, "compare": cmd_compare}
        dispatch[args.command](scn, out, args.t_grid)
        return 0
    except ConfigError as exc:
        print(f"tvdecay: config error: {exc}", file=sys.stderr)
        return 2
    except TvDecayError as exc:
        print(f"tvdecay: {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:      # e.g. numpy refusing a grid of 1e12 points
        print(f"tvdecay: {args.command}: MemoryError: {exc}", file=sys.stderr)
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
