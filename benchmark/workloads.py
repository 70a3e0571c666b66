"""Benchmark workloads: each one turns a seed into scenario files and a fixed
list of CLI commands.

The seed draws only input parameters (initial-density shift and amplitude,
the psi profile, the order of commands or envelope columns).  Grid sizes,
step counts and envelope sets are fixed per workload, so every seed asks the
program for the same amount of work and figures from different seeds are
comparable.  The program sees nothing but the generated config files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The ten envelope families that build from the analysed constants alone
# (`ipsi` needs a capacity constant the scenarios do not supply).
FAMILIES = (
    "poincare_l2", "truncation_poincare", "weak_poincare", "orlicz", "logsob",
    "truncation_logsob", "weak_logsob", "restricted_logsob", "hellinger",
    "curvature",
)

OUTPUTS = {
    "analyze": ("constants.json",),
    "bounds": ("curves.csv",),
    "simulate": ("curves.csv",),
    "compare": ("curves.csv", "summary.json"),
}


def render(cfg: dict) -> str:
    """Config text in the CLI's flat `section.key = value` format."""
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


@dataclass(frozen=True)
class Command:
    """One CLI run: `python -m tvdecay.cli <verb> scenario.cfg --out out <extra>`."""

    id: str                     # stable name; the reference outputs live under it
    verb: str                   # analyze | bounds | simulate | compare
    config: dict
    extra: tuple = ()
    # save times at which the TV column is checked against the exact
    # Ornstein-Uhlenbeck kernel (empty when the potential is not x^2/2)
    oracle_times: tuple = ()

    @property
    def outputs(self) -> tuple:
        return OUTPUTS[self.verb]

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.verb, config_path, "--out", out_dir, *self.extra]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple             # run in this order, one fresh process each
    # scenario the traced run uses for its per-unit probes (step_us, save_us,
    # functionals_us) and for envelope families the commands do not build
    probe_config: dict
    # largest accepted relative error of the simulated TV against the exact
    # kernel; a larger error fails the command (or the probe, see below)
    oracle_tol: float
    # a workload whose commands simulate no OU scenario runs this simulate
    # command in-process, untimed, to report tv_oracle_err
    oracle_probe: Command = None


def _ou_config(initial: dict, smoke: bool, t_end: float = 3.0) -> dict:
    n, dt, save = (801, 2e-3, 25) if smoke else (4001, 2e-4, 100)
    return {
        "potential.family": "gaussian",
        "grid.n_points": n,
        **initial,
        "sim.dt": dt,
        "sim.t_end": 0.5 if smoke else t_end,
        "sim.save_every": save,
        "psi.eta": "quadratic",
        "envelopes": "poincare_l2, logsob",
        # uncalibrated bounds are the theorems' certified bounds, so the
        # domination check is a real invariant (see README.md)
        "envelopes.calibrate": "false",
    }


def ou_longrun(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"ou_longrun:{seed}")
    cfg = _ou_config({"initial.family": "shifted_gaussian",
                      "initial.shift": f"{rng.uniform(0.3, 0.7):.6f}"}, smoke)
    times = (0.1, 0.25, 0.5) if smoke else (0.5, 1.0, 2.0, 3.0)
    return Workload(
        name="ou_longrun",
        why=("one long compare on the Gaussian/OU case: the simulate solve loop "
             "(15 000 banded solves) does most of the work, envelopes almost none"),
        commands=(Command("compare", "compare", cfg, oracle_times=times),),
        probe_config=cfg,
        oracle_tol=1e-2 if smoke else 1e-3,
    )


def envelope_grid(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"envelope_grid:{seed}")
    families = list(FAMILIES)
    rng.shuffle(families)
    cfg = {
        "potential.family": "power",
        "potential.alpha": 1,
        "grid.n_points": 801 if smoke else 4001,
        "initial.family": "step",
        "sim.dt": 1e-3,
        "sim.t_end": 3.0,
        # exp(-2|x|) has no log-Sobolev constant; the override lets the
        # log-Sobolev families build so that every family is evaluated
        "analysis.c_ls_override": 1.0,
        "envelopes": ", ".join(families),
    }
    t_grid = 40 if smoke else 1000
    # the linear mode keeps the relative oracle error independent of epsilon
    probe = Command("oracle-probe", "simulate",
                    _ou_config({"initial.family": "eigen_perturbation",
                                "initial.epsilon": f"{rng.uniform(0.1, 0.3):.6f}"},
                               smoke, t_end=0.5),
                    oracle_times=(0.1, 0.3, 0.5))
    return Workload(
        name="envelope_grid",
        why=("one bounds run of all ten families at 1000 t points on exp(-2|x|): "
             "envelope eval does most of the work, simulate none"),
        commands=(Command("bounds", "bounds", cfg, ("--t-grid", str(t_grid))),),
        probe_config=cfg,
        oracle_tol=1e-2 if smoke else 1e-3,
        oracle_probe=probe,
    )


def cli_matrix(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"cli_matrix:{seed}")
    n, t_end = (201, 0.2) if smoke else (1001, 1.0)

    def eta():
        kind = rng.choice(("quadratic", "entropy", "power"))
        return f"power({rng.uniform(1.3, 1.9):.4f})" if kind == "power" else kind

    common = {
        "grid.n_points": n,
        "sim.dt": 1e-3,
        "sim.t_end": t_end,
        "sim.save_every": 1,
        "envelopes": "poincare_l2, truncation_poincare",
        "envelopes.calibrate": "false",
    }
    # the gaussian scenario starts from the linear mode, which the OU flow
    # only rescales, so the oracle's relative error does not depend on epsilon
    scenarios = {
        "gaussian": {"potential.family": "gaussian",
                     "initial.family": "eigen_perturbation",
                     "initial.epsilon": f"{rng.uniform(0.1, 0.3):.6f}"},
        "power1": {"potential.family": "power", "potential.alpha": 1,
                   "initial.family": "shifted_gaussian",
                   "initial.shift": f"{rng.uniform(0.3, 0.7):.6f}"},
        "power4": {"potential.family": "power", "potential.alpha": 4,
                   "initial.family": "shifted_gaussian",
                   "initial.shift": f"{rng.uniform(0.3, 0.7):.6f}"},
    }
    for sc in scenarios.values():
        sc.update(common)
        sc["psi.eta"] = eta()
    oracle = (0.1, 0.2) if smoke else (0.25, 0.5, 1.0)
    commands = [
        Command(f"{name}-{verb}", verb, cfg,
                oracle_times=oracle if name == "gaussian" and verb in (
                    "simulate", "compare") else ())
        for name, cfg in scenarios.items()
        for verb in ("analyze", "bounds", "simulate", "compare")
    ]
    rng.shuffle(commands)
    # truncation_logsob crashes on a linear-mode start with small epsilon
    # (see README.md), so the probe starts the gaussian case shifted instead
    probe = {**scenarios["gaussian"], "initial.family": "shifted_gaussian",
             "initial.shift": f"{rng.uniform(0.3, 0.7):.6f}"}
    return Workload(
        name="cli_matrix",
        why=("12 short commands (3 potentials x 4 verbs): interpreter start and "
             "import dominate, then psi, measures and the per-save diagnostics"),
        commands=tuple(commands),
        probe_config=probe,
        oracle_tol=1e-2,
    )


WORKLOADS = {"ou_longrun": ou_longrun, "envelope_grid": envelope_grid,
             "cli_matrix": cli_matrix}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
