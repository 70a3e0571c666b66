"""Process control shared by the end-to-end and traced runs: paths, the
children's environment, spawning with rusage, and the exact-kernel oracle."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
DEADLINE_S = 170.0          # the whole run, set-up and checks included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The CPU speed a shared host gives us drifts by 20-50% over seconds to tens
# of seconds (see README.md).  Two fixed probes that run none of tvdecay
# measure it between timed children: CALIBRATION, a fresh interpreter that
# imports numpy and runs a Python and a numpy loop (start-up work, like a
# short CLI command), and SOLVE_STEPS banded solves in this process (the
# numerical kernel of a long simulation).  calibrate() gives the host's
# slowness, 1.0 when both take their reference time on an idle host.
CALIBRATION = ("import numpy as np\n"
               "s = 0\n"
               "for i in range(400000): s += i * i % 7\n"
               "a = np.arange(20000.0)\n"
               "for _ in range(400): a = np.sqrt(a * a + 1.0)\n")
CALIBRATION_REF_S = 0.18    # on 2 vCPUs of an idle 2.1 GHz Xeon
SOLVE_STEPS = 800
SOLVE_REF_S = 0.09          # the same host


def controlled_env() -> dict:
    """Environment for every child, and for this process before it imports
    numpy: the package from this checkout only, TVDECAY_THREADS unset and
    one BLAS/OpenMP thread."""
    env = {k: v for k, v in os.environ.items()
           if k != "TVDECAY_THREADS" and not k.startswith("PYTHON")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    """What one benchmark run found."""

    metrics: dict               # name -> (value, unit, sample count)
    attempted: int
    failed: int
    problems: dict              # where -> list of problems
    samples: dict = field(default_factory=dict)   # raw timings, for the record
    outputs: dict = field(default_factory=dict)   # first run's files, by command


@dataclass
class Run:
    rc: int
    wall: float                 # spawn to exit, seconds
    maxrss_kb: int
    outputs: dict               # file name -> bytes
    stderr: str


class Clock:
    """Wall-clock budget of one benchmark run."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return max(1.0, DEADLINE_S - self.elapsed())


def spawn(argv: list, cwd: Path, env: dict, timeout: float) -> tuple:
    """Run argv to completion; returns (exit code, wall s, max RSS KB, stderr)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (cwd / "stderr.txt").read_text(errors="replace")
    return proc.returncode, wall, usage.ru_maxrss, stderr


def run_command(cmd: workloads.Command, env: dict, clock: Clock) -> Run:
    """One CLI command in a fresh interpreter and a fresh working directory."""
    cwd = Path(tempfile.mkdtemp(dir=WORK))
    try:
        (cwd / "scenario.cfg").write_text(workloads.render(cmd.config))
        argv = [sys.executable, "-m", "tvdecay.cli", *cmd.argv("scenario.cfg", "out")]
        rc, wall, rss, stderr = spawn(argv, cwd, env, clock.left())
        outputs = {name: (cwd / "out" / name).read_bytes()
                   for name in cmd.outputs if (cwd / "out" / name).is_file()}
        return Run(rc, wall, rss, outputs, stderr)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def time_import(env: dict, clock: Clock, code: str = "import tvdecay.cli",
                flags: tuple = ()) -> tuple:
    """A fresh interpreter that only imports the CLI; returns spawn() result."""
    cwd = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return spawn([sys.executable, *flags, "-c", code], cwd, env, clock.left())
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def calibrate(env: dict, clock: Clock) -> float:
    """The host's slowness now: the geometric mean of the two probes' times
    over their reference times."""
    rc, wall, _, stderr = time_import(env, clock, CALIBRATION)
    if rc != 0:
        raise SystemExit(f"benchmark: calibration child failed: {stderr.strip()[-400:]}")
    import numpy as np
    from scipy.linalg import solve_banded
    ab = np.empty((3, 4001))
    ab[0], ab[1], ab[2] = -1.0, 3.0, -1.0
    h = np.ones(4001)
    t0 = time.perf_counter()
    for _ in range(SOLVE_STEPS):
        h = solve_banded((1, 1), ab, h) * 2.0
    solve = time.perf_counter() - t0
    return (wall / CALIBRATION_REF_S * solve / SOLVE_REF_S) ** 0.5


def check_program(env: dict, clock: Clock) -> None:
    """Fail unless children import the package from this checkout.  Also
    warms the bytecode cache, so set-up times are not first-run times."""
    rc, _, _, stderr = time_import(
        env, clock, "import tvdecay.cli, sys; "
                    "sys.stderr.write('\\nTVDECAY_AT ' + tvdecay.cli.__file__)")
    where = stderr.rsplit("TVDECAY_AT ", 1)[-1].strip() if rc == 0 else ""
    if not where or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"benchmark: cannot import tvdecay from {SRC}: "
                         f"{stderr.strip()[-400:]}")


def import_in_process():
    """Import the package into this process, from this checkout only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tvdecay.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"benchmark: tvdecay imported from {cli.__file__}")
    return cli


def oracle_errors(cmd: workloads.Command, curves: bytes) -> list:
    """Relative error of the CSV's TV against the exact OU (Mehler) kernel
    at the command's oracle times, computed in this process."""
    import_in_process()
    from tvdecay.config import scenario_from_config, parse_config_text
    from tvdecay.measures import tv_distance
    from tvdecay.simulate import ou_exact_evolve
    scn = scenario_from_config(parse_config_text(workloads.render(cmd.config)))
    mu = scn.build_measure()
    h0 = scn.build_initial(mu)
    errs = []
    for t, tv in checks.tv_at(curves, cmd.oracle_times):
        exact = tv_distance(mu, ou_exact_evolve(mu, h0, t))
        errs.append(abs(tv - exact) / exact)
    return errs


def run_oracle_probe(cmd: workloads.Command) -> bytes:
    """Run a simulate command in-process (untimed); returns its curves.csv."""
    cli = import_in_process()
    cwd = Path(tempfile.mkdtemp(dir=WORK))
    try:
        (cwd / "scenario.cfg").write_text(workloads.render(cmd.config))
        rc = cli.main(cmd.argv(str(cwd / "scenario.cfg"), str(cwd / "out")))
        if rc != 0:
            raise RuntimeError(f"oracle probe exited {rc}")
        return (cwd / "out" / "curves.csv").read_bytes()
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
