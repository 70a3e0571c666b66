#!/usr/bin/env python3
"""tvdecay benchmark: drives the CLI the way users run it and prints every
metric named in BENCHMARK.json.

    python3 benchmark/run.py --workload ou_longrun --seed 0 --seconds 30 --trace 0

With --trace 0 each command of the workload runs in a fresh interpreter
(`python -m tvdecay.cli ...`), one after the other (a closed loop with one
client), and the fixed command list repeats, at least twice, for about
--seconds.  A calibration between timed children gives the host's
current speed, and the timings are reported at a fixed reference speed
(see harness.calibrate).  The last stdout line is a JSON object with the
end-to-end metrics.  With --trace 1 the same commands run in-process with a
span around each public call into the package (see tracing.py) and the JSON
carries the per-layer metrics.  Lines before it, starting with `#`, give
every metric with its unit and sample count.  Run it from the repository
root; it reads and writes only inside the repository (.bench_work/,
.bench_out/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from harness import (DEADLINE_S, REFERENCE, RESULTS, ROOT, SRC,  # noqa: E402
                     THREAD_VARS, WORK, Clock, Outcome, calibrate, oracle_errors,
                     run_command, run_oracle_probe, time_import)

DEFAULT_SEED = 0
# printed and recorded, but not part of the result line
INFORMATIVE = ("failed_frac", "raw_setup_s", "raw_cmd_p50_s", "raw_wall_s",
               "host_slowness")


def oracle_check(wl: workloads.Workload, cmd: workloads.Command, curves,
                 errors: list) -> list:
    """Check the TV of curves() against the exact kernel; appends the relative
    errors to `errors` and returns the problems found."""
    try:
        errs = oracle_errors(cmd, curves())
    except Exception as exc:    # a crash of the program or a missing save time
        return [f"oracle check failed: {type(exc).__name__}: {exc}"]
    errors += errs
    if max(errs) > wl.oracle_tol:
        return [f"TV off the exact kernel by {max(errs):.3e} (relative), "
                f"tolerance {wl.oracle_tol:g}"]
    return []


def scaled(walls: list, slowness: list) -> list:
    """walls[k] at the reference speed, by the host's slowness measured just
    before it (slowness[k]) and just after it (slowness[k + 1])."""
    return [w * 2 / (before + after)
            for w, before, after in zip(walls, slowness, slowness[1:])]


def end_to_end(wl: workloads.Workload, args, env: dict, clock: Clock,
               reference) -> Outcome:
    # Every timed child sits between two calibrations and is divided by the
    # mean slowness they measure, which takes out the drift of the host's
    # CPU speed (see harness.calibrate).
    setup, setup_slow = [], [calibrate(env, clock)]
    for _ in range(2 if args.smoke else 7):
        setup.append(time_import(env, clock)[1])
        setup_slow.append(calibrate(env, clock))

    runs = []                   # (command index, Run), in execution order
    loop_slow = [calibrate(env, clock)]
    walls = {i: [] for i in range(len(wl.commands))}
    t0 = time.perf_counter()
    passes = 0
    while True:
        for i, cmd in enumerate(wl.commands):
            # after two whole passes, start no command that would end after
            # --seconds (judged by its median so far)
            if passes >= 2 and (time.perf_counter() - t0
                                + statistics.median(walls[i]) > args.seconds):
                break
            run = run_command(cmd, env, clock)
            loop_slow.append(calibrate(env, clock))
            runs.append((i, run))
            walls[i].append(run.wall)
        else:
            passes += 1
            pass_wall = sum(w[-1] for w in walls.values())
            if clock.elapsed() <= DEADLINE_S - 2 * pass_wall - 15:
                continue
        break                   # out of --seconds, or time left only for checks

    # --- checks, outside the timed loop ------------------------------------
    first = {}
    for i, run in runs:
        first.setdefault(i, run)
    problems = {wl.commands[i].id: [] for i in first}
    oracle = []
    for i, run in first.items():
        cmd = wl.commands[i]
        found = problems[cmd.id]
        if run.rc != 0:
            found.append(f"exit {run.rc}: {run.stderr.strip()[-300:]}")
            continue
        missing = [n for n in cmd.outputs if n not in run.outputs]
        if missing:
            found.append(f"missing outputs {missing}")
            continue
        found += checks.sanity(cmd.verb, run.outputs)
        if reference is not None:
            for name, data in run.outputs.items():
                ref = reference / wl.name / cmd.id / name
                if ref.is_file():
                    found += checks.compare_to_reference(name, ref.read_bytes(), data)
                else:
                    found.append(f"{name}: no reference at {ref}")
        if cmd.oracle_times:
            found += oracle_check(wl, cmd, lambda: run.outputs["curves.csv"], oracle)
    attempted = len(runs)
    failed = 0
    for i, run in runs:
        found = problems[wl.commands[i].id]
        same = run is first[i] or run.outputs == first[i].outputs
        if not same and run.rc == 0:
            found.append("outputs differ between two runs of one config")
        if run.rc != 0 or found or not same:
            failed += 1
    probe = wl.oracle_probe
    if probe is not None:
        attempted += 1
        problems[probe.id] = oracle_check(wl, probe, lambda: run_oracle_probe(probe),
                                          oracle)
        failed += bool(problems[probe.id])

    setup_scaled = scaled(setup, setup_slow)
    cmd_scaled = {i: [] for i in walls}
    for (i, _), w in zip(runs, scaled([run.wall for _, run in runs], loop_slow)):
        cmd_scaled[i].append(w)
    medians = [statistics.median(w) for w in cmd_scaled.values()]
    raw_medians = [statistics.median(w) for w in walls.values()]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s", len(setup)),
        # the median command of the list, each command at its median wall
        "cmd_p50_s": (statistics.median(medians), "s", len(runs)),
        # one pass over the command list, each command at its median wall
        "wall_s": (sum(medians), "s", len(runs)),
        "peak_rss_mb": (max(run.maxrss_kb for _, run in runs) / 1024.0, "MB",
                        len(runs)),
        # 1.0 (a total miss) when no TV could be checked; the run then fails
        "tv_oracle_err": (max(oracle) if oracle else 1.0, "frac", len(oracle)),
        "failed_frac": (failed / attempted, "frac", attempted),
        # the same timings unscaled, as this host ran them, and the scale
        "raw_setup_s": (statistics.median(setup), "s", len(setup)),
        "raw_cmd_p50_s": (statistics.median(raw_medians), "s", len(runs)),
        "raw_wall_s": (sum(raw_medians), "s", len(runs)),
        "host_slowness": (statistics.median(loop_slow), "x", len(loop_slow)),
    }
    return Outcome(metrics, attempted, failed, {k: p for k, p in problems.items() if p},
                   samples={"setup_s": setup, "setup_slowness": setup_slow,
                            "slowness": loop_slow, "passes": passes,
                            "command_s": {wl.commands[i].id: w
                                          for i, w in walls.items()}},
                   outputs={i: r.outputs for i, r in first.items()})


def write_reference(wl: workloads.Workload, outputs: dict, reference: Path) -> None:
    target = reference / wl.name
    shutil.rmtree(target, ignore_errors=True)
    for i, files in outputs.items():
        d = target / wl.commands[i].id
        d.mkdir(parents=True)
        for name, data in files.items():
            (d / name).write_bytes(data)


def environment_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_before": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grids and few repetitions, for the self-test")
    parser.add_argument("--reference", type=Path, default=None,
                        help="directory of reference outputs (default: the committed "
                             "ones, used for the default seed at full size)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference instead of "
                             "checking against it")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are written for --seed {DEFAULT_SEED} only")
    if args.write_reference and args.smoke and args.reference is None:
        parser.error("smoke-size references need their own --reference directory")

    if not (SRC / "tvdecay" / "cli.py").is_file():
        print(f"benchmark: no tvdecay sources under {SRC}", file=sys.stderr)
        return 2
    env = harness.controlled_env()
    os.environ.pop("TVDECAY_THREADS", None)
    os.environ.update({k: "1" for k in THREAD_VARS})
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)

    facts = environment_facts()
    clock = Clock()
    wl = workloads.build(args.workload, args.seed, args.smoke)
    harness.check_program(env, clock)
    reference = args.reference
    if reference is None and args.seed == DEFAULT_SEED and not args.smoke:
        reference = REFERENCE
    if args.write_reference:
        reference = None

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        import tracing
        out = tracing.traced_run(wl, env, clock, tag)
    else:
        out = end_to_end(wl, args, env, clock, reference)
        if args.write_reference and out.failed == 0:
            write_reference(wl, out.outputs, args.reference or REFERENCE)
    facts["loadavg_after"] = list(os.getloadavg())

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": facts, "problems": out.problems,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in out.metrics.items()},
              "samples": out.samples}
    result_path = RESULTS / f"{tag}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {facts['nproc']}  python {facts['python']}  numpy {facts['numpy']}  "
          f"scipy {facts['scipy']}  loadavg {facts['loadavg_before'][0]:.2f} -> "
          f"{facts['loadavg_after'][0]:.2f}")
    print(f"# why: {wl.why}")
    for name, (value, unit, n) in out.metrics.items():
        print(f"# {name:44s} {value:14.6g} {unit:6s} n={n}")
    for where, found in out.problems.items():
        for p in found:
            print(f"# FAILED {where}: {p}")
    print(f"# record: {result_path.relative_to(ROOT)}")
    reported = {k: {"value": v, "unit": u} for k, (v, u, _) in out.metrics.items()
                if k not in INFORMATIVE}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
