"""Traced run: the workload's commands in-process, with a span around each
public call into the package, plus fresh-process import timings.

A span records (name, start, end, parent, workload id) and counts taken at
the same boundary (steps, saves, t points, bytes).  Spans stay in memory and
are written to .bench_out/ when the run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.  The spans come
from wrapping package functions from outside; nothing inside the package
is timed.

Work is tagged with one of three workload ids:
  <workload>        the workload's own commands (self-time shares)
  <workload>/probe  commands that fill layers the workload does not touch,
                    so every per-layer metric exists on every workload
  <workload>/unit   short simulate runs for the per-unit costs
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import harness
import workloads

LAYERS = ("import", "config", "measures", "psi", "inequalities", "simulate",
          "envelopes", "cli")
IMPORTED = {"tvdecay.cli": "import.tvdecay_cli_s",
            "scipy.interpolate": "import.scipy_interpolate_s",
            "scipy.linalg": "import.scipy_linalg_s",
            "scipy.optimize": "import.scipy_optimize_s"}
UNIT_STEPS = 400            # simulate steps in each per-unit probe
PROBE_T_GRID = 200          # t points for envelope families a workload lacks


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    workload: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.workload = ""
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.workload))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            tracer.spans[idx].counts.update(count(args, kwargs, out))
        return out
    return traced


def _evolve_counts(args, kwargs, series):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"steps": int(round(config.t_end / config.dt)),
            "saves": len(series.times)}


def _targets():
    """(module, attribute, span name, counter) for every traced public call."""
    from tvdecay import cli, config, envelopes, inequalities, measures, psi, simulate
    initial = ("step_density", "shifted_gaussian_density", "eigen_perturbation",
               "tail_ratio_density", "tabulated_density")
    return [
        (config, "load_scenario", "config.load_scenario", None),
        (measures, "build_measure", "measures.build_measure",
         lambda a, k, mu: {"grid_points": len(mu.grid)}),
        *[(measures, f, "measures.build_initial", None) for f in initial],
        (measures, "functionals", "measures.functionals", None),
        (psi, "build_psi_from_eta", "psi.build_psi", None),
        (inequalities, "muckenhoupt_poincare", "inequalities.muckenhoupt", None),
        (inequalities, "bakry_emery", "inequalities.bakry_emery", None),
        (simulate, "evolve", "simulate.evolve", _evolve_counts),
        *[(envelopes, f"envelope_{f}", f"envelopes.build:{f}", None)
          for f in workloads.FAMILIES],
        (cli, "write_csv", "cli.write", lambda a, k, _: {"bytes": Path(a[0]).stat().st_size}),
        (cli, "write_json", "cli.write", lambda a, k, _: {"bytes": Path(a[0]).stat().st_size}),
    ]


class Instrumented:
    """While active, every reference to a traced function in the package's
    modules points at its wrapper, and DecayEnvelope.eval records one span
    per call named after the envelope family."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        from tvdecay import envelopes
        modules = [m for n, m in sys.modules.items()
                   if n == "tvdecay" or n.startswith("tvdecay.")]
        for module, attr, name, count in _targets():
            orig = getattr(module, attr)
            wrapper = _wrap(self.tracer, name, orig, count)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)
        cls = envelopes.DecayEnvelope
        orig_eval = cls.eval
        tracer, tv_max = self.tracer, envelopes.TV_MAX

        def traced_eval(env, t):
            idx = tracer.open("envelopes.eval:" + env.name)
            try:
                out = orig_eval(env, t)
            finally:
                tracer.close(idx)
            vals = [out] if isinstance(out, float) else list(out)
            tracer.spans[idx].counts.update(
                t_points=len(vals), nonvacuous=sum(v < tv_max for v in vals))
            return out

        self._undo.append((cls, "eval", orig_eval))
        cls.eval = traced_eval
        return self

    def __exit__(self, *exc):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()


def _main(cli, argv: list) -> int:
    """cli.main, with an escaping exception counted as a failed command."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def _run_in_process(cli, commands, tracer, workload: str,
                    untraced: bool = False) -> tuple:
    """Run commands through cli.main in this process, each as a root span
    `cli.<verb>`; returns (untraced seconds, failures).

    With untraced=True each command also runs twice without instrumentation,
    before and after the traced run; the second of these is the baseline for
    the tracing overhead (the first absorbs one-time warm-up costs)."""
    baseline, failures = 0.0, 0
    for cmd in commands:
        cwd = Path(tempfile.mkdtemp(dir=harness.WORK))
        try:
            cfg = cwd / "scenario.cfg"
            cfg.write_text(workloads.render(cmd.config))
            argv = cmd.argv(str(cfg), str(cwd / "out"))
            if untraced:
                failures += _main(cli, argv) != 0
            tracer.workload = workload
            with Instrumented(tracer):
                idx = tracer.open(f"cli.{cmd.verb}")
                try:
                    failures += _main(cli, argv) != 0
                finally:
                    tracer.close(idx)
            if untraced:
                t0 = time.perf_counter()
                failures += _main(cli, argv) != 0
                baseline += time.perf_counter() - t0
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
    return baseline, failures


def _import_times(env: dict, clock, reps: int) -> tuple:
    """Median wall of a fresh `import tvdecay.cli`, and the medians of
    `-X importtime` cumulative times for the modules in IMPORTED."""
    walls = [harness.time_import(env, clock)[1] for _ in range(reps)]
    found = {name: [] for name in IMPORTED}
    for _ in range(reps):
        rc, _, _, err = harness.time_import(env, clock, flags=("-X", "importtime"))
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return statistics.median(walls), {IMPORTED[k]: v for k, v in found.items()}


def _metrics(tracer: Tracer, wl: workloads.Workload, import_wall: float,
             imports: dict, untraced: float) -> dict:
    """name -> (value, unit, sample count) for every per-layer metric."""
    own, probe, unit = wl.name, wl.name + "/probe", wl.name + "/unit"
    filled = (own, probe)       # the workload's own calls, or the probe's
    spans, selfs = tracer.spans, tracer.self_times()
    m = {}

    def pick(name, ids=(own,)):
        return [s for s in spans if s.name == name and s.workload in ids]

    def seconds(key, name, ids=(own,)):
        found = pick(name, ids)
        m[key] = (sum(s.duration for s in found), "s", len(found))

    def counted(key, name, count, unit_, ids=(own,), agg=sum):
        found = pick(name, ids)
        m[key] = (agg([s.counts[count] for s in found] or [0]), unit_, len(found))

    for key, vals in imports.items():
        m[key] = (statistics.median(vals) if vals else 0.0, "s", len(vals))
    seconds("config.load_scenario_s", "config.load_scenario")
    seconds("measures.build_measure_s", "measures.build_measure")
    seconds("measures.build_initial_s", "measures.build_initial")
    counted("measures.grid_points", "measures.build_measure", "grid_points", "count",
            agg=max)
    seconds("inequalities.muckenhoupt_s", "inequalities.muckenhoupt")
    seconds("inequalities.bakry_emery_s", "inequalities.bakry_emery")
    seconds("cli.write_s", "cli.write")
    counted("cli.bytes_written", "cli.write", "bytes", "B")
    roots = [i for i, s in enumerate(spans) if s.parent < 0 and s.workload == own]
    m["cli.self_s"] = (sum(selfs[i] for i in roots), "s", len(roots))

    seconds("psi.build_psi_s", "psi.build_psi", filled)
    seconds("simulate.evolve_s", "simulate.evolve", filled)
    counted("simulate.steps", "simulate.evolve", "steps", "count", filled)
    counted("simulate.saves", "simulate.evolve", "saves", "count", filled)
    single, every = pick("simulate.evolve", (unit,))
    m["simulate.step_us"] = (single.duration / single.counts["steps"] * 1e6, "us",
                             single.counts["steps"])
    extra = every.counts["saves"] - single.counts["saves"]
    m["simulate.save_us"] = ((every.duration - single.duration) / extra * 1e6, "us",
                             extra)
    calls = [s.duration for s in pick("measures.functionals", (unit,))]
    m["measures.functionals_us"] = (statistics.mean(calls) * 1e6, "us", len(calls))

    for fam in workloads.FAMILIES:
        build, ev = f"envelopes.build:{fam}", f"envelopes.eval:{fam}"
        seconds(f"envelopes.{fam}.build_s", build, filled)
        seconds(f"envelopes.{fam}.eval_s", ev, filled)
        counted(f"envelopes.{fam}.t_points", ev, "t_points", "count", filled)
        points = m[f"envelopes.{fam}.t_points"][0]
        good = sum(s.counts["nonvacuous"] for s in pick(ev, filled))
        m[f"envelopes.{fam}.nonvacuous_frac"] = (good / points if points else 0.0,
                                                 "frac", points)

    # Shares of the workload as users run it: one fresh import per command
    # plus the in-process self time of each layer.
    imported = import_wall * len(wl.commands)
    traced = sum(spans[i].duration for i in roots)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(spans, selfs):
        if s.workload == own:
            by_layer[s.layer] += st
    by_layer["import"] = imported
    for layer in LAYERS:
        m[f"share.{layer}"] = (by_layer[layer] / (imported + traced), "frac",
                               len(wl.commands))
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "frac", len(roots))
    m["trace.spans"] = (len(spans), "count", 1)
    return m


def traced_run(wl: workloads.Workload, env: dict, clock, tag: str) -> harness.Outcome:
    reps = 3
    import_wall, imports = _import_times(env, clock, reps)
    cli = harness.import_in_process()

    tracer = Tracer()
    untraced, failed = _run_in_process(cli, wl.commands, tracer, wl.name,
                                       untraced=True)
    attempted = 3 * len(wl.commands)

    have = {s.name for s in tracer.spans}
    probes = []
    if "simulate.evolve" not in have:
        probes.append(workloads.Command("probe-simulate", "simulate", wl.probe_config))
    missing = [f for f in workloads.FAMILIES if f"envelopes.build:{f}" not in have]
    if missing:
        probes.append(workloads.Command(
            "probe-bounds", "bounds",
            {**wl.probe_config, "envelopes": ", ".join(missing),
             "envelopes.calibrate": "false"},
            ("--t-grid", str(PROBE_T_GRID))))
    failed += _run_in_process(cli, probes, tracer, wl.name + "/probe")[1]

    dt = float(wl.probe_config["sim.dt"])
    unit = {**wl.probe_config, "sim.t_end": repr(UNIT_STEPS * dt)}
    units = [workloads.Command("unit-single-save", "simulate",
                               {**unit, "sim.save_every": UNIT_STEPS}),
             workloads.Command("unit-every-step", "simulate",
                               {**unit, "sim.save_every": 1})]
    failed += _run_in_process(cli, units, tracer, wl.name + "/unit")[1]
    attempted += len(probes) + len(units)

    problems = {"traced run": [f"{failed} in-process command(s) exited non-zero"]} \
        if failed else {}
    metrics = _metrics(tracer, wl, import_wall, imports, untraced) if not failed else {}
    path = harness.RESULTS / f"spans-{tag}.json"
    path.write_text(json.dumps([
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "workload": s.workload, "counts": s.counts} for s in tracer.spans]))
    return harness.Outcome(metrics, attempted, failed, problems,
                           samples={"spans_file": str(path.relative_to(harness.ROOT))})
