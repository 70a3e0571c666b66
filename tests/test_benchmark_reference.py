"""Every seed-0 full-size benchmark command reproduces `benchmark/reference/`.

The benchmark compares its outputs with the committed reference only in its
own run of several minutes.  Here each command of each workload runs once,
in-process through `cli.main`, and each output file is compared with
`benchmark/reference/<workload>/<command id>/` by the benchmark's own
`checks.compare_to_reference` (text and structure exact, numbers to 1e-9
relative).  So a change that would fail the benchmark's reference check
fails here first.  `benchmark/workloads.py` and `benchmark/checks.py` are
imported read-only; nothing under `benchmark/` is written.
"""

from pathlib import Path

import pytest

from tvdecay.cli import main
from conftest import load_benchmark_module

workloads = load_benchmark_module("workloads")
checks = load_benchmark_module("checks")
REFERENCE = Path(__file__).parents[1] / "benchmark" / "reference"
SEED = 0    # the seed the reference is written for, at full size
COMMANDS = [(name, cmd) for name in sorted(workloads.WORKLOADS)
            for cmd in workloads.build(name, SEED).commands]


@pytest.mark.parametrize("name, cmd", COMMANDS,
                         ids=[f"{name}-{cmd.id}" for name, cmd in COMMANDS])
def test_output_matches_the_reference(name, cmd, tmp_path):
    (tmp_path / "scenario.cfg").write_text(workloads.render(cmd.config))
    assert main(cmd.argv(str(tmp_path / "scenario.cfg"), str(tmp_path / "out"))) == 0
    problems = []
    for out in cmd.outputs:
        problems += checks.compare_to_reference(
            out, (REFERENCE / name / cmd.id / out).read_bytes(),
            (tmp_path / "out" / out).read_bytes())
    assert problems == []
