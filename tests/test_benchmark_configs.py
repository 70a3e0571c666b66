"""Every config the benchmark hands the program must load under the key check.

`benchmark/workloads.py` is imported read-only.  Each command config, probe
config and oracle-probe config of every workload, at seeds 0-2 in smoke and
full size, goes through parse_config_text -> scenario_from_config, the path
every CLI command takes before its numeric work, which reads the listed
envelopes' keys last and rejects a set key that nothing read.  Such a key
fails here, naming the workload config that must change first.
"""

import pytest

from tvdecay.config import parse_config_text, scenario_from_config
from tvdecay.errors import ConfigError
from conftest import load_benchmark_module

workloads = load_benchmark_module("workloads")


def _configs(name, seed, smoke):
    wl = workloads.build(name, seed, smoke)
    yield "probe_config", wl.probe_config
    for cmd in wl.commands:
        yield cmd.id, cmd.config
    if wl.oracle_probe is not None:
        yield wl.oracle_probe.id, wl.oracle_probe.config


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_load(name, seed, smoke):
    for label, cfg in _configs(name, seed, smoke):
        try:
            scenario_from_config(parse_config_text(workloads.render(cfg)))
        except ConfigError as exc:
            pytest.fail(f"{label}: {exc}")
