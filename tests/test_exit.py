"""How a CLI command ends.

`python -m tvdecay.cli` and the `tvdecay` console script call `cli.run`, which
flushes the standard streams and ends the process with `os._exit(main())`,
skipping interpreter teardown.  `main` itself only returns its code.  The
subprocess tests check that the fast exit loses nothing: the same output bytes
as an in-process `main`, the same stderr line and the same exit code.  A usage
error leaves `main` by exception and keeps Python's normal exit.  The
in-process tests stand a recorder in for os._exit.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tvdecay import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCENARIO = """
potential.family = {family}
grid.n_points = 201
initial.family = step
sim.dt = 0.01
sim.t_end = 0.2
sim.save_every = 5
psi.eta = quadratic
envelopes = poincare_l2, logsob
"""
GAUSS = SCENARIO.format(family="gaussian")
# no log-Sobolev constant for a quartic potential: the logsob envelope exits 3
QUARTIC = SCENARIO.format(family="power\npotential.alpha = 4.0")
# no potential.family: exits 2
NO_FAMILY = "grid.n_points = 201\n"


def _cfg(tmp_path, text, name="scenario.cfg") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(*argv, cwd):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "tvdecay.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class _Stream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


class _Exit(BaseException):
    pass


@pytest.fixture
def exits(monkeypatch):
    """Stands in for os._exit: records (code, stdout flushes, stderr flushes)
    at each call, then raises instead of ending the test process."""
    calls = []

    def fake_exit(code):
        calls.append((code, *(getattr(s, "flushes", None) for s in (sys.stdout, sys.stderr))))
        raise _Exit

    monkeypatch.setattr(os, "_exit", fake_exit)
    return calls


class TestSubprocessExit:
    """Each test also runs `main` in-process, which must not call os._exit."""

    @pytest.mark.parametrize("verb", ["analyze", "bounds", "simulate", "compare"])
    def test_outputs_match_in_process_main(self, tmp_path, exits, verb):
        cfg = _cfg(tmp_path, GAUSS)
        assert cli.main([verb, cfg, "--out", str(tmp_path / "inproc"), "--t-grid", "20"]) == 0
        assert exits == []
        done = _cli(verb, cfg, "--out", str(tmp_path / "fresh"), "--t-grid", "20",
                    cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "" and done.stderr == ""
        want = _files(tmp_path / "inproc")
        assert want and _files(tmp_path / "fresh") == want

    def test_config_error_exits_2_with_the_whole_line(self, tmp_path, exits, capsys):
        cfg = _cfg(tmp_path, NO_FAMILY)
        assert cli.main(["analyze", cfg, "--out", str(tmp_path)]) == 2
        assert exits == []
        line = capsys.readouterr().err
        assert line == "tvdecay: config error: missing required key 'potential.family'\n"
        done = _cli("analyze", cfg, "--out", str(tmp_path), cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", line)

    def test_numeric_failure_exits_3_naming_the_check(self, tmp_path, exits, capsys):
        cfg = _cfg(tmp_path, QUARTIC)
        assert cli.main(["bounds", cfg, "--out", str(tmp_path)]) == 3
        assert exits == []
        line = capsys.readouterr().err
        assert line.startswith("tvdecay: bounds: ") and "positive C_LS" in line
        done = _cli("bounds", cfg, "--out", str(tmp_path), cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", line)

    @pytest.mark.parametrize("verb", ["analyze", "bounds", "simulate"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, exits, capsys, verb):
        # V(x - 1e300) overflows and the start is not finite: numpy's
        # RuntimeWarnings, with their source lines, must not come first
        cfg = _cfg(tmp_path, GAUSS.replace(
            "initial.family = step", "initial.family = shifted_gaussian\ninitial.shift = 1e300"))
        assert cli.main([verb, cfg, "--out", str(tmp_path)]) == 3
        assert exits == []
        line = capsys.readouterr().err
        assert line == f"tvdecay: {verb}: NotADensity: h has non-finite values\n"
        done = _cli(verb, cfg, "--out", str(tmp_path), cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", line)

    def test_non_utf8_config_exits_2_with_one_line(self, tmp_path, exits, capsys):
        # a Latin-1 byte in a comment is a config error, not a UnicodeDecodeError
        path = tmp_path / "scenario.cfg"
        path.write_bytes(GAUSS.encode() + b"# \xff\n")
        assert cli.main(["analyze", str(path), "--out", str(tmp_path)]) == 2
        assert exits == []
        line = capsys.readouterr().err
        assert line == (f"tvdecay: config error: cannot read config '{path}': 'utf-8' codec "
                        f"can't decode byte 0xff in position {len(GAUSS) + 2}: invalid start "
                        "byte\n")
        done = _cli("analyze", str(path), "--out", str(tmp_path), cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", line)

    def test_table_error_prints_only_the_error_line(self, tmp_path, exits, capsys):
        # loadtxt warns on a table without rows: the warning must not come first
        (tmp_path / "h.csv").write_text("x,h\n")
        cfg = _cfg(tmp_path, GAUSS.replace("initial.family = step", "initial.family = "
                                           f"tabulated\ninitial.path = {tmp_path}/h.csv"))
        assert cli.main(["simulate", cfg, "--out", str(tmp_path)]) == 2
        assert exits == []
        line = capsys.readouterr().err
        assert line == (f"tvdecay: config error: key 'initial.path': table "
                        f"'{tmp_path}/h.csv' needs at least 2 rows\n")
        done = _cli("simulate", cfg, "--out", str(tmp_path), cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", line)

    # (verb, a GAUSS line and its replacement, extra argv, exit code, stderr's start):
    # 1e12 grid or t values are sizes numpy refuses at once, and 1e303 steps are
    # more than a run can count
    @pytest.mark.parametrize("verb, old, new, argv, code, start", [
        ("analyze", "grid.n_points = 201", "grid.n_points = 1000000000000", (), 3,
         "tvdecay: analyze: MemoryError: Unable to allocate "),
        ("bounds", "", "", ("--t-grid", "1000000000000"), 3,
         "tvdecay: bounds: MemoryError: Unable to allocate "),
        ("simulate", "sim.dt = 0.01\nsim.t_end = 0.2", "sim.dt = 1e-3\nsim.t_end = 1e300", (),
         2, "tvdecay: config error: sim: t_end / dt = 1e+303 steps is more than sys.maxsize"),
    ], ids=["n-points", "t-grid", "t-end"])
    def test_too_large_a_request_exits_with_one_line(self, tmp_path, verb, old, new, argv,
                                                     code, start):
        cfg = _cfg(tmp_path, GAUSS.replace(old, new))
        done = _cli(verb, cfg, "--out", str(tmp_path), *argv, cwd=tmp_path)
        assert (done.returncode, done.stdout) == (code, ""), done.stderr
        assert done.stderr.startswith(start) and done.stderr.count("\n") == 1

    def test_usage_error_exits_2_with_usage(self, tmp_path):
        done = _cli("bogus", "scenario.cfg", cwd=tmp_path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: tvdecay ")
        assert "invalid choice: 'bogus'" in done.stderr


class TestRun:
    @pytest.mark.parametrize("stdout", ["stream", None])
    @pytest.mark.parametrize("text, code", [(GAUSS, 0), (NO_FAMILY, 2), (QUARTIC, 3)])
    def test_flushes_then_exits_with_mains_code(self, tmp_path, monkeypatch, exits,
                                                text, code, stdout):
        argv = ["bounds", _cfg(tmp_path, text), "--out", str(tmp_path), "--t-grid", "20"]
        err = _Stream()
        monkeypatch.setattr(sys, "stdout", _Stream() if stdout else None)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(sys, "argv", ["tvdecay", *argv])
        with pytest.raises(_Exit):
            cli.run()
        [(got, out_flushes, err_flushes)] = exits
        assert got == code and type(got) is int
        assert out_flushes == (1 if stdout else None) and err_flushes == 1
        assert err.getvalue().startswith("tvdecay: ") == (code != 0)

    def test_usage_error_leaves_by_exception(self, monkeypatch, exits, capsys):
        monkeypatch.setattr(sys, "argv", ["tvdecay", "bogus", "scenario.cfg"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 2 and exits == []
        assert capsys.readouterr().err.startswith("usage: tvdecay ")


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tvdecay"]
    module, _, attr = target.partition(":")
    assert module == "tvdecay.cli"
    assert getattr(cli, attr) is cli.run
