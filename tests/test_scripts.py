"""Smoke tests of the report scripts under scripts/.

Each script runs in a child interpreter on the package under test (the
``cli_env`` fixture), so a renamed import or a broken call in the scripts
fails here rather than silently.  The exit code of disc_battery on a broken
count is tested in this process, with the count patched.
"""

import os
import runpy
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script,args,header", [
    ("pair_report.py", ["--p", "13", "--q", "11"],
     "pair (13, 11); genus(X0(11)) = 1; build "),
    ("disc_battery.py", ["--p", "13", "--q", "11", "--bound", "40"],
     " D      h  (D|q) (D|p)  sum H_k  sum h_i  exceptional support"),
])
def test_script_runs(script, args, header, cli_env):
    res = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                         capture_output=True, text=True, env=cli_env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0].startswith(header)
    # disc_battery flags each discriminant whose totals break the trace identities
    assert "TRACE MISMATCH" not in res.stdout


@pytest.mark.parametrize("script,args,message", [
    ("disc_battery.py", ["--p", "12", "--q", "47"], "p must be a prime >= 5, got 12"),
    ("pair_report.py", ["--p", "13", "--q", "49"], "q must be a prime >= 5, got 49"),
])
def test_script_reports_bad_input_with_exit_3(script, args, message, cli_env):
    """A bad pair exits 3 with one error line, as the CLI does, not 1 (the
    TRACE MISMATCH code of disc_battery) with a traceback."""
    res = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                         capture_output=True, text=True, env=cli_env, timeout=120)
    assert res.returncode == 3
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_disc_battery_exits_1_on_a_trace_mismatch(monkeypatch, capsys):
    """Counts off by one break the trace identities: the rows are flagged and
    the script exits 1."""
    from shimura_pq import gross

    count = gross.optimal_embeddings
    monkeypatch.setattr(gross, "optimal_embeddings", lambda *args: count(*args) + 1)
    monkeypatch.setattr(sys, "argv", ["disc_battery.py", "--p", "13", "--q", "11", "--bound", "40"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(os.path.join(SCRIPTS, "disc_battery.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "TRACE MISMATCH" in capsys.readouterr().out
