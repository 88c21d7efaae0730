"""Smoke tests of the report scripts under scripts/.

Each script runs in a child interpreter on the package under test (the
``cli_env`` fixture), so a renamed import or a broken call in the scripts
fails here rather than silently.
"""

import os
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
