import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


PAIR = (5, 23)  # the smallest pair with exceptional edges; a cold check takes about 1 s
CLOSED_PAIR = (29, 23)  # a small pair whose cycle C0 is closed; about 3 s


def cold_check(cache, pair, traced_stats=None):
    """A cold `check --l 3` on pair into cache: (exit code, stdout, cache bytes).

    With traced_stats, the run goes through perfbench/traced_cli.py, which
    writes its per-layer stats there.
    """
    p, q = pair
    args = ["check", "--p", str(p), "--q", str(q), "--l", "3", "--override-hypotheses",
            "--cache", str(cache)]
    if traced_stats is None:
        argv = [sys.executable, "-m", "shimura_pq.cli", *args]
    else:
        argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(traced_stats), *args]
    proc = subprocess.run(argv, capture_output=True, env=cli_env(), timeout=300)
    (graph_file,) = cache.iterdir()
    return proc.returncode, proc.stdout, graph_file.read_bytes()


@pytest.fixture(scope="session")
def cold_run(tmp_path_factory):
    return cold_check(tmp_path_factory.mktemp("cache"), PAIR)


@pytest.fixture(scope="session")
def closed_run(tmp_path_factory):
    return cold_check(tmp_path_factory.mktemp("cache"), CLOSED_PAIR)
