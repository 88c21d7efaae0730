import os
import subprocess
import sys

import pytest

import shimura_pq
from shimura_pq.ssgraph import build_graph, vertex_classes


@pytest.fixture(scope="session")
def cli_env():
    """Environment in which a child process imports this session's shimura_pq.

    The directory holding the imported package goes first on ``PYTHONPATH``,
    so the child does not depend on the working directory and cannot pick up
    an installed copy in place of the code under test.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shimura_pq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def run_cli(cli_env):
    """Run ``python -m shimura_pq.cli ARGS`` in a separate process."""

    def run(args, timeout):
        return subprocess.run(
            [sys.executable, "-m", "shimura_pq.cli", *args],
            capture_output=True,
            text=True,
            env=cli_env,
            timeout=timeout,
        )

    return run


@pytest.fixture(scope="session")
def vset11():
    return vertex_classes(11)


@pytest.fixture(scope="session")
def vset23():
    return vertex_classes(23)


@pytest.fixture(scope="session")
def vset37():
    return vertex_classes(37)


@pytest.fixture(scope="session")
def vset47():
    return vertex_classes(47)


@pytest.fixture(scope="session")
def vset163():
    return vertex_classes(163)


@pytest.fixture(scope="session")
def graph_13_47(vset47):
    return build_graph(13, 47, vset=vset47)


@pytest.fixture(scope="session")
def graph_5_23(vset23):
    return build_graph(5, 23, vset=vset23)


@pytest.fixture(scope="session")
def graph_7_23(vset23):
    return build_graph(7, 23, vset=vset23)


@pytest.fixture(scope="session")
def graph_13_11(vset11):
    return build_graph(13, 11, vset=vset11)


@pytest.fixture(scope="session")
def graph_29_47(vset47):
    return build_graph(29, 47, vset=vset47)


@pytest.fixture(scope="session")
def graph_5_37(vset37):
    return build_graph(5, 37, vset=vset37)


@pytest.fixture(scope="session")
def graph_5_163(vset163):
    return build_graph(5, 163, vset=vset163)
