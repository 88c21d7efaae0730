import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

import shimura_pq
from shimura_pq.certify import CACHE_ENV, cache_load, cache_path
from shimura_pq.cli import main
from shimura_pq.gross import gross_modular, gross_shimura
from shimura_pq.quat import _ReducedForm
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


@pytest.fixture(scope="session")
def graph_13_83():
    return build_graph(13, 83)


@pytest.fixture(scope="session")
def graph_29_23(vset23):
    return build_graph(29, 23, vset=vset23)


@pytest.fixture(scope="session")
def graph_29_251():
    """``build_graph(29, 251)`` in this process: 22 classes, 626 edges."""
    return build_graph(29, 251)


@pytest.fixture(scope="session")
def cold_257_251(tmp_path_factory):
    """A cold ``check --p 257 --q 251 --override-hypotheses`` through the
    CLI's ``main``: its exit code, its certificate and cache bytes, and the
    graph (22 classes, 5,376 edges) loaded back from that cache."""
    cache = str(tmp_path_factory.mktemp("cache_257_251"))
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.delenv(CACHE_ENV, raising=False)
        code = main(["check", "--p", "257", "--q", "251", "--override-hypotheses",
                     "--cache", cache])
    with open(cache_path(cache, 257, 251), "rb") as fh:
        cache_bytes = fh.read()
    return SimpleNamespace(code=code, cert=out.getvalue().encode(), cache=cache_bytes,
                           graph=cache_load(cache, 257, 251))


@pytest.fixture(scope="session")
def cold_5_163():
    """A cold ``build_graph(5, 163)``, then the Gross vectors of D = -36 on
    it, with every reduced form built and every search run on the way.

    ``graph_forms`` are the forms of the build alone; ``forms`` adds the
    rank-3 forms of the Gross vectors; ``searches`` lists each
    (form, target, upto) searched."""
    forms, searches = [], []
    init, vectors = _ReducedForm.__init__, _ReducedForm.vectors

    def recorded_init(self, g):
        init(self, g)
        forms.append(self)

    def recorded_vectors(self, target, upto=False):
        searches.append((self, target, upto))
        return vectors(self, target, upto)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ReducedForm, "__init__", recorded_init)
        mp.setattr(_ReducedForm, "vectors", recorded_vectors)
        graph = build_graph(5, 163)
        graph_forms = list(forms)
        gross_modular(graph.vset, -36)
        gross_shimura(graph, -36)
    return SimpleNamespace(graph=graph, graph_forms=graph_forms, forms=forms, searches=searches)
