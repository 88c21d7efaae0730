import json
import os
import subprocess
import sys

import pytest

import shimura_pq
from shimura_pq.cli import main


def test_ogg_command(capsys):
    assert main(["ogg", "--p", "13", "--q", "47"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ogg_case"] == "nonramified"


def test_ogg_invalid_input(capsys):
    assert main(["ogg", "--p", "4", "--q", "47"]) == 3
    assert "error" in capsys.readouterr().err


def test_check_hypotheses_not_met(tmp_path, capsys):
    code = main(["check", "--p", "7", "--q", "47", "--cache", str(tmp_path)])
    assert code == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "hypotheses_not_met"


def test_check_writes_json_file(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code = main([
        "check", "--p", "7", "--q", "47",
        "--cache", str(tmp_path), "--json", str(out_file),
    ])
    assert code == 2
    stdout = capsys.readouterr().out
    assert out_file.read_text() == stdout


def test_graph_command_with_dot(tmp_path, capsys):
    dot_file = tmp_path / "g.dot"
    code = main([
        "graph", "--p", "13", "--q", "11",
        "--cache", str(tmp_path), "--dot", str(dot_file),
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["graph"]["vertices"]["count"] == 2
    assert dot_file.read_text().startswith("graph")
    assert os.path.exists(tmp_path / "graph_q11_p13_v1.json")


def test_cache_env_var_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRITERION_CACHE_DIR", str(tmp_path))
    assert main(["graph", "--p", "13", "--q", "11"]) == 0
    capsys.readouterr()
    assert os.path.exists(tmp_path / "graph_q11_p13_v1.json")


def test_equal_primes_rejected(capsys):
    assert main(["check", "--p", "13", "--q", "13"]) == 3


def test_q_1_mod_4_fails_at_decomposition(tmp_path, capsys):
    code = main(["check", "--p", "7", "--q", "13", "--override-hypotheses",
                 "--cache", str(tmp_path)])
    assert code == 1
    cert = json.loads(capsys.readouterr().out)
    assert (cert["verdict"], cert["failed_check"]) == ("check_failed", "decomposition")
    assert len(cert["decomposition_attempts"]) == 12
    assert not any(a["decomposed"] for a in cert["decomposition_attempts"])


def test_internal_error_prints_traceback(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArithmeticError("enumeration failed")

    monkeypatch.setattr("shimura_pq.certify.run_criterion", fail)
    assert main(["check", "--p", "13", "--q", "47"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err
    assert "ArithmeticError: enumeration failed" in err


def test_child_process_imports_package_under_test(cli_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import shimura_pq; print(shimura_pq.__file__)"],
        capture_output=True, text=True, env=cli_env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.samefile(proc.stdout.strip(), shimura_pq.__file__)


def test_start_up_imports(cli_env, tmp_path):
    """Importing the CLI loads neither dataclasses nor traceback: each costs
    every start, and traceback is needed only on the internal-error path."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, shimura_pq.cli; "
         "print(sorted({'dataclasses', 'traceback'} & set(sys.modules)))"],
        capture_output=True, text=True, env=cli_env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ogg_starts_without_the_quaternion_stack(cli_env, tmp_path):
    """An ``ogg`` run imports no package module but cli and ntheory, and
    neither fractions nor decimal: the quaternion code is compiled on every
    start when bytecode is not written."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from shimura_pq import cli; "
         "code = cli.main(['ogg', '--p', '13', '--q', '47']); "
         "print(code, sorted(m for m in sys.modules if m.startswith('shimura_pq.') "
         "or m in ('fractions', 'decimal')))"],
        capture_output=True, text=True, env=cli_env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout[:proc.stdout.rindex("}") + 1])["ogg_case"] == "nonramified"
    assert proc.stdout.splitlines()[-1] == "0 ['shimura_pq.cli', 'shimura_pq.ntheory']"


def test_reexported_names_are_the_defining_modules_objects():
    from shimura_pq import certify, cli, compgroup

    for name in ("CACHE_ENV", "certificate_json", "exit_code", "genus", "graph_statistics",
                 "load_or_build_graph", "run_criterion"):
        assert getattr(cli, name) is getattr(certify, name)
    assert cli.to_dot is compgroup.to_dot
    assert cli.check_ogg is certify.check_ogg
    with pytest.raises(AttributeError, match="has no attribute 'build_graph'"):
        cli.build_graph


def test_module_entry_point(run_cli):
    proc = run_cli(["ogg", "--p", "13", "--q", "47"], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ogg_case"] == "nonramified"


def test_module_entry_point_passes_exit_code(run_cli):
    proc = run_cli(["ogg", "--p", "4", "--q", "47"], timeout=120)
    assert proc.returncode == 3
    assert "error" in proc.stderr


@pytest.mark.parametrize("args,flag", [
    (["--l", "4"], "--l"),
    (["--l", "13"], "--l"),
    (["--max-n", "-3"], "--max-n"),
    (["--max-n", "0"], "--max-n"),
])
def test_bad_flag_fails_before_the_graph_is_built(args, flag, monkeypatch, capsys):
    def build_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the flags were checked")

    monkeypatch.delenv("CRITERION_CACHE_DIR", raising=False)
    monkeypatch.setattr("shimura_pq.certify.build_graph", build_graph)
    code = main(["check", "--p", "13", "--q", "47", "--override-hypotheses", *args])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {flag} must be ")


@pytest.mark.parametrize("command,flag", [("check", "--cache"), ("check", "--json"),
                                          ("graph", "--dot")])
def test_unwritable_output_fails_before_any_work(command, flag, tmp_path, monkeypatch, capsys):
    # --cache names an existing file; --json and --dot a file in a missing
    # directory
    def build_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the output paths were checked")

    monkeypatch.delenv("CRITERION_CACHE_DIR", raising=False)
    monkeypatch.setattr("shimura_pq.certify.build_graph", build_graph)
    existing = tmp_path / "file"
    existing.write_text("")
    path = str(existing if flag == "--cache" else tmp_path / "missing" / "out")
    args = [command, "--p", "13", "--q", "47", flag, path]
    if command == "check":
        args.append("--override-hypotheses")
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == f"error: cannot write {flag} {path}\n"
