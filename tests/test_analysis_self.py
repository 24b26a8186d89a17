"""simlint gating on the repo's own source tree.

The suite runs the full rule set over ``src/repro`` and fails on any
finding -- this is the same gate CI's static-analysis job applies, so a PR
cannot land a determinism violation without either fixing it or
justifying a same-line ``# simlint: disable=<rule>`` comment.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import default_rules, run_checks
from repro.analysis.__main__ import main as simlint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def test_tree_has_no_findings():
    findings = run_checks(PACKAGE_ROOT, default_rules()).findings
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"simlint found violations:\n{rendered}"


# -- CLI ---------------------------------------------------------------------


def test_cli_check_exits_zero_on_shipped_tree(capsys):
    code = simlint_main(["check", "--root", str(PACKAGE_ROOT)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "3 rules, 0 finding(s)" in out


def test_cli_json_report_shape(capsys):
    code = simlint_main(["check", "--json", "--root", str(PACKAGE_ROOT)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["clean"] is True
    assert payload["checked_files"] > 50
    assert len(payload["rules"]) == 3
    assert payload["findings"] == []


def test_cli_rules_listing(capsys):
    assert simlint_main(["rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if not line.startswith(" ")]
    assert listed == ["no-unseeded-rng", "no-wall-clock", "deterministic-dict-iteration"]


def test_cli_flags_new_violation(tmp_path, capsys):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    code = simlint_main(["check", "--root", str(pkg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "no-unseeded-rng" in out


def _write_wall_clock_violation(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    (pkg / "simulation").mkdir(parents=True)
    (pkg / "simulation" / "__init__.py").write_text("")
    (pkg / "simulation" / "sim.py").write_text(
        "import time\n"
        "class Simulator:\n"
        "    def run(self):\n"
        "        return time.time()\n"
    )
    return pkg


def test_cli_exit_one_on_syntactic_finding(tmp_path, capsys):
    pkg = _write_wall_clock_violation(tmp_path)
    code = simlint_main(["check", "--root", str(pkg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "no-wall-clock" in out


def test_cli_exit_zero_with_exit_zero_flag(tmp_path, capsys):
    pkg = _write_wall_clock_violation(tmp_path)
    code = simlint_main(["check", "--exit-zero", "--json", "--root", str(pkg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["clean"] is False  # the report still tells the truth


def test_cli_exit_two_on_crash_not_findings(tmp_path):
    """A missing root is an invocation error (2), never a clean run."""
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "check",
            "--root",
            str(tmp_path / "nowhere"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 2


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "check", "--json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout)["clean"] is True


# -- typed core (mypy) -------------------------------------------------------


def test_typed_core_passes_mypy():
    """Gate the strict modules on mypy when it is available.

    The container used for local test runs does not ship mypy; CI's
    static-analysis job installs it and runs this gate for real.
    """
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "-p", "repro"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
