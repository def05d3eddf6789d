"""Every example script must run clean end-to-end (deliverable b)."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAST_EXAMPLES = [
    "examples/quickstart.py",
    "examples/stock_investval.py",
    "examples/image_redness.py",
    "examples/malicious_udfs.py",
    "examples/client_server_portability.py",
    "examples/client_vs_server_udfs.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, script],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "example produced no output"


def test_malicious_example_reports_all_attacks_stopped():
    completed = subprocess.run(
        [sys.executable, "examples/malicious_udfs.py"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert "All eight attacks neutralized." in completed.stdout
    assert "HARMED" not in completed.stdout
    assert "stopped" in completed.stdout
    assert "contained" in completed.stdout
    # The provable allocation bomb must be refused at registration by
    # the static bounds certifier, not killed mid-query.
    assert "stopped at CREATE FUNCTION" in completed.stdout
    assert "provably allocates" in completed.stdout
    # The exfiltrating UDF must be refused by the information-flow pass
    # at registration, while the constant-argument logger is admitted.
    assert "passes tuple-derived data" in completed.stdout
    assert "sink callback 'cb_log'" in completed.stdout
    assert "constant-argument cb_log UDF accepted" in completed.stdout


def test_bench_cli_runs_table1():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--figures", "table1"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Design space" in completed.stdout


@pytest.mark.parametrize("figures", ["batchng", "inlining", "table1,server"])
def test_bench_cli_rejects_unknown_figures(figures, capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--figures", figures])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"unknown figure(s): {figures.split(',')[-1]}" in err
    assert "choose from table1, 4, 5, 6, 7, 8" in err


def test_bench_cli_runs_tiny_figure():
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.bench",
            "--figures", "5", "--cardinality", "40",
            "--invocations", "20", "--repeat", "1",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "fig5" in completed.stdout
    assert "JNI" in completed.stdout
