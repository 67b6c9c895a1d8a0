import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_arc_sweep_smoke():
    proc = _run("scripts/arc_sweep.py", "--P", "8", "--points", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split("\t") == ["alpha", "abs_h", "abs_W", "on_arc", "abs_F"]
    rows = [[float(x) for x in line.split("\t")] for line in lines[1:]]
    assert len(rows) == 5
    assert rows[0][:4] == [0.0, 64.0, 1.0, 1.0]  # alpha = 0: |h| = table a mass, on the q = 1 arc


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_window_workload_checks_pass(tmp_path, traced):
    # The benchmark's window workload runs scripts/window_mass.py and checks
    # its printed mass and each S(n), J(n) call against recorded references,
    # also with the layers traced.
    spans = ["--spans", str(tmp_path / "spans.json")] if traced else []
    proc = _run("perfbench/workloads.py", "--workload", "window", "--seed", "0", *spans)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert len(checks) == 9
    assert [c for c in checks if not c[1]] == []
    assert (tmp_path / "spans.json").exists() == traced


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/window_mass.py", "--samples", "0"],
        ["scripts/arc_sweep.py", "--points", "0"],
        ["scripts/arc_sweep.py", "--denominator", "0"],
        ["scripts/window_mass.py", "--P", "-8"],
        ["scripts/window_mass.py", "--P", "0"],
        ["scripts/arc_sweep.py", "--P", "-8"],
        ["scripts/arc_sweep.py", "--P", "0"],
    ],
)
def test_count_options_must_be_positive(argv):
    proc = _run(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "positive integer" in proc.stderr


def test_series_truncation_must_be_a_modulus():
    proc = _run("scripts/window_mass.py", "--Q", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "0 is not a modulus" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/window_mass.py", "--P", "1"],
        ["scripts/arc_sweep.py", "--P", "1"],
        ["scripts/arc_sweep.py", "--P", "2"],  # N = 64 derives, but the narrow dissection needs log P > 1
    ],
)
def test_degenerate_scale_exits_4(argv):
    proc = _run(*argv)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("bad configuration: ") and len(proc.stderr.splitlines()) == 1


def test_arc_sweep_out_path(tmp_path):
    missing = tmp_path / "missing" / "x.tsv"
    proc = _run("scripts/arc_sweep.py", "--P", "8", "--points", "2", "--out", str(missing))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"bad configuration: --out {missing}: ") and len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "x.tsv"
    proc = _run("scripts/arc_sweep.py", "--P", "8", "--points", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {out} (2 rows)\n"
    assert out.read_text().splitlines()[0] == "alpha\tabs_h\tabs_W\ton_arc\tabs_F"
    assert len(out.read_text().splitlines()) == 3


def test_volume_workload_checks_pass():
    # The benchmark's volume workload calls osc_integral_v on both routes and
    # checks v(0) and the route agreement against criterion 8's gates.
    proc = _run("perfbench/workloads.py", "--workload", "volume", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert len(checks) == 5
    assert [c for c in checks if not c[1]] == []


def test_census_workload_checks_pass():
    # The benchmark's census workload runs run_census(10**7), checks E(N)
    # against its recorded count and checks 20 witnesses.
    proc = _run("perfbench/workloads.py", "--workload", "census", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert len(checks) == 21
    assert [c for c in checks if not c[1]] == []


def test_arith_workload_checks_pass():
    # The benchmark's arith workload runs ten acceptance criteria on the
    # P = 10^4 table and checks h(0) exactly and against V(0).
    proc = _run("perfbench/workloads.py", "--workload", "arith", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert len(checks) == 12
    assert [c for c in checks if not c[1]] == []
