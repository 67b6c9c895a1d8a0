import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_window_mass_wrapper(tmp_path):
    # the wrapper runs `arcs --window-mass` at N = P^6 and keeps its JSON out of the working directory
    script = str(ROOT / "scripts" / "window_mass.py")
    proc = _run(script, "--P", "27", "--samples", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].endswith(": 2737855")
    assert lines[2].startswith("predicted mass: 1671431.2  ")
    assert lines[3] == "ratio exact/predicted: 1.638"
    assert list(tmp_path.iterdir()) == []


# The wrapper's --P keeps its own type and argparse's exit code 2; `arcs`
# takes any integer --N and rejects a non-positive one as a degenerate scale.
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["scripts/window_mass.py", "--P", "-8"], 2, "-8 is not a positive integer"),
        (["scripts/window_mass.py", "--P", "0"], 2, "0 is not a positive integer"),
        (["-m", "cubesquares.cli", "arcs", "--f-sweep", "--N", "-8"], 4, "bad configuration: parameters degenerate: N=-8 gives P<2\n"),
        (["-m", "cubesquares.cli", "arcs", "--f-sweep", "--N", "0"], 4, "bad configuration: parameters degenerate: N=0 gives P<2\n"),
    ],
    ids=["argv3", "argv4", "argv5", "argv6"],
)
def test_count_options_must_be_positive(argv, code, message):
    proc = _run(*argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [str(ROOT / "scripts" / "window_mass.py"), "--P", "1"],
        ["-m", "cubesquares.cli", "arcs", "--f-sweep", "--N", "1"],
        ["-m", "cubesquares.cli", "arcs", "--f-sweep", "--N", "64"],  # P = 2 derives, but the narrow dissection needs log P > 1
    ],
)
def test_degenerate_scale_exits_4(tmp_path, argv):
    proc = _run(*argv, cwd=tmp_path)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("bad configuration: ") and len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


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
