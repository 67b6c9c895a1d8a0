import os
import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "layer, loaded",
    [
        ("census", ["census", "cubesieve", "errors", "params"]),
        ("oscillatory", ["errors", "oscillatory", "params"]),
        ("mainterm", ["cubesieve", "errors", "mainterm", "oscillatory", "params", "smooth", "weights"]),
        ("cli", ["cli", "errors"]),  # the scripts import the CLI's argparse types; each subcommand imports its layers
    ],
)
def test_layer_import_loads_only_its_dependencies(layer, loaded):
    # the package itself re-exports nothing, so a census process does not pay for J or v(beta)
    code = (
        "import sys\n"
        f"import cubesquares.{layer}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cubesquares'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["cubesquares"] + [f"cubesquares.{m}" for m in loaded]
