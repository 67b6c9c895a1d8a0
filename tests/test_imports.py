import os
import subprocess
import sys

import pytest


def _modules_after(statement: str, prefix: str) -> list[str]:
    """The sorted names in sys.modules whose first dotted part is `prefix`, in a fresh process after `statement`."""
    code = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == {prefix!r}))\n"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


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
    got = _modules_after(f"import cubesquares.{layer}", "cubesquares")
    assert got == ["cubesquares"] + [f"cubesquares.{m}" for m in loaded]


@pytest.mark.parametrize("module", ["hashlib", "_hashlib"])
def test_mainterm_import_leaves_openssl_unloaded(module):
    # weights imports hashlib inside table_digest: a process that takes no digest does not map libcrypto
    assert _modules_after("import cubesquares.mainterm", module) == []
