"""Start-up cost: importing the CLI loads no module that only one code path uses.

numpy serves `kernel-check` alone and `urllib.request` serves `LiveBackend`
alone; every other subcommand must start without paying for either.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after_import(module: str, names: tuple[str, ...]) -> list[str]:
    # -S keeps site hooks (.pth files) from importing anything; the path is
    # passed explicitly so numpy stays importable and its absence means unused.
    path = os.pathsep.join([str(SRC), *(p for p in sys.path if p)])
    code = f"import sys, {module}; print(' '.join(n for n in {names!r} if n in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return result.stdout.split()


@pytest.mark.parametrize(
    "module,names",
    [
        ("clover_forge.cli", ("numpy", "urllib.request")),
        ("clover_forge.backends", ("urllib.request",)),
    ],
)
def test_import_loads_no_single_use_module(module, names):
    assert _loaded_after_import(module, names) == []
