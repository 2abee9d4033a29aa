"""Start-up cost: a CLI process loads only the modules its subcommand runs.

`config` is a leaf and each subcommand imports its own modules, so importing
the CLI loads `config` and `errors` alone. numpy serves `kernel-check` alone,
`urllib.request` serves `LiveBackend` alone, and `concurrent.futures` serves
`gen-qa` alone; `cost-ratio` and `eval-vqa` start without any of them or the
generation modules, and `cost-ratio` without `jsonio`, whose row encoders and
builders are built per row type on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GENERATION = ("clover_forge.generate", "clover_forge.backends", "clover_forge.prompts",
              "concurrent.futures")


def _loaded_after(code: str, names: tuple[str, ...]) -> list[str]:
    """Run `code` in a fresh interpreter and return which of `names` it loaded."""
    # -S keeps site hooks (.pth files) from importing anything; the path is
    # passed explicitly so numpy stays importable and its absence means unused.
    path = os.pathsep.join([str(SRC), *(p for p in sys.path if p)])
    code = f"import sys\n{code}\nprint(' '.join(n for n in {names!r} if n in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return result.stdout.splitlines()[-1].split()


def _loaded_by_main(argv: list[str], names: tuple[str, ...]) -> list[str]:
    code = f"from clover_forge.cli import main\nassert main({argv!r}) == 0"
    return _loaded_after(code, names)


@pytest.mark.parametrize(
    "module,names",
    [
        ("clover_forge.cli", ("numpy", "urllib.request")),
        ("clover_forge.backends", ("urllib.request",)),
    ],
)
def test_import_loads_no_single_use_module(module, names):
    assert _loaded_after(f"import {module}", names) == []


def test_cost_ratio_loads_no_pipeline_module():
    names = (*GENERATION, "clover_forge.instructions", "clover_forge.corpus",
             "clover_forge.fewshot", "clover_forge.templates", "clover_forge.jsonio", "datetime",
             "numpy", "urllib.request")
    argv = ["cost-ratio", "--metric", "83.90", "--params", "187000000"]
    assert _loaded_by_main(argv, names) == []


def test_eval_vqa_loads_no_generation_module(tmp_path):
    examples = tmp_path / "examples.jsonl"
    examples.write_text(
        '{"example_id": "e1", "reference": "yes", "prediction": "yes", "qtype": "closed"}\n'
        '{"example_id": "e2", "reference": "a gland", "prediction": "gland", "qtype": "open"}\n'
    )
    argv = ["eval-vqa", "--examples", str(examples), "--report", str(tmp_path / "r.json")]
    assert _loaded_by_main(argv, GENERATION) == []



def test_import_and_cost_ratio_build_no_row_encoder_or_builder():
    """Encoders and builders are built per row type on first use, never at import."""
    assert _loaded_after("import clover_forge.cli", ("clover_forge.jsonio",)) == []
    argv = ["cost-ratio", "--metric", "83.90", "--params", "187000000"]
    code = (f"from clover_forge.cli import main\nassert main({argv!r}) == 0\n"
            "from clover_forge.jsonio import _builder, _encoder\n"
            "assert _builder.cache_info().currsize == _encoder.cache_info().currsize == 0")
    assert _loaded_after(code, ("clover_forge.jsonio",)) == ["clover_forge.jsonio"]
