"""The package holds only what its users load: no module under ``src/bild``
is left unloaded by ``import bild`` plus ``import bild.cli``, so test-only
code lives under ``tests/``."""

import json
import subprocess
import sys
from pathlib import Path

import bild

PACKAGE = Path(bild.__file__).parent


def test_every_module_is_loaded_by_the_package_and_its_cli():
    # A fresh interpreter, so that modules the test suite imported do not count.
    script = "import bild, bild.cli, json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = {name for name in json.loads(out) if name.startswith("bild.")}
    # __main__ is the ``python -m bild`` entry point: it only calls bild.cli.main
    modules = {f"bild.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")}
    assert modules - loaded == set()


def test_every_exported_name_resolves():
    assert len(set(bild.__all__)) == len(bild.__all__)
    assert [name for name in bild.__all__ if not hasattr(bild, name)] == []
