"""Package-wide checks: annotations resolve and the demos run."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import meshcount

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_dataclasses():
    for info in pkgutil.iter_modules(meshcount.__path__):
        module = importlib.import_module(f"meshcount.{info.name}")
        for _, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_every_dataclass_has_resolvable_type_hints():
    classes = list(package_dataclasses())
    assert meshcount.Detection in classes
    for cls in classes:
        typing.get_type_hints(cls)


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(meshcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
