"""Every package function the benchmark tracer patches by name must exist.

``perfbench/tracer.py`` wraps the functions listed in its ``SPANS`` and
``COUNTERS`` tables and crashes on a name the package no longer has.  The
tracer is read as source and executed in a private namespace, so nothing
under ``perfbench/`` is imported as a package or written to.
"""

from importlib import import_module
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_names() -> list[tuple[str, str]]:
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return [entry[:2] for entry in namespace["SPANS"] + namespace["COUNTERS"]]


NAMES = _tracer_names()


def test_tracer_lists_names():
    assert NAMES


@pytest.mark.parametrize("module,attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_tracer_name_resolves(module, attr):
    mod = import_module(f"spectral_reach.{module}")
    owner_name, _, member = attr.rpartition(".")
    if owner_name:
        # the tracer replaces the entry in the class's own namespace
        assert member in vars(getattr(mod, owner_name))
    else:
        assert callable(getattr(mod, attr))
