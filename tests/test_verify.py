"""The self-check suites must all pass and report themselves faithfully."""

import pytest

from spectral_reach.errors import InputError
from spectral_reach.verify import SUITES, run_suite


def test_every_suite_is_green():
    results = run_suite("all")
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.suite}:{r.name} {r.detail}" for r in failed]
    assert len(results) > 100


def test_suites_cover_every_registered_name():
    names = {r.suite for r in run_suite("all")}
    assert names == set(SUITES)


def test_unknown_suite_lists_available():
    with pytest.raises(InputError, match="available"):
        run_suite("nonsense")


def test_result_serialization_fields():
    r = run_suite("env")[0]
    d = r.as_dict()
    assert set(d) == {"suite", "name", "passed", "detail"}
    assert d["passed"] is True
