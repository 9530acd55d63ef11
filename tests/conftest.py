import os

import pytest

from planegalois.cli import render_report
from planegalois.fields import FieldDescriptor, make_field


def _assert_golden(report: dict, name: str) -> None:
    """The report renders byte for byte as the committed `tests/data/<name>.json`."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        assert render_report(report, "json") + "\n" == fh.read()


@pytest.fixture(scope="session")
def Q():
    return make_field(FieldDescriptor.rational())


@pytest.fixture(scope="session")
def Z3():
    return make_field(FieldDescriptor.cyclotomic(3))


@pytest.fixture(scope="session")
def Z4():
    return make_field(FieldDescriptor.cyclotomic(4))


@pytest.fixture(scope="session")
def Z5():
    return make_field(FieldDescriptor.cyclotomic(5))


@pytest.fixture(scope="session")
def Z8():
    return make_field(FieldDescriptor.cyclotomic(8))


@pytest.fixture(scope="session")
def F3():
    return make_field(FieldDescriptor.prime(3))


@pytest.fixture(scope="session")
def F7():
    return make_field(FieldDescriptor.prime(7))
