"""Test-suite settings: hypothesis runs derandomized, so that every run of
the suite draws the same examples and a failure reproduces as it is.  The
`linalg_calls` fixture counts the row reductions and products a call makes,
for the tests that bound the work of a construction."""

import functools
import sys

import pytest
from hypothesis import settings

from permchain import linalg

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls of `linalg.rref` and `FqMatrix.__matmul__`, counted by wrappers
    bound wherever the originals are: rref in every permchain module that
    holds it, the product on the class."""
    counts = {"rref": 0, "matmul": 0}

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    rref = linalg.rref
    wrapped = counted(rref, "rref")
    for name, mod in list(sys.modules.items()):
        if name == "permchain" or name.startswith("permchain."):
            for attr, val in list(vars(mod).items()):
                if val is rref:
                    monkeypatch.setattr(mod, attr, wrapped)
    monkeypatch.setattr(linalg.FqMatrix, "__matmul__", counted(linalg.FqMatrix.__matmul__, "matmul"))
    return counts
