"""The benchmark's traced layer boundaries must all exist in specmix.

perfbench/tracing.py wraps public functions by (module, attribute) name and
records a name it cannot find as absent, so a rename would silently drop a
benchmark span.  This reads its TRACED table without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TRACED]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"specmix.{module}")
    head, _, method = attr.partition(".")
    target = getattr(owner, head, None)
    assert callable(target), f"specmix.{module}.{head} is not defined"
    if method:
        # the recorder patches the class's own attribute, not an inherited one
        assert isinstance(target, type) and callable(vars(target).get(method)), (
            f"specmix.{module}.{attr} is not defined on the class itself"
        )
