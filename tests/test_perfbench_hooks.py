"""The benchmark's tracer patches each hooked name through the owner's
__dict__: a name that leaves its module makes a traced run fail with a
KeyError."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_hooked_name_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, *_ in tracing.HOOKS
               if attr not in vars(owner)]
    assert missing == []
