"""Every function the benchmark's traced run wraps exists in drorec.

`bench/spans.py` lists them in TARGETS; a traced run counts each one it
cannot find as a failed operation, so a rename must update that list.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    missing = []
    for module_name, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert spans.TARGETS and not missing
