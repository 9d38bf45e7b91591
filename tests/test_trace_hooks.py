"""Every name the benchmark tracer rebinds must exist in the library.

A hook whose name was renamed or removed is otherwise noticed only as a
"missing trace hooks" line in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("path, attr", [(h[0], h[1]) for h in tracing.HOOKS],
                         ids=[f"{h[0]}.{h[1]}" for h in tracing.HOOKS])
def test_trace_hook_resolves(path, attr):
    owner = tracing._resolve(path)
    assert owner is not None, f"{path} does not resolve"
    assert callable(getattr(owner, attr, None)), f"{path}.{attr} is not callable"
