"""The benchmark's span recorder (perfbench/spans.py) wraps hicrit functions
where the calling module resolves them; every such name must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib only at import time
    assert spans.TRACE_POINTS
    for module, attr, _, _ in spans.TRACE_POINTS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{attr} does not resolve"
