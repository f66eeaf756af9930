"""The benchmark's span recorder (perfbench/spans.py) wraps hicrit functions
where the calling module resolves them; every such name must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from hicrit import arw
from hicrit.cli import dispatch
from hicrit.numerics import RngSeed

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "hicrit"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib only at import time
    return spans


def test_every_trace_point_resolves():
    spans = _load_spans()
    assert spans.TRACE_POINTS
    for module, attr, _, _ in spans.TRACE_POINTS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{attr} does not resolve"


def test_every_trace_point_is_called():
    # A function-level point must be called where it is resolved: bare in its own
    # module, or as <module>.<name>(...) from another one. A point nothing calls
    # would make its per-layer metric read 0 without any error.
    bare, qualified = {}, set()
    for path in SRC.glob("*.py"):
        names = bare.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)):
                qualified.add((node.func.value.id, node.func.attr))
    dead = []
    for module, attr, _, _ in _load_spans().TRACE_POINTS:
        owner = module.rsplit(".", 1)[-1]
        if "." not in attr and attr not in bare[owner] and (owner, attr) not in qualified:
            dead.append(f"{module}.{attr}")
    assert dead == []


def test_cache_spans_are_recorded(tmp_path, capsys):
    # The benchmark's per-layer cache metrics sum these spans; if the caches
    # stopped calling the traced functions through their module globals, the
    # metrics would read 0 without any error.
    spans = _load_spans()
    data = tmp_path / "x.csv"
    rows = np.random.default_rng(0).standard_normal((12, 5)).tolist()
    data.write_text("a,b,c,d,e\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    cache = str(tmp_path / "cache.jsonl")
    calibrate = ["calibrate", "--n", "100", "--alpha", "0.05", "--reps", "200", "--seed", "1",
                 "--cache", cache, "--threads", "1"]
    eigen = ["cov-eigen", "--input", str(data), "--null-reps", "100", "--seed", "1",
             "--profile-cache", cache, "--threads", "1"]
    with spans.Tracer() as tracer:
        codes = [dispatch(argv) for argv in (calibrate, calibrate, eigen, eigen)]
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
    calls = {name: row["calls"] for name, row in spans.summary(tracer.spans).items()}
    assert calls.get("calibrate.cache_read") == 2
    assert calls.get("calibrate.cache_write") == 1
    assert calls.get("covtest.profile_cache_read") == 2
    assert calls.get("covtest.profile_cache_write") == 1


def test_detection_transforms_only_the_window(capsys):
    # arw.ndtr_elems counts P-value transforms: the null stream makes none,
    # and the alternative stream only those of its nonnulls, whose count in
    # each of the 20 rows is the first draw of its single batch.
    spans = _load_spans()
    argv = ["detect-sim", "--n", "2000", "--vartheta", "0.6", "--r", "0.5", "--reps", "20",
            "--critical", "3.1", "--seed", "1", "--threads", "1"]
    with spans.Tracer() as tracer:
        code = dispatch(argv)
    assert code == 0, capsys.readouterr().err
    nonnulls = RngSeed(1, arw._ALT_STREAMS).generator().binomial(2000, 2000 ** -0.6, 20)
    transformed = sum(s["elems"] for s in tracer.spans if s["name"] == "arw.ndtr")
    assert transformed == nonnulls.sum() > 0
    assert any(s["name"] == "hc_core.kernel" for s in tracer.spans)


def test_kernel_counters_add_up_over_row_tiles(capsys, monkeypatch):
    # A tile of 8 windows of k = 1000 splits each 20-row batch into 3 kernel calls.
    # hc_core.kernel_elems_per_s and kernel_bytes sum the spans' elems, which count
    # k_max = floor(alpha0 * N) per row off the row width, so every call must see
    # rows N wide and the spans must cover each of the 2 x 20 rows exactly once.
    spans = _load_spans()
    widths = []
    kernel = arw.hc_scores_sorted_batch

    def recorded(p, *args, **kwargs):
        widths.append(p.shape[1])
        return kernel(p, *args, **kwargs)

    monkeypatch.setattr(arw, "hc_scores_sorted_batch", recorded)
    monkeypatch.setattr(arw, "_TILE_ELEMS", 8 * 1000)
    argv = ["detect-sim", "--n", "2000", "--vartheta", "0.6", "--r", "0.5", "--reps", "20",
            "--critical", "3.1", "--seed", "1", "--threads", "1"]
    with spans.Tracer() as tracer:
        code = dispatch(argv)
    assert code == 0, capsys.readouterr().err
    kernels = [s for s in tracer.spans if s["name"] == "hc_core.kernel"]
    assert len(kernels) == len(widths) == 6
    assert set(widths) == {2000}
    assert sum(s["elems"] for s in kernels) == 2 * 20 * 1000
