import json
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from hicrit import _streams
from hicrit.calibrate import (CriticalValueEntry, append_cache_entry, critical_value,
                              empirical_quantile, gumbel_critical, level_alpha_test,
                              load_cache, resolve_critical, simulate_critical,
                              simulate_null_scores)
from hicrit.cli import dispatch
from hicrit.covtest import EigenNullProfile, load_profile, save_profile
from hicrit.errors import CacheMissError, InvalidInputError, ValidationError
from hicrit.hc_core import PValueSeries
from hicrit.numerics import RngSeed

# Reference simulated table (10^5 repetitions) for the plus variant, with the
# Gumbel closed form in brackets.
GUMBEL_TABLE = {
    (1_000, 0.05): 3.00, (5_000, 0.05): 3.08, (25_000, 0.05): 3.14, (125_000, 0.05): 3.19,
    (1_000, 0.01): 3.83, (5_000, 0.01): 3.87, (25_000, 0.01): 3.90, (125_000, 0.01): 3.93,
    (1_000, 0.005): 4.18, (5_000, 0.005): 4.20, (25_000, 0.005): 4.22, (125_000, 0.005): 4.24,
    (1_000, 0.001): 5.00, (5_000, 0.001): 4.98, (25_000, 0.001): 4.97, (125_000, 0.001): 4.97,
}


def test_gumbel_examples():
    assert round(gumbel_critical(1_000, 0.05), 2) == pytest.approx(3.00, abs=0.011)
    assert round(gumbel_critical(125_000, 0.001), 2) == pytest.approx(4.97, abs=0.011)
    assert round(gumbel_critical(1_000, 0.01), 2) == pytest.approx(3.83, abs=0.011)


def test_gumbel_full_table():
    for (n, alpha), ref in GUMBEL_TABLE.items():
        assert abs(round(gumbel_critical(n, alpha), 2) - ref) <= 0.01 + 1e-9


def test_gumbel_errors():
    with pytest.raises(InvalidInputError):
        gumbel_critical(8, 0.05)
    for alpha in (0.0, 1.0):
        with pytest.raises(InvalidInputError):
            gumbel_critical(1000, alpha)


def test_empirical_quantile_order_statistic():
    scores = np.arange(1.0, 101.0)
    assert empirical_quantile(scores, 0.05) == 95.0
    assert empirical_quantile(scores, 0.5) == 50.0
    assert empirical_quantile(np.array([3.0, 1.0, 2.0]), 0.01) == 3.0


def test_simulation_determinism_and_jobs(monkeypatch):
    # Three stream blocks, on a real pool at n_jobs = 2 with the work threshold off.
    monkeypatch.setattr(_streams, "_POOL_MIN_ELEMS", 0)
    a = simulate_null_scores(500, "plus", 0.5, 1500, seed=11)
    b = simulate_null_scores(500, "plus", 0.5, 1500, seed=11)
    c = simulate_null_scores(500, "plus", 0.5, 1500, seed=11, n_jobs=2)
    d = simulate_null_scores(500, "plus", 0.5, 1500, seed=12)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, d)


def test_simulate_critical_entry():
    entry = simulate_critical(200, 0.05, "plus", 0.5, replicates=2000, seed=3)
    assert entry.N == 200 and entry.variant == "plus"
    assert 2.0 < entry.quantile < 4.5
    again = simulate_critical(200, 0.05, "plus", 0.5, replicates=2000, seed=3)
    assert again.quantile == entry.quantile  # bit-identical
    with pytest.raises(InvalidInputError):
        simulate_critical(200, 0.05, replicates=50, seed=3)


def test_quantiles_grow_slowly():
    # Percentiles increase with N only very slowly: monotone nondecreasing
    # within Monte Carlo noise and total span < 0.2 across a 25x range of N.
    qs = []
    for n in (1_000, 5_000, 25_000):
        scores = simulate_null_scores(n, "plus", 0.5, 20_000, seed=77)
        qs.append(empirical_quantile(scores, 0.05))
    assert qs[0] <= qs[1] + 0.02 and qs[1] <= qs[2] + 0.02
    assert max(qs) - min(qs) < 0.2


def test_star_tail_dominates_plus():
    star = simulate_null_scores(1_000, "star", 0.5, 20_000, seed=78)
    plus = simulate_null_scores(1_000, "plus", 0.5, 20_000, seed=78)
    assert empirical_quantile(star, 0.001) > 3.0 * empirical_quantile(plus, 0.001)


def test_empirical_size():
    critical = simulate_critical(1_000, 0.05, "plus", 0.5, replicates=20_000, seed=5)
    fresh = simulate_null_scores(1_000, "plus", 0.5, 10_000, seed=99)
    rate = float(np.mean(fresh > critical.quantile))
    assert abs(rate - 0.05) <= 0.01


# --------------------------------------------------------------------------- cache


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.csv"
    entry = CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(42, 99), 3.14159265358979)
    append_cache_entry(path, entry)
    entries = load_cache(path)
    assert len(entries) == 1
    got = entries[0]
    assert got.quantile == entry.quantile  # bit-exact via repr round-trip
    assert got.N == 100 and got.seed.seed == 42 and got.replicates == 1000
    assert got == entry  # the stream id survives too


def _append_many(path, writer, start):
    start.wait(timeout=60)
    for i in range(25):
        append_cache_entry(path, CriticalValueEntry(100, 0.05, "plus", 0.5, 1000,
                                                    RngSeed(writer, i), 3.0 + i))


def test_concurrent_writers_keep_every_record(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(4)
    procs = [ctx.Process(target=_append_many, args=(path, w, start)) for w in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
    entries = load_cache(path)
    assert len(entries) == 100
    assert {e.seed for e in entries} == {RngSeed(w, i) for w in range(4) for i in range(25)}


def _calibrate_cache_only(capsys, path):
    code = dispatch(["calibrate", "--n", "100", "--alpha", "0.05", "--seed", "1",
                     "--cache", str(path), "--policy", "cache_only"])
    return code, capsys.readouterr().err


def test_legacy_csv_cache_exits_3(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("N,alpha,variant,alpha0,replicates,seed,stream_id,rng_version,quantile\n"
                    "100,0.05,plus\n")
    code, err = _calibrate_cache_only(capsys, path)
    assert code == 3
    assert "row 1" in err and "delete the file" in err and "Traceback" not in err


def test_malformed_cache_line_exits_3_naming_it(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    append_cache_entry(path, CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(1), 3.5))
    good = path.read_text()
    broken = [good[:40] + "\n",  # a line cut short, then terminated
              good.replace('"replicates": 1000, ', ""),  # a field missing
              good.replace('"N": 100', '"N": "many"')]  # a parameter of the wrong type
    for bad in broken:
        path.write_text(good + bad)
        code, err = _calibrate_cache_only(capsys, path)
        assert code == 3 and "row 2" in err and "Traceback" not in err
        with pytest.raises(ValidationError):
            load_cache(path)


def test_unterminated_last_line_is_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    first = CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(1), 3.5)
    append_cache_entry(path, first)
    with open(path, "a") as fh:
        fh.write('{"kind": "critical_value", "params": {"N"')  # an append cut short
    assert load_cache(path) == [first]
    second = CriticalValueEntry(100, 0.05, "plus", 0.5, 2000, RngSeed(2), 3.25)
    append_cache_entry(path, second)  # the next append cuts the fragment off
    assert load_cache(path) == [first, second]
    append_cache_entry(path, second)  # the same identity again is not stored twice
    assert load_cache(path) == [first, second]


def test_a_read_parses_only_its_own_kind(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    first = CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(1), 3.5)
    append_cache_entry(path, first)
    for k in range(3):
        save_profile(path, EigenNullProfile(3, 2, np.array([1.5, 0.5]), np.array([0.2, 0.1]),
                                            100, RngSeed(k)))
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: loads.append(text) or real_loads(text))
    assert load_cache(path) == [first]
    assert len(loads) == 1  # the three profile lines are not parsed
    assert load_profile(path, 3, 2).seed == RngSeed(2)
    assert len(loads) == 4
    second = replace(first, seed=RngSeed(2))
    append_cache_entry(path, second)
    assert len(loads) == 5  # append compares identities with its own kind only
    assert load_cache(path) == [first, second]
    good = path.read_text().splitlines(keepends=True)
    # A line that is not a record, or whose kind name is cut short, is refused by
    # either reader; a broken record of the other kind is left to its own reader.
    for bad in ("not a record\n", good[0][:13] + "\n"):
        path.write_text("".join(good[:2]) + bad)
        for load in (load_cache, lambda p: load_profile(p, 3, 2)):
            with pytest.raises(ValidationError, match="row 3"):
                load(path)
    path.write_text(good[0] + good[1].replace('"means": [1.5, 0.5]', '"means": [1.5]'))
    assert load_cache(path) == [first]
    with pytest.raises(ValidationError, match="row 2"):
        load_profile(path, 3, 2)


def test_critical_value_policies(tmp_path):
    path = str(tmp_path / "cache.csv")
    with pytest.raises(CacheMissError):
        critical_value(1000, 0.05, "plus", "cache_only", cache_path=path)
    # gumbel_fallback with an empty cache returns the closed form, writes nothing
    value = critical_value(1000, 0.05, "plus", "gumbel_fallback", cache_path=path)
    assert value == gumbel_critical(1000, 0.05)
    assert load_cache(path) == []
    # simulate_if_missing writes exactly one entry, then hits it bit-exactly
    v1 = critical_value(300, 0.05, "plus", "simulate_if_missing",
                        replicates=1000, seed=1, cache_path=path)
    assert len(load_cache(path)) == 1
    v2 = critical_value(300, 0.05, "plus", "simulate_if_missing",
                        replicates=1000, seed=1, cache_path=path)
    assert v2 == v1
    assert len(load_cache(path)) == 1
    assert resolve_critical(300, 0.05, "plus", "cache_only", replicates=1000,
                            cache_path=path) == (v1, "cache", load_cache(path)[0])
    assert resolve_critical(1000, 0.05, "plus", "gumbel_fallback",
                            cache_path=path) == (value, "gumbel", None)
    # a hit requires enough stored replicates
    with pytest.raises(CacheMissError):
        critical_value(300, 0.05, "plus", "cache_only", replicates=5000, cache_path=path)
    with pytest.raises(InvalidInputError):
        critical_value(300, 0.05, "plus", "bogus_policy")


# --------------------------------------------------------------------------- level test


def test_level_alpha_test_decisions():
    grid = PValueSeries(np.arange(1, 101) / 100.0)
    assert level_alpha_test(grid, 3.2, "plus") == "retain"
    assert level_alpha_test(grid, 0.0, "plus") == "retain"  # strict inequality
    spiked = PValueSeries(np.sort(np.concatenate([np.full(5, 1e-4),
                                                  np.arange(1, 96) / 100.0])))
    assert level_alpha_test(spiked, 3.2, "plus") == "reject"


def test_level_alpha_test_entry_mismatch():
    grid = PValueSeries(np.arange(1, 51) / 50.0)
    entry = CriticalValueEntry(100, 0.05, "plus", 0.5, 1000, RngSeed(0), 3.2)
    with pytest.raises(InvalidInputError):
        level_alpha_test(grid, entry)
    ok = CriticalValueEntry(50, 0.05, "plus", 0.5, 1000, RngSeed(0), 3.2)
    assert level_alpha_test(grid, ok) == "retain"
