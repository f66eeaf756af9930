import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from hicrit import _streams
from hicrit.calibrate import CriticalValueEntry, append_cache_entry
from hicrit.cli import dispatch
from hicrit.covtest import make_clique_sigma, sample_gaussian
from hicrit.numerics import RNG_VERSION, RngSeed


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def output_lines(out):
    """stdout minus the manifest line (whose duration field varies)."""
    return [line for line in out.splitlines() if not line.startswith("manifest=")]


def manifest_of(out):
    for line in out.splitlines():
        if line.startswith("manifest="):
            return json.loads(line[len("manifest="):])
    raise AssertionError("no manifest line emitted")


@pytest.fixture
def pvals_file(tmp_path):
    path = tmp_path / "pvals.txt"
    path.write_text("".join(f"{i / 20}\n" for i in range(1, 21)))
    return str(path)


@pytest.fixture
def labeled_file(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 6))
    data[:10, :2] += 6.0
    labels = [1] * 10 + [-1] * 10
    path = tmp_path / "train.csv"
    header = "label," + ",".join(f"g{j}" for j in range(6))
    rows = [f"{labels[i]}," + ",".join(f"{v:.9g}" for v in data[i]) for i in range(20)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def test_score_null_grid(pvals_file, capsys, tmp_path):
    trace = str(tmp_path / "trace.csv")
    code, out, _ = run(capsys, "score", "--input", pvals_file, "--variant", "plus",
                       "--alpha0", "0.5", "--trace", trace)
    assert code == 0
    line = output_lines(out)[0]
    assert "score=0" in line and "variant=plus" in line and "n=20" in line
    rows = Path(trace).read_text().strip().splitlines()
    assert rows[0] == "i,p,component"
    assert len(rows) == 21
    manifest = manifest_of(out)
    assert manifest["subcommand"] == "score"
    assert pvals_file in manifest["input_digests"]


def test_score_csv_column(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("name,pv\na,0.5\nb,0.25\nc,0.75\n")
    code, out, _ = run(capsys, "score", "--input", str(path), "--column", "pv",
                       "--variant", "star", "--alpha0", "1.0")
    assert code == 0
    assert "variant=star" in output_lines(out)[0]


def test_score_bj_and_alr(pvals_file, capsys):
    code, out, _ = run(capsys, "score", "--input", pvals_file, "--variant", "bj")
    assert code == 0 and "variant=bj" in output_lines(out)[0]
    code, out, _ = run(capsys, "score", "--input", pvals_file, "--variant", "alr")
    assert code == 0 and "log_score=" in output_lines(out)[0]


def test_validation_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n1.5\n")
    code, _, err = run(capsys, "score", "--input", str(bad))
    assert code == 3
    assert "outside (0, 1]" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "score", "--input", str(empty))
    assert code == 3

    nonnum = tmp_path / "nn.csv"
    nonnum.write_text("label,g1\n1,abc\n-1,0.5\n")
    code, _, err = run(capsys, "select", "--train", str(nonnum), "--out",
                       str(tmp_path / "m.json"))
    assert code == 3
    assert "row 2" in err and "g1" in err


def test_validation_errors_name_file_lines(tmp_path, capsys):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("name,p\na,0.5\nb,1.5\n")
    code, _, err = run(capsys, "score", "--input", str(csv_path), "--column", "p")
    assert code == 3
    assert "outside (0, 1]" in err and "row 3" in err

    txt_path = tmp_path / "p.txt"
    txt_path.write_text("0.5\n\n\n1.5\n")
    code, _, err = run(capsys, "score", "--input", str(txt_path))
    assert code == 3
    assert "outside (0, 1]" in err and "row 4" in err


def test_malformed_model_exits_3(labeled_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "select", "--train", labeled_file, "--alpha0", "0.4",
                     "--out", str(model))
    assert code == 0
    good = json.loads(model.read_text())
    bad_models = {
        "invalid": "{not json",
        "incomplete": json.dumps({"format_version": 1, "p": 3}),
        "short_means": json.dumps(dict(good, feature_means=good["feature_means"][:-1])),
        "short_sds": json.dumps(dict(good, feature_sds=good["feature_sds"][1:])),
        "short_names": json.dumps(dict(good, feature_names=good["feature_names"][:2])),
        "weight_index": json.dumps(dict(good, weights={str(good["p"]): 1})),
        "hct_index_zero": json.dumps(dict(good, hct_index=0)),
        "hct_index_negative": json.dumps(dict(good, hct_index=-3)),
        "hct_index_above_p": json.dumps(dict(good, hct_index=good["p"] + 1)),
        "version": json.dumps(dict(good, format_version=99)),
        "not_object": "[]",
        "huge_p": json.dumps(dict(good, p=10 ** 15)),
    }
    for name, text in bad_models.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for argv in (("classify",), ("evaluate",), ("evaluate", "--out", str(tmp_path / "e.csv"))):
            code, _, err = run(capsys, *argv, "--model", str(path), "--test", labeled_file)
            assert code == 3, (name, argv, err)
            assert err.startswith("error: ")
            assert err.count(str(path)) == 1, (name, err)
            assert "hct_index" in err or not name.startswith("hct_index")


def test_usage_exit_codes(capsys):
    assert dispatch(["bogus-subcommand"]) == 2
    capsys.readouterr()
    assert dispatch(["score"]) == 2  # missing --input
    capsys.readouterr()
    assert dispatch(["--version"]) == 0


def test_calibrate_cache_flow(tmp_path, capsys):
    cache = str(tmp_path / "cache.csv")
    args = ("calibrate", "--n", "300", "--alpha", "0.05", "--variant", "plus",
            "--reps", "1000", "--seed", "5", "--cache", cache, "--threads", "1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "source=simulated" in out1
    rows1 = Path(cache).read_text()
    code, out2, _ = run(capsys, *args)
    assert "source=cache" in out2
    assert Path(cache).read_text() == rows1  # hit: no new rows
    value1 = [l for l in output_lines(out1)][0].split()[0]
    value2 = [l for l in output_lines(out2)][0].split()[0]
    assert value1 == value2


def test_calibrate_manifest_names_the_seed_used(tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    args = ("calibrate", "--n", "200", "--alpha", "0.05", "--reps", "200", "--cache", cache,
            "--threads", "1")
    code, out5, _ = run(capsys, *args, "--seed", "5")
    assert code == 0
    assert manifest_of(out5)["provenance"] == {
        "source": "simulated", "seed": 5, "stream_id": 0, "replicates": 200,
        "rng_version": RNG_VERSION}
    code, out6, _ = run(capsys, *args, "--seed", "6")
    assert code == 0 and "source=cache" in out6  # hits do not depend on the seed...
    manifest = manifest_of(out6)
    assert manifest["seed"] == 6
    assert manifest["provenance"]["seed"] == 5  # ...so the manifest names the one used
    assert manifest["provenance"]["source"] == "cache"
    code, out, _ = run(capsys, "calibrate", "--n", "1000", "--alpha", "0.05", "--seed", "1",
                       "--policy", "gumbel_fallback")
    assert manifest_of(out)["provenance"] == {"source": "gumbel"}


def test_calibrate_requires_seed(capsys):
    assert dispatch(["calibrate", "--n", "100", "--alpha", "0.05"]) == 2


def test_calibrate_cache_only_miss_exits_4(tmp_path, capsys):
    code, _, err = run(capsys, "calibrate", "--n", "100", "--alpha", "0.05",
                       "--seed", "1", "--policy", "cache_only",
                       "--cache", str(tmp_path / "missing.csv"))
    assert code == 4
    assert "no cached critical value" in err


def test_calibrate_gumbel_fallback(capsys):
    code, out, _ = run(capsys, "calibrate", "--n", "1000", "--alpha", "0.05",
                       "--seed", "1", "--policy", "gumbel_fallback")
    assert code == 0
    assert "source=gumbel" in output_lines(out)[0]


def test_detect_sim_replay(tmp_path, capsys):
    out_csv = str(tmp_path / "scores.csv")
    args = ("detect-sim", "--n", "400", "--epsilon", "0.02", "--tau", "3",
            "--reps", "20", "--alpha", "0.05", "--variant", "plus", "--seed", "9",
            "--critical", "3.1", "--out", out_csv)
    code, out1, _ = run(capsys, *args)
    assert code == 0
    bytes1 = Path(out_csv).read_bytes()
    rows = bytes1.decode().strip().splitlines()
    assert rows[0] == "hypothesis,score"
    assert len(rows) == 41
    assert {r.split(",")[0] for r in rows[1:]} == {"H0", "H1"}
    code, out2, _ = run(capsys, *args)
    assert output_lines(out1) == output_lines(out2)
    assert Path(out_csv).read_bytes() == bytes1  # bit-identical replay


def test_detect_sim_arw_parameterization(capsys):
    code, out, _ = run(capsys, "detect-sim", "--n", "500", "--vartheta", "0.6",
                       "--r", "0.5", "--reps", "10", "--seed", "3",
                       "--calibration-reps", "200")
    assert code == 0
    assert "power=" in output_lines(out)[0]
    code, _, err = run(capsys, "detect-sim", "--n", "500", "--reps", "5", "--seed", "1")
    assert code == 2  # a missing option pair is a usage error
    assert err.startswith("usage: hicrit detect-sim ")
    assert "--epsilon with --tau" in err


def test_detect_sim_manifest_provenance(capsys):
    args = ("detect-sim", "--n", "400", "--vartheta", "0.6", "--r", "0.5", "--reps", "12",
            "--seed", "8", "--threads", "1")
    code, out, _ = run(capsys, *args, "--critical", "3.1")
    assert code == 0
    assert manifest_of(out)["provenance"] == {
        "seed": 8, "stream_ids": {"null": 0, "alternative": 1 << 20}, "reps": 12,
        "rng_version": RNG_VERSION, "critical_source": "given"}
    line = output_lines(out)[0]
    assert line.split()[0].startswith("power=") and line.split()[-1] == "reps=12"
    code, out, _ = run(capsys, *args, "--calibration-reps", "200")
    assert code == 0
    assert manifest_of(out)["provenance"] == {
        "seed": 8, "stream_ids": {"null": 0, "alternative": 1 << 20, "calibration": 1 << 21},
        "reps": 12, "rng_version": RNG_VERSION, "critical_source": "simulated"}


def test_permtest(labeled_file, capsys, tmp_path):
    out_csv = str(tmp_path / "shuffles.csv")
    code, out, _ = run(capsys, "permtest", "--input", labeled_file, "--shuffles", "19",
                       "--seed", "2", "--out", out_csv)
    assert code == 0
    assert "pvalue=" in output_lines(out)[0]
    assert len(Path(out_csv).read_text().strip().splitlines()) == 20


def test_select_classify_evaluate_roundtrip(labeled_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    code, out, _ = run(capsys, "select", "--train", labeled_file, "--alpha0", "0.4",
                       "--out", model)
    assert code == 0
    assert "hct_index=" in output_lines(out)[0]
    assert os.path.exists(model)

    code, out, _ = run(capsys, "classify", "--model", model, "--test", labeled_file)
    assert code == 0
    lines = output_lines(out)
    assert lines[0] == "index,prediction,score"
    assert len(lines) == 22  # header + 20 rows + summary

    code, out, _ = run(capsys, "evaluate", "--model", model, "--test", labeled_file,
                       "--out", str(tmp_path / "scores.csv"))
    assert code == 0
    assert "error_rate=0 " in output_lines(out)[0] + " "
    assert (tmp_path / "scores.csv").read_text().startswith("index,label,prediction")


def test_labels_one_two_remap(tmp_path, capsys):
    path = tmp_path / "t12.csv"
    rng = np.random.default_rng(1)
    rows = ["label,a,b"]
    for i in range(12):
        lab = 1 if i < 6 else 2
        vals = rng.standard_normal(2) + (3.0 if lab == 1 else 0.0)
        rows.append(f"{lab},{vals[0]:.6g},{vals[1]:.6g}")
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "select", "--train", str(path), "--alpha0", "0.5",
                         "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert "remapped" in err


def test_cov_clique_cli(tmp_path, capsys):
    rng = np.random.default_rng(2)
    X = sample_gaussian(40, make_clique_sigma(12, 4, 0.5), seed=11)
    path = tmp_path / "m.csv"
    header = ",".join(f"v{j}" for j in range(12))
    path.write_text(header + "\n" + "\n".join(
        ",".join(f"{v:.9g}" for v in row) for row in X) + "\n")
    code, out, _ = run(capsys, "cov-clique", "--input", str(path), "--mode", "pairwise")
    assert code == 0
    assert "score=" in output_lines(out)[0]
    code, out, _ = run(capsys, "cov-clique", "--input", str(path), "--mode", "rowmax")
    assert code == 0


def test_cov_eigen_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((25, 10))
    path = tmp_path / "x.csv"
    path.write_text(",".join(f"v{j}" for j in range(10)) + "\n" + "\n".join(
        ",".join(f"{v:.9g}" for v in row) for row in X) + "\n")
    cache = str(tmp_path / "profiles.csv")
    trace = str(tmp_path / "tr.csv")
    args = ("cov-eigen", "--input", str(path), "--null-reps", "100", "--seed", "4",
            "--profile-cache", cache, "--trace", trace, "--threads", "1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "score=" in output_lines(out1)[0]
    assert os.path.exists(cache)
    code, out2, _ = run(capsys, *args, "--seed", "5")  # hits the profile cache
    assert output_lines(out1) == output_lines(out2)
    assert manifest_of(out2)["provenance"] == {"seed": 4, "stream_id": 0, "replicates": 100,
                                               "rng_version": RNG_VERSION}
    assert len(Path(trace).read_text().strip().splitlines()) == 11


def test_pairs_cli(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    path.write_text("x,y\n" + "\n".join(f"{a:.9g},{b:.9g}" for a, b in zip(x, y)) + "\n")
    trace = str(tmp_path / "tr.csv")
    code, out, _ = run(capsys, "pairs", "--input", str(path), "--trace", trace)
    assert code == 0
    assert "score=" in output_lines(out)[0]
    assert Path(trace).read_text().splitlines()[0].strip() == "k,S_k,component"

    code, out, _ = run(capsys, "pairs", "--simulate", "--n", "200", "--epsilon", "0.05",
                       "--tau", "1", "--rho", "0.25", "--reps", "10", "--seed", "6",
                       "--out", str(tmp_path / "sim.csv"))
    assert code == 0
    assert "median_score=" in output_lines(out)[0]


def test_pairs_simulate_requires_seed(capsys):
    code, out, err = run(capsys, "pairs", "--simulate", "--n", "50", "--reps", "2")
    assert code == 2
    assert "--seed" in err and "median_score" not in out
    code, _, err = run(capsys, "pairs", "--simulate", "--seed", "1")
    assert code == 2 and "--n" in err
    assert err.startswith("usage: hicrit pairs ")  # the subcommand's usage, not the top level
    code, _, err = run(capsys, "pairs")
    assert code == 2 and "--input or --simulate" in err


def test_phase_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "phase", "--theta", "0", "--grid", "4")
    assert code == 0
    lines = output_lines(out)
    assert lines[0] == "vartheta,rho,rho_theta,qideal_phase,qideal_value"
    grid_row = [l for l in lines if l.startswith("0.6,")]
    assert grid_row and grid_row[0].split(",")[1] == "0.1"

    out_csv = str(tmp_path / "phase.csv")
    code, out, _ = run(capsys, "phase", "--theta", "0.15", "--grid", "200",
                       "--out", out_csv)
    assert code == 0
    rows = Path(out_csv).read_text().strip().splitlines()
    assert len(rows) == 201
    assert "nan" not in Path(out_csv).read_text().lower()

    for r in ("-1", "0"):
        code, out, err = run(capsys, "phase", "--theta", "0.2", "--grid", "3", "--r", r)
        assert code == 3 and "r must be positive" in err and "failure" not in out


def test_non_utf8_input_exits_3_naming_the_file(labeled_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert run(capsys, "select", "--train", labeled_file, "--out", model)[0] == 0
    lines = tmp_path / "p.txt"
    lines.write_bytes(b"0.1\n\xff\xfe0.2\n")
    table = tmp_path / "m.csv"
    table.write_bytes(b"a,b\n1,2\n\xe9,3\n")
    labeled = tmp_path / "l.csv"
    labeled.write_bytes(Path(labeled_file).read_bytes() + b"1,\xe9\n")
    for argv, path in ((("score", "--input", str(lines)), lines),
                       (("score", "--input", str(table), "--column", "a"), table),
                       (("cov-clique", "--input", str(table)), table),
                       (("classify", "--model", model, "--test", str(labeled)), labeled),
                       (("classify", "--model", model, "--test", str(lines)), lines)):
        code, out, err = run(capsys, *argv)
        assert code == 3, (argv, err)
        assert err.startswith(f"error: {path}: not utf-8 text")


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes it


def test_score_reads_a_value_per_line_file_that_starts_with_a_byte_order_mark(pvals_file,
                                                                               tmp_path, capsys):
    marked = tmp_path / "bom.txt"
    marked.write_bytes(BOM + Path(pvals_file).read_bytes())
    code, out, err = run(capsys, "score", "--input", str(marked))
    assert (code, err) == (0, ""), err
    assert output_lines(out) == output_lines(run(capsys, "score", "--input", pvals_file)[1])


def test_score_column_reads_a_header_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "p.csv", tmp_path / "bom.csv"
    plain.write_text("pvalue,x\n0.01,1\n0.5,2\n0.25,3\n")
    marked.write_bytes(BOM + plain.read_bytes())
    outs = []
    for path in (plain, marked):
        code, out, err = run(capsys, "score", "--input", str(path), "--column", "pvalue")
        assert (code, err) == (0, ""), err
        outs.append(output_lines(out))
    assert outs[0] == outs[1]


def test_select_and_permtest_read_a_label_header_after_a_byte_order_mark(labeled_file,
                                                                          tmp_path, capsys):
    marked = tmp_path / "bom.csv"
    marked.write_bytes(BOM + Path(labeled_file).read_bytes())
    model = tmp_path / "model.json"
    for argv in (("select", "--out", str(model), "--train"),
                 ("permtest", "--shuffles", "99", "--seed", "1", "--input")):
        outs = []
        for path in (labeled_file, str(marked)):
            code, out, err = run(capsys, *argv, path)
            assert (code, err) == (0, ""), (argv, err)
            outs.append((output_lines(out), model.read_text()))
        assert outs[0] == outs[1], argv


def test_classify_and_evaluate_read_a_model_that_starts_with_a_byte_order_mark(labeled_file,
                                                                                tmp_path, capsys):
    plain, marked, latin = tmp_path / "model.json", tmp_path / "bom.json", tmp_path / "l1.json"
    assert run(capsys, "select", "--train", labeled_file, "--out", str(plain))[0] == 0
    marked.write_bytes(BOM + plain.read_bytes())
    for argv in (("classify",), ("evaluate",)):
        outs = []
        for path in (plain, marked):
            code, out, err = run(capsys, *argv, "--model", str(path), "--test", labeled_file)
            assert err == "", (argv, err)
            outs.append((code, output_lines(out)))
        assert outs[0] == outs[1] and outs[0][0] == 0, argv
    latin.write_bytes(plain.read_bytes().replace(b'"g0"', b'"g\xe9"'))
    code, out, err = run(capsys, "classify", "--model", str(latin), "--test", labeled_file)
    assert (code, out) == (3, "") and err.startswith(f"error: {latin}: "), err


def test_a_looked_up_column_name_held_twice_in_the_header_exits_3(tmp_path, capsys):
    scores, pairs = tmp_path / "p.csv", tmp_path / "pairs.csv"
    scores.write_text("a,a,b\n0.5,0.1,1\n0.25,0.2,2\n")
    pairs.write_text("x,y,x\n" + "".join(f"{i},{i * i % 7},{-i}\n" for i in range(10)))
    for argv, name, header in (
            (("score", "--input", str(scores), "--column", "a"), "a", ["a", "a", "b"]),
            (("pairs", "--input", str(pairs)), "x", ["x", "y", "x"])):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"error: column {name!r} appears 2 times in header {header} (row 1)\n"


def test_nonpositive_n_exits_3(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    for n in ("0", "-5"):
        code, _, err = run(capsys, "calibrate", "--n", n, "--alpha", "0.05", "--reps", "200",
                           "--seed", "1", "--cache", cache, "--threads", "2")
        assert code == 3 and "empty index range" in err
        code, _, err = run(capsys, "detect-sim", "--n", n, "--epsilon", "0.1", "--tau", "1",
                           "--reps", "10", "--seed", "1", "--threads", "2")
        assert code == 3 and "empty index range" in err
    assert not os.path.exists(cache)


def test_invalid_levels_exit_3_before_any_cache_or_simulation(tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    cache = str(tmp_path / "c.jsonl")
    calib = ["calibrate", "--seed", "1", "--cache", cache, "--threads", "1"]
    cases = [
        (calib + ["--n", "0", "--alpha", "0.05", "--policy", "cache_only"], "empty index range"),
        (calib + ["--n", "100", "--alpha", "1.5", "--policy", "cache_only"], "alpha must lie"),
        (calib + ["--n", "100000", "--alpha", "1.5", "--reps", "1024"], "alpha must lie"),
        (["detect-sim", "--n", "100", "--epsilon", "0.1", "--tau", "1", "--reps", "10",
          "--seed", "1", "--alpha", "1.5", "--critical", "3", "--threads", "1"], "alpha must lie"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 3 and message in err, (argv, err)
        assert "manifest=" not in out
    assert not os.path.exists(cache)


def test_detect_sim_refuses_too_few_calibration_reps(capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    code, out, err = run(capsys, "detect-sim", "--n", "500", "--epsilon", "0.05", "--tau", "2",
                         "--reps", "10", "--seed", "1", "--calibration-reps", "5",
                         "--threads", "1")
    assert code == 3 and "need replicates >= 100, got 5" in err
    assert "manifest=" not in out


def test_classify_ignores_the_labels_of_a_test_file(labeled_file, tmp_path, capsys):
    # The predictions come from the features alone, so a label alphabet that
    # training would refuse (0/1 here) does not stop classify.
    model = str(tmp_path / "model.json")
    assert run(capsys, "select", "--train", labeled_file, "--out", model)[0] == 0
    header, *rows = Path(labeled_file).read_text().splitlines()
    zero_one = tmp_path / "zero_one.csv"
    zero_one.write_text("\n".join([header] + [("0" + r[2:]) if r.startswith("-1,") else r
                                              for r in rows]) + "\n")
    code, out, err = run(capsys, "classify", "--model", model, "--test", labeled_file)
    assert code == 0, err
    code, zero_one_out, err = run(capsys, "classify", "--model", model, "--test", str(zero_one))
    assert code == 0, err
    assert output_lines(zero_one_out) == output_lines(out)


def test_classify_reads_a_labeled_file_with_a_leading_blank_line(labeled_file, tmp_path,
                                                                  capsys):
    model = str(tmp_path / "model.json")
    assert run(capsys, "select", "--train", labeled_file, "--out", model)[0] == 0
    padded = tmp_path / "padded.csv"
    padded.write_text("\n" + Path(labeled_file).read_text())
    code, out, err = run(capsys, "classify", "--model", model, "--test", labeled_file)
    assert code == 0, err
    code, padded_out, err = run(capsys, "classify", "--model", model, "--test", str(padded))
    assert code == 0, err
    assert output_lines(padded_out) == output_lines(out)


def test_negative_precision_is_a_usage_error(pvals_file, capsys):
    code, out, err = run(capsys, "score", "--input", pvals_file, "--precision", "-1")
    assert code == 2 and out == ""
    assert err.startswith("usage: hicrit score ") and "--precision must be >= 0" in err
    code, out, _ = run(capsys, "score", "--input", pvals_file, "--precision", "0")
    assert code == 0 and "score=" in out


def test_pairs_simulate_zero_reps_exits_3(capsys):
    code, out, err = run(capsys, "pairs", "--simulate", "--n", "50", "--reps", "0",
                         "--seed", "1")
    assert code == 3 and "reps must be positive" in err and "median_score" not in out


def test_tables_on_stdout_match_the_out_file(labeled_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert run(capsys, "select", "--train", labeled_file, "--out", model)[0] == 0
    for argv in (("classify", "--model", model, "--test", labeled_file),
                 ("phase", "--theta", "0.2", "--grid", "9", "--r", "0.3")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / f"{argv[0]}.csv"
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        table = path.read_bytes().decode()
        assert table.endswith("\r\n")
        assert out.startswith(table.replace("\r\n", "\n"))


DETECT = ["detect-sim", "--n", "1000", "--reps", "10", "--seed", "1", "--threads", "1"]


@pytest.mark.parametrize("argv", [
    DETECT + ["--epsilon", "1.5", "--tau", "1", "--critical", "3"],
    DETECT + ["--epsilon", "-0.1", "--tau", "1", "--critical", "3"],
    DETECT + ["--epsilon", "nan", "--tau", "1", "--critical", "3"],
    DETECT + ["--epsilon", "0.1", "--tau", "nan", "--critical", "3"],
    DETECT + ["--epsilon", "0.1", "--tau", "inf"],
    DETECT + ["--vartheta", "0.6", "--r", "nan"],
    DETECT + ["--epsilon", "0.1", "--tau", "1", "--critical", "nan"],
    ["phase", "--theta", "0.2", "--grid", "2", "--r", "nan"],
], ids=["epsilon-1.5", "epsilon-neg", "epsilon-nan", "tau-nan", "tau-inf", "r-nan",
        "critical-nan", "phase-r-nan"])
def test_out_of_range_model_arguments_exit_3(argv, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    code, out, err = run(capsys, *argv)
    assert code == 3 and err.startswith("error: "), err
    assert "Traceback" not in err and "manifest=" not in out


PAIRS_SIM = ["pairs", "--simulate", "--n", "100", "--epsilon", "0.1", "--reps", "3", "--seed", "1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra, message", [
    (["--tau", "nan"], "tau must be finite, got nan"),
    (["--tau", "inf"], "tau must be finite, got inf"),
    (["--epsilon", "1.5"], "epsilon must lie in [0, 1], got 1.5"),
    (["--rho", "1"], "need |rho| < 1, got 1.0"),
    (["--alpha0", "1.5"], "alpha0 must lie in (0, 1], got 1.5"),
    (["--alpha0", "0.001"], "alpha0=0.001 and n=100 leave an empty corner range [100, 90]"),
    (["--n", "3"], "alpha0=0.5 and n=3 leave an empty corner range [2, 1]"),
], ids=["tau-nan", "tau-inf", "epsilon-1.5", "rho-1", "alpha0-1.5", "alpha0-0.001", "n-3"])
def test_pairs_simulate_names_the_bad_argument(extra, message, capsys, monkeypatch):
    # Refused before the first replicate is drawn, with the argument named
    # and no numpy warning from a draw.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    code, out, err = run(capsys, *PAIRS_SIM, *extra)
    assert code == 3 and err == f"error: {message}\n", err
    assert "manifest=" not in out


@pytest.mark.parametrize("subcommand, threads", [
    ("calibrate", "0"), ("calibrate", "-3"), ("detect-sim", "0"), ("cov-eigen", "0")])
def test_threads_below_one_is_a_usage_error(subcommand, threads, tmp_path, capsys,
                                             monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a usage error")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    cache = str(tmp_path / "cache.jsonl")
    data = tmp_path / "x.csv"
    data.write_text("a,b\n1,2\n3,5\n4,4\n")
    argv = {
        "calibrate": ["--n", "1000", "--alpha", "0.05", "--reps", "1000", "--cache", cache],
        "detect-sim": ["--n", "1000", "--epsilon", "0.1", "--tau", "1", "--reps", "10"],
        "cov-eigen": ["--input", str(data), "--null-reps", "100", "--profile-cache", cache],
    }[subcommand]
    code, out, err = run(capsys, subcommand, *argv, "--seed", "1", "--threads", threads)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: hicrit {subcommand} ") and "--threads must be >= 1" in err
    assert not os.path.exists(cache)


def test_detect_sim_streams_share_one_pool(capsys, monkeypatch):
    # Without --critical, the calibration, null and alternative streams go to
    # one pool. Calibration alone (two blocks) and the null and alternative
    # streams alone would each be above the work threshold.
    argv = ["detect-sim", "--n", "2000", "--epsilon", "0.01", "--tau", "2.5", "--reps", "300",
            "--calibration-reps", "600", "--seed", "3"]
    code, in_process, err = run(capsys, *argv, "--threads", "1")
    assert code == 0, err
    pools = []

    class CountingPool(_streams.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(_streams, "ProcessPoolExecutor", CountingPool)
    code, pooled, err = run(capsys, *argv, "--threads", "2")
    assert code == 0, err
    assert pools == [2]
    assert output_lines(pooled) == output_lines(in_process)


def test_cov_eigen_runs_its_profile_in_one_process(tmp_path, capsys, monkeypatch):
    # 16 stream blocks of 40 x 30 draws, 1.2M elements: above the pool's work
    # threshold, yet no worker cap starts a pool for the profile.
    assert 1000 * 40 * 30 >= _streams._POOL_MIN_ELEMS
    X = np.random.default_rng(6).standard_normal((40, 30))
    data = tmp_path / "x.csv"
    data.write_text(",".join(f"v{j}" for j in range(30)) + "\n" + "\n".join(
        ",".join(f"{v:.9g}" for v in row) for row in X) + "\n")

    def no_pool(*args, **kwargs):
        raise AssertionError("cov-eigen started a process pool")

    monkeypatch.setattr(_streams, "ProcessPoolExecutor", no_pool)
    lines = []
    for k, threads in enumerate((["--threads", "1"], ["--threads", "2"], [])):
        code, out, err = run(capsys, "cov-eigen", "--input", str(data), "--null-reps", "1000",
                             "--seed", "7", "--profile-cache", str(tmp_path / f"p{k}.jsonl"),
                             *threads)
        assert code == 0, err
        lines.append(output_lines(out))
    assert lines[1] == lines[0] and lines[2] == lines[0]


@pytest.mark.parametrize("alpha0", ["0", "nan"])
def test_cov_eigen_checks_alpha0_before_its_profile(alpha0, tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    data = tmp_path / "m.csv"
    data.write_text("a,b,c\n" + "\n".join(f"{i},{i * i % 7},{i % 3}" for i in range(8)) + "\n")
    cache = tmp_path / "pc.jsonl"
    code, out, err = run(capsys, "cov-eigen", "--input", str(data), "--null-reps", "100",
                         "--seed", "1", "--threads", "1", "--profile-cache", str(cache),
                         "--alpha0", alpha0)
    assert code == 3 and "alpha0 must lie in (0, 1]" in err
    assert "manifest=" not in out
    assert not cache.exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("subcommand", ["score", "calibrate", "phase", "classify"])
def test_unwritable_manifest_exits_3_without_a_traceback(subcommand, target, pvals_file,
                                                         labeled_file, tmp_path, capsys):
    # phase and classify without --out print a table on stdout: nothing of it may remain.
    manifest = str(tmp_path / "no" / "such" / "m.json" if target == "missing-directory"
                   else tmp_path)
    model = str(tmp_path / "model.json")
    assert run(capsys, "select", "--train", labeled_file, "--out", model)[0] == 0
    argv = {"score": ["score", "--input", pvals_file],
            "calibrate": ["calibrate", "--n", "100", "--alpha", "0.05", "--reps", "200",
                          "--seed", "1", "--cache", str(tmp_path / "c.jsonl"),
                          "--threads", "1"],
            "phase": ["phase", "--theta", "0.3", "--grid", "3"],
            "classify": ["classify", "--model", model, "--test", labeled_file]}[subcommand]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    done = subprocess.run([sys.executable, "-m", "hicrit.cli", *argv, "--manifest", manifest],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert any(line.startswith("error: ") and manifest in line
               for line in done.stderr.splitlines()), done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("field, value", [("feature_sds", 0.0), ("feature_sds", float("nan")),
                                          ("feature_means", float("inf")),
                                          ("feature_sds", -1.0)],
                         ids=["sds-zero", "sds-nan", "means-inf", "sds-negative"])
def test_model_that_cannot_score_exits_3(field, value, labeled_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(capsys, "select", "--train", labeled_file, "--out", str(model))[0] == 0
    doc = json.loads(model.read_text())
    model.write_text(json.dumps(dict(doc, **{field: [value] * doc["p"]})))  # NaN, Infinity
    for argv in (("classify",), ("evaluate",)):
        code, out, err = run(capsys, *argv, "--model", str(model), "--test", labeled_file)
        assert code == 3, (argv, err)
        assert err.startswith("error: ") and str(model) in err and field in err
        assert "manifest=" not in out


@pytest.mark.parametrize("where", ["simulate_if_missing", "cache_only", "gumbel_fallback",
                                   "HICRIT_CACHE", "cov-eigen"])
def test_cache_in_a_missing_directory_exits_3_before_any_draw(where, tmp_path, capsys,
                                                              monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the cache path was refused")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    missing = tmp_path / "missing"
    cache = str(missing / "c.jsonl")
    calibrate = ["calibrate", "--n", "100", "--alpha", "0.05", "--reps", "200", "--seed", "1",
                 "--threads", "1"]
    if where == "HICRIT_CACHE":
        monkeypatch.setenv("HICRIT_CACHE", str(missing))
        argv, cache = calibrate, str(missing / "cache.jsonl")
    elif where == "cov-eigen":
        data = tmp_path / "m.csv"
        data.write_text("a,b,c\n" + "\n".join(f"{i},{i * i % 7},{i % 3}" for i in range(8)))
        argv = ["cov-eigen", "--input", str(data), "--null-reps", "100", "--seed", "1",
                "--threads", "1", "--profile-cache", cache]
    else:
        argv = calibrate + ["--policy", where, "--cache", cache]
    code, out, err = run(capsys, *argv)
    assert code == 3, err
    assert err.startswith("error: ") and cache in err
    assert out == ""
    assert not missing.exists()


def test_permtest_and_pairs_simulate_manifests_name_their_streams(labeled_file, capsys):
    code, out, _ = run(capsys, "permtest", "--input", labeled_file, "--shuffles", "19",
                       "--seed", "2")
    assert code == 0
    assert manifest_of(out)["provenance"] == {"replicates": 19, "seed": 2, "stream_id": 0,
                                              "rng_version": RNG_VERSION}
    code, out, _ = run(capsys, "pairs", "--simulate", "--n", "60", "--reps", "4", "--seed", "6")
    assert code == 0
    assert manifest_of(out)["provenance"] == {"replicates": 4, "seed": 6, "stream_id": 0,
                                              "rng_version": RNG_VERSION}


@pytest.mark.parametrize("case", ["closed-after-one-line", "closed-before-any-write",
                                  "help", "version", "phase-help"])
def test_closed_stdout_exits_141_without_an_error_line(case, pvals_file):
    # Block-buffered stdout, as in a shell: a large table fails inside dispatch, a
    # small one only at the final flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    cli = [sys.executable, "-m", "hicrit.cli"]
    if case == "closed-after-one-line":
        proc = subprocess.Popen([*cli, "phase", "--theta", "0.2", "--grid", "20000"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.readline()
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = {"closed-before-any-write": ["score", "--input", pvals_file],
                "help": ["--help"], "version": ["--version"],
                "phase-help": ["phase", "--help"]}[case]
        proc = subprocess.Popen([*cli, *argv], env=env,
                                stdout=write_end, stderr=subprocess.PIPE, text=True)
        os.close(write_end)
    with proc:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 141, err
    assert not any(s in err for s in ("error:", "Traceback", "Exception ignored")), err


def test_permtest_survives_a_shuffle_with_zero_pooled_variance(tmp_path, capsys):
    data = np.random.default_rng(0).standard_normal((8, 20))
    data[:, 0] = np.tile([0.0, 1.0], 4)
    labels = [1] * 4 + [-1] * 4
    path = tmp_path / "alternating.csv"
    header = "label," + ",".join(f"g{j}" for j in range(20))
    rows = [f"{labels[i]}," + ",".join(repr(float(v)) for v in data[i]) for i in range(8)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    out_csv = tmp_path / "shuffles.csv"
    code, out, err = run(capsys, "permtest", "--input", str(path), "--shuffles", "200",
                         "--seed", "1", "--out", str(out_csv))
    assert code == 0, err
    scores = [row.split(",")[1] for row in out_csv.read_text().splitlines()[1:]]
    assert len(scores) == 200 and "inf" in scores


@pytest.mark.parametrize("argv", [
    ["detect-sim", "--n", "1000", "--vartheta", "0.6", "--r", "0.5", "--epsilon", "0.9",
     "--reps", "20", "--seed", "1", "--critical", "3"],
    ["detect-sim", "--n", "1000", "--epsilon", "0.01", "--tau", "1", "--vartheta", "0.6",
     "--r", "0.5", "--reps", "20", "--seed", "1", "--critical", "3"],
    ["detect-sim", "--n", "1000", "--epsilon", "0.01", "--tau", "1", "--r", "0.5",
     "--reps", "20", "--seed", "1", "--critical", "3"],
    ["pairs", "--input", "pairs.csv", "--simulate", "--n", "100", "--reps", "3", "--seed", "1"],
    ["pairs", "--input", "pairs.csv", "--out", "po.csv"],
    ["pairs", "--simulate", "--n", "100", "--reps", "3", "--seed", "1", "--trace", "t.csv"],
], ids=["arw-pair-with-epsilon", "both-pairs", "explicit-pair-with-r", "pairs-input-simulate",
        "pairs-input-out", "pairs-simulate-trace"])
def test_a_run_that_mixes_two_modes_is_a_usage_error(argv, capsys, monkeypatch):
    # Each of these ran one mode while its manifest recorded the other's options.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a usage error")

    monkeypatch.setattr(_streams, "run_all", no_simulation)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"usage: hicrit {argv[0]} ") and "do not mix" in err, err
    assert out == ""


@pytest.fixture
def signal_pvals_file(tmp_path):
    rng = np.random.default_rng(3)
    p = np.concatenate([rng.random(190), rng.random(10) * 1e-3])
    path = tmp_path / "signal.txt"
    path.write_text("".join(f"{v!r}\n" for v in p.tolist()))
    return str(path)


def read_trace(path):
    rows = Path(path).read_text().splitlines()
    assert rows[0] == "i,p,component"
    return [row.split(",") for row in rows[1:]]


def test_bj_trace_holds_the_berk_jones_terms(signal_pvals_file, tmp_path, capsys):
    trace = str(tmp_path / "bj.csv")
    code, out, err = run(capsys, "score", "--input", signal_pvals_file, "--variant", "bj",
                         "--trace", trace, "--precision", "17")
    assert code == 0, err
    fields = dict(kv.split("=") for kv in output_lines(out)[0].split())
    rows = read_trace(trace)
    assert len(rows) == int(fields["n"]) == 200
    # The score is the term at argmax_index, and i = N with p < 1 is excluded.
    assert rows[int(fields["argmax_index"]) - 1][2] == fields["score"]
    assert rows[-1][2] == "inf"
    finite = [float(c) for _, _, c in rows if c != "inf"]
    assert max(finite) == float(fields["score"])


def test_alr_trace_sums_to_the_log_score(signal_pvals_file, tmp_path, capsys):
    trace = str(tmp_path / "alr.csv")
    code, out, err = run(capsys, "score", "--input", signal_pvals_file, "--variant", "alr",
                         "--alpha0", "0.3", "--trace", trace, "--precision", "17")
    assert code == 0, err
    fields = dict(kv.split("=") for kv in output_lines(out)[0].split())
    rows = read_trace(trace)
    assert [int(i) for i, _, _ in rows] == list(range(1, 61))  # i <= floor(0.3 * 200)
    terms = np.array([float(c) for _, _, c in rows])
    log_score = float(fields["log_score"])
    assert abs(logsumexp(terms) - log_score) <= 1e-12 * abs(log_score)


@pytest.mark.parametrize("argv", [
    ["evaluate", "--model", "MODEL", "--test", "TRAIN", "--out"],
    ["score", "--input", "PVALS", "--trace"],
], ids=["evaluate-out", "score-trace"])
def test_a_failed_table_write_prints_nothing_on_stdout(argv, labeled_file, pvals_file,
                                                        tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert run(capsys, "select", "--train", labeled_file, "--out", model)[0] == 0
    target = str(tmp_path / "missing" / "table.csv")
    argv = [{"MODEL": model, "TRAIN": labeled_file, "PVALS": pvals_file}.get(a, a)
            for a in argv]
    code, out, err = run(capsys, *argv, target)
    assert code == 3
    assert err.startswith("error: ") and target in err, err
    assert out == ""


def test_no_state_carries_over_between_dispatches(tmp_path, capsys, monkeypatch):
    # Each step of one interpreter must print what its argv prints as the first
    # dispatch of a fresh process, whatever ran before it in this one.
    pairs = tmp_path / "pairs.csv"
    rng = np.random.default_rng(9)
    pairs.write_text("x,y\n" + "\n".join(f"{a:.9g},{b:.9g}" for a, b in
                                          rng.standard_normal((40, 2))) + "\n")
    stores = {}
    for name, quantile in (("a", 3.0), ("b", 4.0)):
        stores[name] = tmp_path / name
        stores[name].mkdir()
        append_cache_entry(str(stores[name] / "cache.jsonl"), CriticalValueEntry(
            100, 0.05, "plus", 0.5, 200, RngSeed(1), quantile))
    calibrate = ["calibrate", "--n", "100", "--alpha", "0.05", "--reps", "200", "--seed", "3"]
    steps = [(None, ["calibrate", "--n", "100"]), (None, ["--help"]), (None, ["--version"]),
             (None, ["phase", "--help"]),
             (None, calibrate + ["--variant", "star", "--alpha0", "0.3",
                                 "--policy", "gumbel_fallback"]),
             (None, calibrate),
             (None, ["pairs", "--simulate", "--n", "60", "--epsilon", "0.1", "--tau", "1",
                     "--reps", "5", "--seed", "2"]),
             (None, ["pairs", "--input", str(pairs)]),
             ("a", calibrate + ["--threads", "1", "--policy", "cache_only"]),
             ("b", calibrate + ["--threads", "1", "--policy", "cache_only"])]

    def masked(text):
        return re.sub(r'"duration_s": [^,}]+', '"duration_s": _', text)

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    for store, argv in steps:
        env = {k: v for k, v in os.environ.items() if k != "HICRIT_CACHE"}
        monkeypatch.delenv("HICRIT_CACHE", raising=False)
        if store is not None:
            env["HICRIT_CACHE"] = str(stores[store])
            monkeypatch.setenv("HICRIT_CACHE", env["HICRIT_CACHE"])
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "hicrit.cli", *argv],
                               env=dict(env, PYTHONPATH=src), capture_output=True, text=True,
                               timeout=120)
        assert (code, masked(out), err) == (fresh.returncode, masked(fresh.stdout),
                                            fresh.stderr), argv
    # The two stores were read in turn, not the first one twice.
    assert "critical=4 source=cache" in out
