"""Unified command-line entry point.

Subcommands: score, calibrate, detect-sim, permtest, select, classify,
evaluate, cov-clique, cov-eigen, pairs, phase. Every randomized subcommand
requires an explicit --seed; outputs are deterministic given the arguments,
and each run ends with a single manifest line recording the parameters, seed,
input digests and duration so it can be replayed bit-exactly; calibrate and
cov-eigen add the seed, stream, replicates and RNG version of the value used,
and detect-sim the seed, streams, replicates and RNG version of its samples
and where its critical value came from.

Exit codes: 0 success; 2 usage error, including a missing option pair; 3
invalid input (a malformed data, model or cache file names its line) or an
unusable file, an unwritable --manifest path too; 4 cache miss under the
cache_only policy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, _store, arw, calibrate, covtest, hct, pairhc, phase
from ._io import ingest_labeled, ingest_pairs, ingest_plain, ingest_pvalues
from .errors import CacheMissError, HicritError
from .hc_core import (_floor_index, avg_likelihood_ratio, berk_jones, hc_components, hc_plus,
                      hc_star)
from .numerics import RNG_VERSION

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CACHE_MISS = 4


def _default_cache():
    d = os.environ.get("HICRIT_CACHE", "")
    return os.path.join(d, "cache.jsonl") if d else None


class _Fmt:
    """Locale-independent numeric formatting at a fixed significant-digit count."""

    def __init__(self, precision: int):
        self.precision = precision

    def __call__(self, x) -> str:
        if x is None:
            return ""
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return f"{float(x):.{self.precision}g}"


def _emit(pairs, fmt: _Fmt):
    print(" ".join(f"{k}={v if isinstance(v, str) else fmt(v)}" for k, v in pairs))


def _write_csv(path, header, rows, fmt: _Fmt):
    """A header and formatted rows as CSV to ``path``, or to stdout when path is None."""
    lines = [header] + [[cell if isinstance(cell, str) else fmt(cell) for cell in row]
                        for row in rows]
    if path is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(lines)
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(lines)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, started: float, provenance=None):
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "usage_error") and v is not None}
    digests = {}
    for key in ("input", "train", "test", "model"):
        path = params.get(key)
        if path and os.path.exists(path):
            digests[path] = _digest(path)
    doc = {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in params.items() if k != "subcommand"},
        "seed": params.get("seed"),
        "version": __version__,
        "input_digests": digests,
        "duration_s": round(time.monotonic() - started, 6),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    line = json.dumps(doc, sort_keys=True)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            fh.write(line + "\n")
    print(f"manifest={line}")


def _add_common(sub, seed=False, threads=False):
    # Usage errors found after parsing print this subcommand's usage line.
    sub.set_defaults(usage_error=sub.error)
    sub.add_argument("--precision", type=int, default=6,
                     help="significant digits in numeric output (default 6)")
    sub.add_argument("--manifest", help="also write the run manifest to this JSON file")
    if seed:
        sub.add_argument("--seed", type=int, required=True,
                         help="RNG seed (required: no wall-clock default)")
    if threads:
        sub.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                         help="worker cap for Monte Carlo (results do not depend on it)")


# ---------------------------------------------------------------------------
# Subcommand implementations.

def _cmd_score(args, fmt):
    series = ingest_pvalues(args.input, column=args.column)
    if args.variant == "star":
        res = hc_star(series, args.alpha0)
    elif args.variant == "plus":
        res = hc_plus(series, args.alpha0)
    elif args.variant == "bj":
        res = berk_jones(series)
    else:
        score = avg_likelihood_ratio(series, args.alpha0)
        _emit([("variant", "alr"), ("log_score", score), ("n", series.n),
               ("alpha0", args.alpha0)], fmt)
        return
    _emit([("variant", res.variant), ("score", res.score),
           ("argmax_index", res.argmax_index), ("n", series.n), ("alpha0", res.alpha0),
           ("empty_range", res.empty_range)], fmt)
    if args.trace:
        comp = hc_components(series)
        rows = [(i + 1, series.values[i], comp[i]) for i in range(series.n)]
        _write_csv(args.trace, ["i", "p", "component"], rows, fmt)


def _cmd_calibrate(args, fmt):
    value, source, entry = calibrate.resolve_critical(
        args.n, args.alpha, args.variant, args.policy, args.alpha0, args.reps, args.seed,
        args.cache or _default_cache(), n_jobs=args.threads)
    fields = [("critical", value), ("source", source), ("N", args.n), ("alpha", args.alpha),
              ("variant", args.variant), ("alpha0", args.alpha0)]
    if entry is not None:
        fields.append(("replicates", entry.replicates))
    _emit(fields, fmt)
    return {"source": source, **(_store.provenance(entry) if entry is not None else {})}


def _cmd_detect_sim(args, fmt):
    explicit = args.epsilon is not None and args.tau is not None
    summary = arw.detection_experiment(
        args.n if explicit else arw.ArwParams(args.n, args.vartheta, args.r), args.reps,
        args.alpha, args.variant, args.seed, epsilon=args.epsilon, tau=args.tau,
        alpha0=args.alpha0, critical=args.critical,
        calibration_reps=args.calibration_reps, n_jobs=args.threads)
    _emit([("power", summary.power), ("size", summary.size),
           ("critical", summary.critical), ("alpha", summary.alpha),
           ("variant", summary.variant), ("separated", summary.separated),
           ("reps", args.reps)], fmt)
    if args.out:
        rows = [("H0", s) for s in summary.null_scores] + [("H1", s) for s in summary.alt_scores]
        _write_csv(args.out, ["hypothesis", "score"], rows, fmt)
    streams = {"null": arw._NULL_STREAMS, "alternative": arw._ALT_STREAMS}
    if args.critical is None:
        streams["calibration"] = arw._CALIB_STREAMS
    return {"seed": args.seed, "stream_ids": streams, "reps": args.reps,
            "rng_version": RNG_VERSION,
            "critical_source": "simulated" if args.critical is None else "given"}


def _cmd_permtest(args, fmt):
    matrix = ingest_labeled(args.input)
    res = arw.permutation_test(matrix, args.shuffles, args.seed,
                               variant=args.variant, alpha0=args.alpha0)
    _emit([("pvalue", res.pvalue), ("original_score", res.original_score),
           ("shuffles", args.shuffles), ("variant", args.variant)], fmt)
    if args.out:
        _write_csv(args.out, ["shuffle", "score"],
                   list(enumerate(res.shuffle_scores, start=1)), fmt)


def _cmd_select(args, fmt):
    matrix = ingest_labeled(args.train)
    model = hct.train(matrix, args.alpha0)
    hct.save_model(model, args.out)
    _emit([("hct_index", model.hct_index), ("threshold", model.threshold),
           ("selected", model.selected_count), ("p", model.p),
           ("consistent", model.selection_consistent), ("model", args.out)], fmt)


def _load_test_matrix(path):
    """Sample rows of a plain matrix, or of a labeled one minus its label column:
    classify predicts from the features alone, so the labels go unchecked."""
    matrix, header = ingest_plain(path)
    return matrix[:, 1:] if header[0].lower() == "label" else matrix


def _cmd_classify(args, fmt):
    model = hct.load_model(args.model)
    scores = hct.decision_scores(model, _load_test_matrix(args.test))
    preds = np.where(scores >= 0.0, 1, -1)
    rows = [(i + 1, int(preds[i]), scores[i]) for i in range(len(scores))]
    _write_csv(args.out, ["index", "prediction", "score"], rows, fmt)
    _emit([("n", len(scores)), ("positive", int((preds == 1).sum())),
           ("negative", int((preds == -1).sum()))], fmt)


def _cmd_evaluate(args, fmt):
    model = hct.load_model(args.model)
    matrix = ingest_labeled(args.test)
    res = hct.evaluate(model, matrix)
    _emit([("error_rate", res.error_rate), ("n_test", matrix.n),
           ("ties", res.tie_count), ("hct_index", model.hct_index)], fmt)
    if args.out:
        scores = hct.decision_scores(model, matrix.data)
        norm = scores / np.sqrt(model.hct_index)
        rows = [(i + 1, int(matrix.labels[i]), int(res.predictions[i]), scores[i], norm[i])
                for i in range(matrix.n)]
        _write_csv(args.out, ["index", "label", "prediction", "score", "normalized_score"],
                   rows, fmt)


def _cmd_cov_clique(args, fmt):
    data, _ = ingest_plain(args.input)
    res = covtest.clique_test(data, mode=args.mode, alpha0=args.alpha0,
                              side=args.side, center=not args.no_center)
    _emit([("score", res.score), ("mode", args.mode), ("argmax_index", res.argmax_index),
           ("n", data.shape[0]), ("p", data.shape[1])], fmt)


def _cmd_cov_eigen(args, fmt):
    data, _ = ingest_plain(args.input)
    n, p = data.shape
    # Only _floor_index's (0, 1] check matters here: a bad alpha0 is refused
    # before the profile is simulated and stored.
    _floor_index(args.alpha0, 1)
    profile = covtest.eigen_null_profile_cached(n, p, args.null_reps, args.seed,
                                                cache_path=args.profile_cache or _default_cache(),
                                                n_jobs=args.threads)
    res = covtest.eigen_hc_test(data, profile, args.alpha0)
    _emit([("score", res.score), ("argmax_rank", res.argmax_rank), ("n", n), ("p", p),
           ("profile_replicates", profile.replicates)], fmt)
    if args.trace:
        rows = [(i + 1, res.components[i]) for i in range(res.components.size)]
        _write_csv(args.trace, ["rank", "component"], rows, fmt)
    return _store.provenance(profile)


def _cmd_pairs(args, fmt):
    if args.simulate:
        scores = pairhc.simulate_pair_scores(args.n, args.epsilon, args.tau, args.rho,
                                             args.reps, args.seed, args.alpha0)
        _emit([("reps", args.reps), ("median_score", float(np.median(scores))),
               ("min_score", scores.min()), ("max_score", scores.max()),
               ("epsilon", args.epsilon), ("tau", args.tau), ("rho", args.rho)], fmt)
        if args.out:
            _write_csv(args.out, ["rep", "score"], list(enumerate(scores, start=1)), fmt)
        return
    x, y = ingest_pairs(args.input)
    ranked = pairhc.RankedPairs.from_data(x, y)
    res = pairhc.pair_hc_star(ranked, args.alpha0)
    _emit([("score", res.score), ("argmax_k", res.argmax_index), ("n", ranked.n)], fmt)
    if args.trace:
        comp = pairhc.pair_hc_components(ranked)
        counts = pairhc.corner_counts(ranked)
        rows = [(k + 1, int(counts[k]), comp[k]) for k in range(ranked.n)
                if np.isfinite(comp[k])]
        _write_csv(args.trace, ["k", "S_k", "component"], rows, fmt)


def _cmd_phase(args, fmt):
    rows = phase.boundary_table(args.theta, args.grid, r=args.r)
    header = ["vartheta", "rho", "rho_theta", "qideal_phase", "qideal_value"]
    _write_csv(args.out, header, [[r[h] for h in header] for r in rows], fmt)
    _emit([("rows", len(rows)), ("theta", args.theta)], fmt)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hicrit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"hicrit {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("score", help="HC-family score of a P-value file")
    s.add_argument("--input", required=True)
    s.add_argument("--column", help="CSV column name (default: one value per line)")
    s.add_argument("--variant", choices=["star", "plus", "bj", "alr"], default="plus")
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--trace", help="write per-index component trace CSV here")
    _add_common(s)
    s.set_defaults(func=_cmd_score)

    s = subs.add_parser("calibrate", help="simulate (and cache) a critical value")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--variant", choices=["star", "plus"], default="plus")
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--reps", type=int, default=100_000)
    s.add_argument("--cache", help="cache file, JSON lines (default: $HICRIT_CACHE/cache.jsonl)")
    s.add_argument("--policy", choices=["simulate_if_missing", "cache_only", "gumbel_fallback"],
                   default="simulate_if_missing", help="what to do on a cache miss")
    _add_common(s, seed=True, threads=True)
    s.set_defaults(func=_cmd_calibrate)

    s = subs.add_parser("detect-sim", help="null/alternative detection experiment")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--epsilon", type=float)
    s.add_argument("--tau", type=float)
    s.add_argument("--vartheta", type=float)
    s.add_argument("--r", type=float)
    s.add_argument("--reps", type=int, required=True)
    s.add_argument("--alpha", type=float, default=0.05)
    s.add_argument("--variant", choices=["star", "plus"], default="plus")
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--critical", type=float, help="use this critical value instead of simulating")
    s.add_argument("--calibration-reps", type=int, default=1000)
    s.add_argument("--out", help="write per-replicate scores CSV here")
    _add_common(s, seed=True, threads=True)
    s.set_defaults(func=_cmd_detect_sim)

    s = subs.add_parser("permtest", help="shuffle P-value for a labeled matrix's HC score")
    s.add_argument("--input", required=True)
    s.add_argument("--shuffles", type=int, required=True)
    s.add_argument("--variant", choices=["star", "plus"], default="plus")
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--out", help="write shuffle scores CSV here")
    _add_common(s, seed=True)
    s.set_defaults(func=_cmd_permtest)

    s = subs.add_parser("select", help="train an HCT-LDA model")
    s.add_argument("--train", required=True)
    s.add_argument("--alpha0", type=float, default=0.10)
    s.add_argument("--out", required=True, help="model JSON output path")
    _add_common(s)
    s.set_defaults(func=_cmd_select)

    s = subs.add_parser("classify", help="predict labels with a trained model")
    s.add_argument("--model", required=True)
    s.add_argument("--test", required=True)
    s.add_argument("--out", help="write predictions CSV here (default: stdout)")
    _add_common(s)
    s.set_defaults(func=_cmd_classify)

    s = subs.add_parser("evaluate", help="error rate of a model on a labeled test set")
    s.add_argument("--model", required=True)
    s.add_argument("--test", required=True)
    s.add_argument("--out", help="write per-sample scores CSV here")
    _add_common(s)
    s.set_defaults(func=_cmd_evaluate)

    s = subs.add_parser("cov-clique", help="HC clique test on a sample matrix")
    s.add_argument("--input", required=True)
    s.add_argument("--mode", choices=["pairwise", "rowmax"], default="pairwise")
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--side", choices=["two", "upper"], default="two")
    s.add_argument("--no-center", action="store_true", help="skip column mean-centering")
    _add_common(s)
    s.set_defaults(func=_cmd_cov_clique)

    s = subs.add_parser("cov-eigen", help="eigenvalue HC test against a simulated null profile")
    s.add_argument("--input", required=True)
    s.add_argument("--null-reps", type=int, required=True)
    s.add_argument("--profile-cache",
                   help="profile cache file, JSON lines (default: $HICRIT_CACHE/cache.jsonl)")
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--trace", help="write per-rank component CSV here")
    _add_common(s, seed=True, threads=True)
    s.set_defaults(func=_cmd_cov_eigen)

    s = subs.add_parser("pairs", help="rank-corner HC test for correlated pairs")
    s.add_argument("--input", help="CSV with two numeric columns x, y")
    s.add_argument("--simulate", action="store_true")
    s.add_argument("--n", type=int)
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--tau", type=float, default=0.0)
    s.add_argument("--rho", type=float, default=0.0)
    s.add_argument("--reps", type=int, default=100)
    s.add_argument("--alpha0", type=float, default=0.5)
    s.add_argument("--seed", type=int, help="RNG seed (required with --simulate)")
    s.add_argument("--trace", help="write per-k component trace CSV here")
    s.add_argument("--out", help="write per-rep score CSV here (simulate mode)")
    _add_common(s)
    s.set_defaults(func=_cmd_pairs)

    s = subs.add_parser("phase", help="emit phase-diagram boundary tables")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--grid", type=int, required=True)
    s.add_argument("--r", type=float, help="evaluate the qideal columns at this r")
    s.add_argument("--out", help="write the table CSV here (default: stdout)")
    _add_common(s)
    s.set_defaults(func=_cmd_phase)

    return parser


def _usage_problems(args):
    """Option combinations argparse cannot check: (violated, message) pairs."""
    yield args.precision < 0, "--precision must be >= 0"
    yield getattr(args, "threads", 1) < 1, "--threads must be >= 1"
    if args.subcommand == "pairs":
        yield not (args.simulate or args.input), "needs --input or --simulate"
        yield args.simulate and args.seed is None, "--simulate requires --seed"
        yield args.simulate and args.n is None, "--simulate requires --n"
    if args.subcommand == "detect-sim":
        yield (None in (args.epsilon, args.tau) and None in (args.vartheta, args.r),
               "needs --epsilon with --tau, or --vartheta with --r")


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        for violated, message in _usage_problems(args):
            if violated:
                args.usage_error(message)
        started = time.monotonic()
        _manifest(args, started, args.func(args, _Fmt(args.precision)))
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return int(exc.code or 0)
    except (HicritError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CACHE_MISS if isinstance(exc, CacheMissError) else EXIT_VALIDATION
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
