"""Seeded inputs, request plans and output checks for the four workloads.

Every input is generated from the workload seed; hicrit sees only the
generated files and CLI arguments. A workload runs in passes: each pass is
the same fixed request mix (pass k differs from pass k+1 only in the seeds
it hands to the CLI), so passes are comparable and a run measures whole
passes. Checks run after the timed phase and mark each failed request.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import special

NPROC = os.cpu_count() or 1


@dataclass
class Request:
    argv: list
    kind: str
    replicates: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    request: Request
    code: object  # exit code, or None when dispatch raised
    seconds: float
    stdout: str
    stderr: str
    problem: str = ""


def fields(stdout: str) -> dict:
    """key=value pairs of the last summary line (the manifest line excluded)."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("manifest=") or "=" not in line:
            continue
        return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
    return {}


def _rel_close(got: float, want: float, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _write_lines(path, values):
    with open(path, "w") as fh:
        fh.write("\n".join(map(repr, values)) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(",".join(map(repr, row)) for row in rows) + "\n")


def _labeled(rng, n, p, signal, shift):
    """Balanced +-1 labels; the first ``signal`` features shift by +-shift/2."""
    labels = np.repeat([1, -1], [n - n // 2, n // 2])
    rng.shuffle(labels)
    data = rng.standard_normal((n, p))
    data[:, :signal] += 0.5 * shift * labels[:, None]
    return labels, data


def _write_labeled(path, labels, data):
    header = ["label"] + [f"f{j + 1}" for j in range(data.shape[1])]
    rows = [[int(lab)] + row for lab, row in zip(labels, data.tolist())]
    _write_csv(path, header, rows)


class Workload:
    """One request mix. Subclasses fill in inputs, plans and checks."""

    name = ""
    in_process = True
    probe_layer = None  # layer whose parallel efficiency probe() measures

    def __init__(self, seed: int, work: str, smoke: bool):
        self.seed = seed
        self.work = work
        self.smoke = smoke

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def pass_dir(self, k: int, tag: str = "") -> str:
        d = self.path(f"pass{tag}-{k}")
        os.makedirs(d, exist_ok=True)
        return d

    def cli_seed(self, k: int, j: int = 0) -> str:
        return str(self.seed * 1000 + 10 * k + j)

    def generate(self) -> None:
        """Write this workload's input files under ``work``."""

    def prepare_checks(self) -> None:
        """Compute reference answers (outside every timed region)."""

    def warmup(self) -> Request:
        raise NotImplementedError

    def plan(self, k: int, tag: str) -> list:
        """Requests of pass k. ``tag`` is "" for an ordinary run; in a traced
        run it names the untraced ("-u") or traced ("-t") copy of the pass,
        which runs on one worker and keeps its own caches."""
        raise NotImplementedError

    def check(self, results: list) -> None:
        """Set ``problem`` on each result of one pass whose output is wrong."""

    def probe(self):
        """(one-worker request, nproc-worker request) for parallel efficiency."""
        raise NotImplementedError

    def check_probe(self, results):
        """Check both probe results; the worker count must not change them."""
        raise NotImplementedError

    def digest(self, results: list) -> str:
        """Digest of the outputs of one pass (manifest lines and the run's
        own file paths excluded)."""
        h = hashlib.sha256()
        for r in results:
            kept = {k: v for k, v in fields(r.stdout).items() if not v.startswith(self.work)}
            h.update(json.dumps(sorted(kept.items())).encode())
        return h.hexdigest()


def _require(result: Result, cond: bool, why: str) -> bool:
    if not cond and not result.problem:
        result.problem = why
    return cond


def _ok_exit(result: Result) -> bool:
    return _require(result, result.code == 0,
                    f"exit code {result.code}: {result.stderr.strip()[-200:]}")


# ---------------------------------------------------------------------------

class NullCalibration(Workload):
    """calibrate misses (pool, cache write) each followed by cache hits."""

    name = "null-calibration"
    probe_layer = "calibrate"
    HITS = 3
    # (N, alpha, replicates); the replicate counts fill whole 512-rep streams.
    CONFIGS = [(10_000, 0.05, 10_240), (100_000, 0.05, 1_024)]
    SMOKE_CONFIGS = [(2_000, 0.05, 1_024), (5_000, 0.05, 512)]
    # HC+ (1 - alpha) null quantiles for 1e3 <= N <= 1e5 lie well inside this
    # band (Table 1: 3.17 at N = 1e3; 3.2-3.35 by simulation up to 1e5).
    BAND = {0.05: (2.9, 3.7)}

    def configs(self):
        return self.SMOKE_CONFIGS if self.smoke else self.CONFIGS

    def _argv(self, n, alpha, reps, seed, cache, threads):
        return ["calibrate", "--n", str(n), "--alpha", repr(alpha), "--reps", str(reps),
                "--seed", seed, "--cache", cache, "--threads", str(threads),
                "--precision", "17"]

    def generate(self):
        # Every set-up starts cold: its warm-up simulates and writes a cache.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path("warm.csv"))

    def warmup(self):
        return Request(self._argv(1_000, 0.05, 512, self.cli_seed(0), self.path("warm.csv"), 1),
                       "warmup", 512)

    def plan(self, k, tag):
        cache = os.path.join(self.pass_dir(k, tag), "critical_values.csv")
        threads = 1 if tag else NPROC
        out = []
        for j, (n, alpha, reps) in enumerate(self.configs()):
            argv = self._argv(n, alpha, reps, self.cli_seed(k, j), cache, threads)
            out.append(Request(argv, "miss", reps, {"alpha": alpha, "reps": reps}))
            out.extend(Request(argv, "hit", 0, {"alpha": alpha, "reps": reps})
                       for _ in range(self.HITS))
        return out

    def check(self, results):
        miss = None
        for r in results:
            if not _ok_exit(r):
                continue
            f = fields(r.stdout)
            try:
                crit = float(f["critical"])
            except (KeyError, ValueError):
                _require(r, False, "no critical value in the output")
                continue
            want_source = "simulated" if r.request.kind == "miss" else "cache"
            _require(r, f.get("source") == want_source, f"source {f.get('source')!r}")
            _require(r, f.get("replicates") == str(r.request.expect["reps"]), "replicate count")
            lo, hi = self.BAND[r.request.expect["alpha"]]
            _require(r, lo <= crit <= hi, f"critical {crit} outside [{lo}, {hi}]")
            if r.request.kind == "miss":
                miss = f.get("critical")
            else:
                _require(r, f.get("critical") == miss,
                         f"cache hit {f.get('critical')} != simulated {miss}")

    def probe(self):
        n, alpha, reps = self.configs()[0]
        d = self.pass_dir(0, "-probe")
        return tuple(Request(self._argv(n, alpha, reps, self.cli_seed(0),
                                        os.path.join(d, f"cv{w}.csv"), w),
                             "miss", reps, {"alpha": alpha, "reps": reps})
                     for w in (1, NPROC))

    def check_probe(self, results):
        self.check([results[0]])
        _require(results[1], fields(results[1].stdout).get("critical")
                 == fields(results[0].stdout).get("critical"),
                 "critical value depends on the worker count")
        self.check([results[1]])


# ---------------------------------------------------------------------------

def detection_boundary(v: float) -> float:
    """rho*(vartheta), written out here so the check does not use hicrit.phase."""
    return v - 0.5 if v <= 0.75 else (1.0 - math.sqrt(1.0 - v)) ** 2


class SparseDetection(Workload):
    """detect-sim with --critical at points on both sides of the boundary."""

    name = "sparse-detection"
    N, REPS, SMOKE_REPS = 100_000, 200, 20
    # Simulated HC+ (1 - 0.05) null quantile at N = 1e5 (4096 replicates).
    CRITICAL = 3.29
    ALPHA = 0.05
    # Same offsets from rho* as acceptance criterion 07.
    ABOVE = [(0.55, detection_boundary(0.55) + 0.25), (0.65, detection_boundary(0.65) + 0.25)]
    BELOW = [(0.80, detection_boundary(0.80) - 0.25), (0.90, detection_boundary(0.90) - 0.25)]

    def _argv(self, v, r, seed, tag):
        reps = self.SMOKE_REPS if self.smoke else self.REPS
        argv = ["detect-sim", "--n", str(self.N), "--vartheta", repr(v), "--r", repr(r),
                "--reps", str(reps), "--alpha", repr(self.ALPHA),
                "--critical", repr(self.CRITICAL), "--seed", seed, "--precision", "17"]
        return argv + (["--threads", "1"] if tag else [])

    def warmup(self):
        argv = ["detect-sim", "--n", "2000", "--vartheta", "0.6", "--r", "0.5", "--reps", "20",
                "--critical", "3.1", "--seed", self.cli_seed(0)]
        return Request(argv, "warmup", 40)

    def plan(self, k, tag):
        reps = self.SMOKE_REPS if self.smoke else self.REPS
        side = k % 2
        return [Request(self._argv(*self.ABOVE[side], self.cli_seed(k, 0), tag), "above",
                        2 * reps, {"reps": reps}),
                Request(self._argv(*self.BELOW[side], self.cli_seed(k, 1), tag), "below",
                        2 * reps, {"reps": reps})]

    def check(self, results):
        for r in results:
            if not _ok_exit(r):
                continue
            f = fields(r.stdout)
            try:
                power, size, crit = float(f["power"]), float(f["size"]), float(f["critical"])
            except (KeyError, ValueError):
                _require(r, False, "no power/size/critical in the output")
                continue
            reps = r.request.expect["reps"]
            _require(r, crit == self.CRITICAL, f"critical {crit} was not the one passed")
            _require(r, f.get("reps") == str(reps), "replicate count")
            # Size of a level-alpha test from `reps` null draws: within four
            # binomial standard errors of alpha.
            se = math.sqrt(self.ALPHA * (1.0 - self.ALPHA) / reps)
            _require(r, abs(size - self.ALPHA) <= 4.0 * se, f"size {size} far from alpha")
            if r.request.kind == "above":
                _require(r, power >= 0.9, f"power {power} < 0.9 above the boundary")
            else:
                _require(r, power <= 0.15 + 4.0 * se, f"power {power} too high below the boundary")


# ---------------------------------------------------------------------------

def clique_reference(X: np.ndarray, alpha0: float = 0.5) -> float:
    """Pairwise clique HC score by an independent route (corrcoef + stdtr)."""
    n, p = X.shape
    r = np.corrcoef(X, rowvar=False)[np.triu_indices(p, k=1)]
    r = np.clip(r, -1.0 + 1e-15, 1.0 - 1e-15)
    t = math.sqrt(n - 1.0) * r / np.sqrt(1.0 - r * r)
    upper = special.stdtr(n - 1, -t)
    pv = np.sort(np.clip(2.0 * np.minimum(upper, 1.0 - upper), 1e-300, 1.0))
    big_n = pv.size
    i = np.arange(1, big_n + 1)
    comp = math.sqrt(big_n) * (i / big_n - pv) / np.sqrt(pv * (1.0 - pv))
    band = (pv >= 1.0 / big_n) & (pv <= alpha0)
    return float(comp[band].max())


class Covariance(Workload):
    """cov-clique (correlations, betainc, 1-D HC) mixed with cov-eigen."""

    name = "covariance"
    probe_layer = "covtest"
    CLIQUE = (150, 600, 30, 0.35)  # n, p, clique size, within-clique correlation
    SMOKE_CLIQUE = (60, 120, 12, 0.5)
    EIGEN = [(120, 120), (112, 128), (128, 112)]
    SMOKE_EIGEN = [(40, 40), (36, 44), (44, 36)]
    SPIKE = 4.0  # covariance I + SPIKE * u u' for the eigen inputs
    NULL_REPS = 500

    def generate(self):
        n, p, k, a = self.SMOKE_CLIQUE if self.smoke else self.CLIQUE
        rng = self.rng(1)
        x = rng.standard_normal((n, p))
        x[:, :k] = math.sqrt(a) * rng.standard_normal((n, 1)) + math.sqrt(1.0 - a) * x[:, :k]
        x = x[:, rng.permutation(p)]
        self.clique = x
        _write_csv(self.path("clique.csv"), [f"c{j + 1}" for j in range(p)], x.tolist())
        for idx, (n, p) in enumerate(self.SMOKE_EIGEN if self.smoke else self.EIGEN):
            rng = self.rng(2 + idx)
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            noise = rng.standard_normal((n, p))
            x = noise + math.sqrt(self.SPIKE) * rng.standard_normal((n, 1)) * u
            _write_csv(self.path(f"eigen{idx}.csv"), [f"c{j + 1}" for j in range(p)], x.tolist())

    def prepare_checks(self):
        self.clique_score = clique_reference(self.clique)

    def _eigen(self, idx, cache, seed, threads, kind):
        argv = ["cov-eigen", "--input", self.path(f"eigen{idx}.csv"),
                "--null-reps", str(self.NULL_REPS), "--profile-cache", cache,
                "--seed", seed, "--precision", "17"]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return Request(argv, kind, self.NULL_REPS if kind != "hit" else 0, {"shape": idx})

    def warmup(self):
        return Request(["cov-clique", "--input", self.path("clique.csv"), "--precision", "17"],
                       "warmup")

    def plan(self, k, tag):
        # A fresh profile cache per pass: every shape simulates once and one
        # of them (in turn) is read back. Profile misses are 3 of the 5
        # requests, so the median and the tail both land on them: a clique
        # request's latency, mostly Python CSV parsing beside spinning BLAS
        # threads, moved 30% between runs on a shared 2-core host. One
        # worker: see KNOWN_FINDINGS in run.py for why not the default.
        cache = os.path.join(self.pass_dir(k, tag), "eigen_profiles.csv")
        clique = Request(["cov-clique", "--input", self.path("clique.csv"), "--precision", "17"],
                         "clique")
        misses = [self._eigen(idx, cache, self.cli_seed(k, idx), 1, "miss")
                  for idx in range(len(self.EIGEN))]
        back = k % len(self.EIGEN)
        hit = self._eigen(back, cache, self.cli_seed(k, back), 1, "hit")
        return [clique] + misses + [hit]

    def check(self, results):
        miss = {}
        for r in results:
            if not _ok_exit(r):
                continue
            f = fields(r.stdout)
            try:
                score = float(f["score"])
            except (KeyError, ValueError):
                _require(r, False, "no score in the output")
                continue
            if r.request.kind == "clique":
                _require(r, _rel_close(score, self.clique_score),
                         f"clique score {score} != reference {self.clique_score}")
                continue
            _require(r, f.get("profile_replicates") == str(self.NULL_REPS), "profile replicates")
            # A rank-one spike of 4 against a null bulk: the top eigenvalue
            # stands many null SDs above its null mean for any RNG.
            _require(r, score > 4.0, f"eigen score {score} misses a strong spike")
            idx = r.request.expect["shape"]
            if r.request.kind == "hit":
                _require(r, f.get("score") == miss.get(idx),
                         f"profile-cache hit {f.get('score')} != simulated {miss.get(idx)}")
            else:
                miss[idx] = f.get("score")

    def probe(self):
        d = self.pass_dir(0, "-probe")
        # None leaves --threads at its default (nproc pool workers).
        return tuple(self._eigen(0, os.path.join(d, f"ep{w}.csv"), self.cli_seed(0), w, "miss")
                     for w in (1, None))

    def check_probe(self, results):
        self.check(list(results))
        _require(results[1], fields(results[1].stdout).get("score")
                 == fields(results[0].stdout).get("score"),
                 "eigen score depends on the worker count")


# ---------------------------------------------------------------------------

class CliRequests(Workload):
    """Fresh `python -m hicrit.cli` processes over the small-request mix."""

    name = "cli-requests"
    in_process = False
    SIZES = {"pvalues": 100_000, "train": (80, 2_000, 60, 1.2), "perm": (60, 500, 10, 2.0),
             "pairs": 20_000, "shuffles": 200, "grid": 400}
    SMOKE_SIZES = {"pvalues": 2_000, "train": (40, 200, 20, 1.5), "perm": (30, 200, 6, 2.5),
                   "pairs": 1_000, "shuffles": 20, "grid": 20}
    THETA, PHASE_R = 0.2, 0.45

    def sizes(self):
        return self.SMOKE_SIZES if self.smoke else self.SIZES

    def generate(self):
        s = self.sizes()
        rng = self.rng(1)
        z = rng.standard_normal(s["pvalues"])
        z[: s["pvalues"] // 200] += 3.0
        self.pvalues = np.clip(special.ndtr(-rng.permutation(z)), 1e-300, 1.0)
        _write_lines(self.path("pvalues.txt"), self.pvalues.tolist())
        rng = self.rng(2)
        n, p, signal, shift = s["train"]
        for name in ("train", "test"):
            labels, data = _labeled(rng, n, p, signal, shift)
            _write_labeled(self.path(f"{name}.csv"), labels, data)
            if name == "test":
                self.test_labels = labels
        n, p, signal, shift = s["perm"]
        _write_labeled(self.path("perm.csv"), *_labeled(self.rng(3), n, p, signal, shift))
        rng = self.rng(4)
        m = s["pairs"]
        x, y = rng.standard_normal(m), rng.standard_normal(m)
        hot = rng.random(m) < 0.02
        y[hot] = 0.9 * x[hot] + math.sqrt(1 - 0.81) * y[hot]
        x[hot] += 2.0
        y[hot] += 2.0
        self.pairs = (x, y)
        _write_csv(self.path("pairs.csv"), ["x", "y"], np.column_stack([x, y]).tolist())

    def prepare_checks(self):
        import oracles

        pv = np.sort(self.pvalues).tolist()
        self.ref = {
            "plus": oracles.hc_plus_brute(pv, 0.5),
            "bj": oracles.berk_jones_brute(pv),
            "alr": oracles.log_alr_brute(pv, 0.5),
            "pairs": self._pairs_reference(oracles),
            "phase": self._phase_reference(oracles),
        }

    def _pairs_reference(self, oracles, alpha0=0.5):
        x, y = self.pairs
        n = x.size
        mins = np.sort(np.minimum(np.argsort(np.argsort(x)), np.argsort(np.argsort(y))) + 1)
        k_lo = max(2, math.ceil((1.0 - alpha0) * n - 1e-9))
        k_hi = min(n - 1, math.floor(n - math.sqrt(n) + 1e-9))
        best = None
        for k in range(k_lo, k_hi + 1):
            s_k = n - int(np.searchsorted(mins, k, side="left"))
            value = oracles.pair_component_brute(n, k, s_k)
            if best is None or value > best[0]:
                best = (value, k)
        return best

    def _phase_reference(self, oracles):
        grid = self.sizes()["grid"]
        rows = []
        for i in range(1, grid + 1):
            v = (1.0 - self.THETA) * i / (grid + 1)
            rho_t = float(oracles.phase_rho_theta_oracle(v, self.THETA))
            if self.PHASE_R <= rho_t + 1e-12:
                phase, value = "failure", None
            else:
                value, phase = oracles.phase_qideal_oracle(v, self.PHASE_R, self.THETA)
            rows.append((v, float(oracles.phase_rho_oracle(v)), rho_t, phase, value))
        return rows

    def warmup(self):
        return Request(["phase", "--theta", "0.2", "--grid", "5"], "warmup")

    def plan(self, k, tag):
        s = self.sizes()
        model = os.path.join(self.pass_dir(k, tag), "model.json")
        prec = ["--precision", "17"]
        pv = self.path("pvalues.txt")
        return [
            Request(["score", "--input", pv, "--variant", "plus"] + prec, "score-plus"),
            Request(["score", "--input", pv, "--variant", "bj"] + prec, "score-bj"),
            Request(["score", "--input", pv, "--variant", "alr"] + prec, "score-alr"),
            Request(["select", "--train", self.path("train.csv"), "--out", model] + prec,
                    "select"),
            Request(["evaluate", "--model", model, "--test", self.path("test.csv")] + prec,
                    "evaluate"),
            Request(["classify", "--model", model, "--test", self.path("test.csv")] + prec,
                    "classify"),
        ] + [
            # Two shuffle runs per pass, so replicates_per_s rests on more
            # than a handful of requests per run.
            Request(["permtest", "--input", self.path("perm.csv"), "--shuffles",
                     str(s["shuffles"]), "--variant", "star",
                     "--seed", self.cli_seed(k, j)] + prec, "permtest", s["shuffles"])
            for j in range(2)
        ] + [
            Request(["pairs", "--input", self.path("pairs.csv")] + prec, "pairs"),
            Request(["phase", "--theta", repr(self.THETA), "--grid", str(s["grid"]),
                     "--r", repr(self.PHASE_R)] + prec, "phase"),
        ]

    def check(self, results):
        error_rate = None
        for r in results:
            if not _ok_exit(r):
                continue
            f = fields(r.stdout)
            kind = r.request.kind
            try:
                getattr(self, "_check_" + kind.split("-")[0])(r, f)
            except (KeyError, ValueError, IndexError) as exc:
                _require(r, False, f"unparsable output ({exc!r})")
            if kind == "evaluate" and "error_rate" in f:
                error_rate = float(f["error_rate"])
            if kind == "classify" and not r.problem:
                _require(r, error_rate is not None and
                         abs(self._classify_error(r) - error_rate) < 1e-12,
                         "classify disagrees with evaluate")

    def _check_score(self, r, f):
        variant = r.request.kind[len("score-"):]
        ref = self.ref[variant]
        _require(r, int(f["n"]) == self.sizes()["pvalues"], "series length")
        if variant == "alr":
            _require(r, _rel_close(float(f["log_score"]), ref),
                     f"log_score {f['log_score']} != oracle {ref}")
            return
        _require(r, _rel_close(float(f["score"]), ref[0]), f"score {f['score']} != oracle {ref[0]}")
        _require(r, int(f["argmax_index"]) == ref[1],
                 f"argmax {f['argmax_index']} != oracle {ref[1]}")

    def _check_select(self, r, f):
        p = self.sizes()["train"][1]
        _require(r, int(f["p"]) == p and int(f["selected"]) >= 1, "no features selected")

    def _check_evaluate(self, r, f):
        _require(r, int(f["n_test"]) == len(self.test_labels), "test size")
        _require(r, float(f["error_rate"]) <= 0.2, f"error rate {f['error_rate']} > 0.2")

    def _classify_error(self, r):
        lines = [ln for ln in r.stdout.splitlines()[1:] if ln and "=" not in ln]
        preds = np.array([int(ln.split(",")[1]) for ln in lines])
        if preds.size != len(self.test_labels):
            return math.inf
        return float(np.mean(preds != self.test_labels))

    def _check_classify(self, r, f):
        _require(r, int(f["n"]) == len(self.test_labels), "prediction count")

    def _check_permtest(self, r, f):
        shuffles = self.sizes()["shuffles"]
        pvalue = float(f["pvalue"])
        # A few strong planted features give HC* in the hundreds; a shuffle
        # would need a P-value near 1e-8 to reach it, whatever the RNG.
        _require(r, 1.0 / (shuffles + 1) - 1e-15 <= pvalue <= 0.05, f"permtest pvalue {pvalue}")

    def _check_pairs(self, r, f):
        value, k = self.ref["pairs"]
        _require(r, _rel_close(float(f["score"]), value), f"pairs score {f['score']} != {value}")
        _require(r, int(f["argmax_k"]) == k, f"pairs argmax {f['argmax_k']} != {k}")

    def _check_phase(self, r, f):
        rows = [ln.split(",") for ln in r.stdout.splitlines()[1:] if ln and "=" not in ln]
        ref = self.ref["phase"]
        _require(r, int(f["rows"]) == len(ref) == len(rows), "phase row count")
        for got, (v, rho, rho_t, phase, value) in zip(rows, ref):
            ok = (abs(float(got[0]) - v) <= 1e-12 and abs(float(got[1]) - rho) <= 1e-12
                  and abs(float(got[2]) - rho_t) <= 1e-12 and got[3] == phase
                  and (got[4] == "" if value is None else abs(float(got[4]) - value) <= 1e-12))
            if not _require(r, ok, f"phase row {got} != oracle"):
                break


WORKLOADS = {w.name: w for w in (NullCalibration, SparseDetection, Covariance, CliRequests)}
