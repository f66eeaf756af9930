"""Start-up cost: scipy loads only when a request calls into it, and the CLI
parser is built once per process, on the first dispatch.

Each test runs in a fresh interpreter, since the test process itself has
imported scipy long before.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hicrit.cli import dispatch

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# Runs dispatch on its argv in a fresh process, with a pool class that counts
# the pools started, and reports on stderr's last line what it saw.
CHILD = """
import json, sys
from hicrit import _streams
from hicrit.cli import dispatch

pools = []


class CountingPool(_streams.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        super().__init__(*args, **kwargs)


_streams.ProcessPoolExecutor = CountingPool
code = dispatch(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
sys.stderr.write("\\n" + json.dumps({"code": code, "pools": pools, "scipy": scipy}))
"""


def fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh_dispatch(*argv):
    proc = fresh(CHILD, *argv)
    seen = json.loads(proc.stderr.splitlines()[-1])
    assert seen["code"] == 0, proc.stderr
    return proc.stdout, seen


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A P-value file, a labeled matrix with a model trained on it, and a pairs file."""
    tmp = tmp_path_factory.mktemp("startup")
    rng = np.random.default_rng(0)
    (tmp / "pvals.txt").write_text("".join(f"{p:.9g}\n" for p in rng.uniform(size=200)))
    data = rng.standard_normal((20, 6))
    data[:10, :2] += 6.0
    labels = [1] * 10 + [-1] * 10
    rows = [f"{labels[i]}," + ",".join(f"{v:.9g}" for v in data[i]) for i in range(20)]
    (tmp / "train.csv").write_text("label," + ",".join(f"g{j}" for j in range(6)) + "\n"
                                   + "\n".join(rows) + "\n")
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    (tmp / "pairs.csv").write_text(
        "x,y\n" + "\n".join(f"{a:.9g},{b:.9g}" for a, b in zip(x, y)) + "\n")
    assert dispatch(["select", "--train", str(tmp / "train.csv"), "--out",
                     str(tmp / "model.json")]) == 0
    return tmp


@pytest.mark.parametrize("module", ["hicrit", "hicrit.cli"])
def test_import_loads_no_scipy(module):
    proc = fresh(f"import sys, {module}\n"
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.stdout.strip() == "[]"


REQUESTS = {
    "score-plus": ["score", "--input", "{pvals}", "--variant", "plus"],
    "score-bj": ["score", "--input", "{pvals}", "--variant", "bj"],
    "phase": ["phase", "--theta", "0.2", "--grid", "5"],
    "pairs": ["pairs", "--input", "{pairs}"],
    "evaluate": ["evaluate", "--model", "{model}", "--test", "{train}"],
    "classify": ["classify", "--model", "{model}", "--test", "{train}"],
    "score-alr": ["score", "--input", "{pvals}", "--variant", "alr"],
}


@pytest.mark.parametrize("request_kind", REQUESTS)
def test_only_a_request_that_needs_a_tail_loads_scipy(request_kind, inputs):
    paths = {"pvals": inputs / "pvals.txt", "pairs": inputs / "pairs.csv",
             "model": inputs / "model.json", "train": inputs / "train.csv"}
    argv = [arg.format(**paths) for arg in REQUESTS[request_kind]]
    _, seen = fresh_dispatch(*argv)
    # ALR sums its terms through scipy.special.logsumexp.
    assert bool(seen["scipy"]) == (request_kind == "score-alr"), seen["scipy"]


def test_pooled_workers_of_a_fresh_process_match_one_process():
    # Two streams of 200 x 10,000 elements are above _streams._POOL_MIN_ELEMS, so
    # --threads 2 forks workers from a process that has not loaded scipy yet.
    argv = ["detect-sim", "--n", "10000", "--epsilon", "0.01", "--tau", "2.5", "--reps", "200",
            "--critical", "3.29", "--seed", "3"]
    alone, seen_alone = fresh_dispatch(*argv, "--threads", "1")
    pooled, seen_pooled = fresh_dispatch(*argv, "--threads", "2")
    assert seen_alone["pools"] == [] and seen_pooled["pools"] == [2]
    assert pooled.splitlines()[0] == alone.splitlines()[0]
    assert pooled.splitlines()[0].startswith("power=")


# Counts the ArgumentParser constructions (the top parser and each subparser)
# after import and after each dispatch of the argv lists in argv[1], and
# reports the counts and the exit codes on stderr's last line.
PARSER_COUNT = """
import argparse, json, sys

counts, codes = [0], []
construct = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    counts[-1] += 1
    construct(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
from hicrit.cli import dispatch

for argv in json.loads(sys.argv[1]):
    counts.append(counts[-1])
    codes.append(dispatch(argv))
sys.stderr.write("\\n" + json.dumps({"counts": counts, "codes": codes}))
"""


def parser_counts(*argvs):
    proc = fresh(PARSER_COUNT, json.dumps(argvs))
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_builds_no_parser():
    assert parser_counts()["counts"] == [0]


def test_dispatch_builds_the_parser_once():
    phase = ["phase", "--theta", "0.2", "--grid", "3"]
    argvs = [["calibrate", "--n", "100"], ["--help"], phase, ["--version"], ["phase", "--help"],
             ["pairs", "--simulate"], phase, ["calibrate", "--help"], phase]
    seen = parser_counts(*argvs)
    assert seen["codes"] == [2, 0, 0, 0, 0, 2, 0, 0, 0]
    # The first dispatch (a usage error) builds the whole tree; no later one builds any.
    counts = seen["counts"]
    assert counts[0] == 0 and counts[1] > 1
    assert counts[1:] == [counts[1]] * len(argvs), counts
