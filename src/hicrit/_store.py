"""Append-only JSON-lines store behind both Monte Carlo caches: one {kind, params,
replicates, seed, stream_id, rng_version, value} record per line. JSON writes
floats by ``repr``, so stored values round-trip bit-exactly."""

from __future__ import annotations

import fcntl
import json
import os
import re

from .errors import ValidationError
from .numerics import RNG_VERSION, RngSeed, as_seed

_TYPES = dict(kind=str, params=dict, replicates=int, seed=int, stream_id=int, rng_version=str)
# How ``append`` starts a line (sort_keys puts "kind" first); a kind name cut short
# does not match, so such a line is parsed and refused.
_KIND = re.compile(rb'\{"kind": "(\w+)", ')


def provenance(replicates: int, seed, rng_version: str = RNG_VERSION) -> dict:
    """Provenance keys of a simulated value, stored or not; ``seed`` goes through as_seed."""
    base = as_seed(seed)
    return {"replicates": int(replicates), "seed": int(base.seed),
            "stream_id": int(base.stream_id), "rng_version": rng_version}


def _parse(path, data: bytes, kind: str) -> list[tuple[int, dict]]:
    """(file line, record) per complete line, except lines written for another kind:
    those are skipped before ``json.loads`` and left to that kind's reader. Text
    after the last newline is an append in progress, or one cut short, and is
    skipped too."""
    out = []
    for line, text in enumerate(data.split(b"\n")[:-1], start=1):
        head = _KIND.match(text)
        if head and head[1] != kind.encode():
            continue
        try:
            rec = json.loads(text)
        except ValueError:
            rec = None
        if not (isinstance(rec, dict) and set(rec) == {*_TYPES, "value"}
                and all(type(rec[k]) is t for k, t in _TYPES.items())):
            raise ValidationError(f"{path}: not a cache record (caches are derived data: "
                                  f"delete the file to rebuild it)", row=line)
        out.append((line, rec))
    return out


def read(path, kind: str, make) -> list:
    """``make(params, value, replicates=, seed=, rng_version=)`` per record of ``kind``
    in file order, ``seed`` decoded as an RngSeed, read without a lock; a missing file
    in an existing directory is empty, a missing directory raises FileNotFoundError.
    A seed out of range, or ``make`` raising KeyError, TypeError or ValueError, marks
    a malformed record."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise
        return []
    out = []
    for line, rec in _parse(path, data, kind):
        try:
            if rec["kind"] == kind:
                out.append(make(rec["params"], rec["value"], replicates=rec["replicates"],
                                seed=RngSeed(rec["seed"], rec["stream_id"]),
                                rng_version=rec["rng_version"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed {kind} record: {exc}", row=line) from None
    return out


def append(path, kind: str, params: dict, stored, value) -> None:
    """Store one line unless a record of the same identity (all but ``value``) is
    stored. The exclusive flock makes check and write one step across processes;
    a fragment left by a writer that died mid-line is cut off first."""
    identity = {"kind": kind, "params": params,
                **provenance(stored.replicates, stored.seed, stored.rng_version)}
    line = (json.dumps({**identity, "value": value}, sort_keys=True) + "\n").encode()
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        data = fh.read()
        if all({k: v for k, v in old.items() if k != "value"} != identity
               for _, old in _parse(path, data, kind)):
            fh.truncate(data.rfind(b"\n") + 1)
            fh.write(line)


def best(items, replicates: int):
    """The hit rule: current RNG_VERSION and at least ``replicates``; the most
    replicates win, the latest on a tie. None if no item qualifies."""
    ok = [i for i in items if i.rng_version == RNG_VERSION and i.replicates >= replicates]
    return max(reversed(ok), key=lambda i: i.replicates, default=None)
