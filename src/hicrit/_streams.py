"""Seeded Monte Carlo stream runner behind every simulation in the package.

Replicates are partitioned into fixed-size blocks, each owning an independent
counter-based RNG stream: block k draws from Philox stream
``base.stream_id + k``. Inside a stream, replicates are drawn in batches that
cap the elements materialized at once. The layout depends only on the
replicate count, the block size and the row size, never on the worker count,
so results are bit-identical no matter how many worker processes are used.
The blocks of every job of one experiment (``run_all``) share one process
pool, so independent streams, such as a null and an alternative sample, run
side by side even when each fits in a single block; an experiment too small to
repay the pool's start-up runs in this process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .numerics import RngSeed

# Cap on replicates x row_elems per batch inside one stream (100 MB of float64).
# A mixture batch holds its b*k exponentials (k <= row_elems) and one row tile.
_BATCH_ELEMS = 12_500_000

# Below this much work (replicates x row_elems over all jobs) run_all stays in
# this process. A two-worker pool takes 12-16 ms to start on a 2-core host;
# 1M elements is 20-25 ms of sampling, so the pool pays only above it.
_POOL_MIN_ELEMS = 1_000_000


def _run_stream(kernel, params, reps: int, row_elems: int, seed: RngSeed) -> np.ndarray:
    rng = seed.generator()
    batch = max(1, _BATCH_ELEMS // row_elems)
    return np.concatenate([kernel(params, min(batch, reps - done), rng)
                           for done in range(0, reps, batch)])


def run_all(jobs, n_jobs: int) -> list:
    """Concatenated results of each job, in job order.

    A job is ``(kernel, params, total, block, row_elems, base)``:
    ``kernel(params, b, rng)`` returns the results of b replicates drawn from
    ``rng`` (one row each) and must be a picklable top-level function;
    ``row_elems`` is the number of elements one replicate materializes. The
    blocks of all jobs go to one process pool, in job order, only when
    n_jobs > 1, there is more than one block and the jobs hold at least
    _POOL_MIN_ELEMS elements in all; list the costliest job first.
    """
    blocks = [[(kernel, params, min(block, total - start), row_elems,
                base.stream(base.stream_id + k))
               for k, start in enumerate(range(0, total, block))]
              for kernel, params, total, block, row_elems, base in jobs]
    tasks = [task for job in blocks for task in job]
    work = sum(total * row_elems for _, _, total, _, row_elems, _ in jobs)
    if n_jobs > 1 and len(tasks) > 1 and work >= _POOL_MIN_ELEMS:
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            parts = iter(list(pool.map(_run_stream, *zip(*tasks), chunksize=1)))
    else:
        parts = (_run_stream(*task) for task in tasks)
    return [np.concatenate([next(parts) for _ in job]) for job in blocks]


def run(kernel, params, total: int, block: int, row_elems: int, base: RngSeed,
        n_jobs: int) -> np.ndarray:
    """Results of one job of ``run_all``: ``total`` replicates of ``kernel``."""
    return run_all([(kernel, params, total, block, row_elems, base)], n_jobs)[0]
