"""Process-parallel execution: one pool runner for sweeps and shards.

``api.run_sweep`` grids are embarrassingly parallel — every job is an
independent :class:`~repro.spec.scenario.ScenarioSpec`, and PR 3 made
those specs plain serializable data. This module ships jobs to a
:class:`concurrent.futures.ProcessPoolExecutor` worker as spec JSON
text; the worker compiles and runs each one exactly like the serial path
(``repro.api.run``) and pickles the :class:`~repro.experiments.base.
ExperimentResult` back. Because the compiler is deterministic and every
worker executes the same NumPy arithmetic the serial loop would, a
parallel sweep is **byte-identical** to its serial twin — results are
re-ordered by job index before they are returned, so even the ``--out``
JSON matches byte for byte (test-enforced).

One runner, :func:`run_pool`, executes all of it: it maps a picklable
function over batches of items, one pool task per batch, and returns
the results flat and in order. Two thin callers shape the batches:

* :func:`run_jobs_parallel` — sweeps. Jobs ride in **chunks** (many jobs
  per batch) so a large grid pays one submit/result round-trip per chunk
  instead of per job, and each worker process keeps a one-slot
  :func:`assembly cache <_cached_assembly>`: consecutive jobs that share
  a fleet/grid/blackout fingerprint (the common sweep shape — vary
  scheduler or pricing knobs over one fleet) skip re-synthesising hub
  traces entirely.
* :func:`run_shards_parallel` — city-scale shards, one batch per shard.
  One scenario's hubs are partitioned by :func:`~repro.fleet.sharding.
  plan_shards`; each worker compiles and steps its shard
  (:func:`~repro.fleet.sharding.run_shard`) and the parent merges the
  books.

Guarantees:

* deterministic result ordering, whatever finishes first;
* a single batch (or a single worker) runs in-process — no pool, no
  pickling;
* ``jobs=0`` resolves to this process's CPU *affinity* set where the
  platform reports one (``os.sched_getaffinity``), falling back to
  ``os.cpu_count()`` — so container/cgroup-limited runs stop
  oversubscribing their quota;
* the first failure cancels the batches not yet started and raises
  :class:`~repro.errors.ParallelError` naming the job's overrides or the
  shard (so a 100-job grid tells you *which* point died), with the
  worker's original exception chained as ``__cause__`` and the worker's
  formatted traceback carried as ``.job_traceback`` (captured
  worker-side — the remote stack does not survive pickling otherwise);
* the pool never outlives the call (context-managed, failures included);
* with ``with_telemetry=True`` each worker runs its job under a
  job-local :class:`~repro.telemetry.session.Telemetry` session and
  ships the RunTelemetry record back on ``result.telemetry``, so the
  caller can aggregate per-worker phase timings and counters
  (:meth:`Telemetry.absorb`) exactly as the serial path does.

When to parallelize: each worker pays a process fork plus a result
pickle, so tiny grids (a handful of sub-second jobs) are usually faster
serial. The sweet spot is many jobs x non-trivial horizons — see the
``parallel-sweep`` benchmark for measured crossover numbers.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable

from .errors import ParallelError
from .experiments.base import ExperimentResult
from .fleet.sharding import ShardResult, ShardTask, run_shard
from .spec.scenario import ScenarioSpec, _check_int
from .spec.sweep import SweepJob
from .telemetry import Telemetry, log


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity(0)`` honours taskset/cgroup cpusets (Linux);
    platforms without it fall back to the raw core count.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: ``None``→1 (serial), ``0``→all cores.

    "All cores" means the affinity set (:func:`_available_cpus`), not the
    machine's nominal core count.
    """
    if jobs is None:
        return 1
    _check_int("jobs", jobs, minimum=0)
    if jobs == 0:
        return _available_cpus()
    return jobs


def resolve_chunk_size(
    chunk_size: int | None, n_jobs: int, workers: int
) -> int:
    """Jobs per worker task: explicit, or ~4 chunks per worker.

    The auto split keeps the pool load-balanced (stragglers only delay
    one small chunk) while amortising submit/result overhead and giving
    the per-worker assembly cache consecutive same-fleet jobs to hit on.
    """
    if chunk_size is not None:
        _check_int("chunk_size", chunk_size, minimum=1)
        return chunk_size
    return max(1, math.ceil(n_jobs / (workers * 4)))


#: One-slot per-process assembly cache: (fingerprint, FleetAssembly).
#: Lives at module scope so it survives across tasks on one pool worker.
_WORKER_ASSEMBLY: tuple[str, object] | None = None


def _cached_assembly(spec):
    """This worker's :class:`FleetAssembly` for ``spec``, reusing the last
    one when the spec's fleet/grid/blackout fingerprint matches.

    A hit skips trace synthesis *and* keeps the realized-strata cache
    warm (``build`` rebinds the assembly to the new spec), which is what
    makes scheduler/pricing sweeps over one fleet cheap per extra job.
    """
    global _WORKER_ASSEMBLY
    from .spec.compiler import _assemble_fleet, assembly_fingerprint

    fingerprint = assembly_fingerprint(spec)
    if _WORKER_ASSEMBLY is None or _WORKER_ASSEMBLY[0] != fingerprint:
        _WORKER_ASSEMBLY = (fingerprint, _assemble_fleet(spec))
    return _WORKER_ASSEMBLY[1]


def _run_payload(payload: str, with_telemetry: bool = False) -> ExperimentResult:
    """Worker entry point: spec JSON in, completed result out.

    ``with_telemetry`` runs the job under a worker-local telemetry
    session; the record rides back on ``result.telemetry`` (metadata is
    skipped — the parent stamps one fingerprint for the whole sweep).

    Because the job is rebuilt from the spec JSON, the worker's engine
    re-resolves ``run.backend`` in its own process — sweep children
    inherit the parent's array backend (and fall back identically where
    the optional numba package is missing).
    """
    # Local import: ``repro.api`` imports this module.
    from . import api

    spec = ScenarioSpec.from_json(payload)
    telemetry = Telemetry(include_meta=False) if with_telemetry else None
    return api.run(spec, telemetry=telemetry, assembly=_cached_assembly(spec))


def _format_traceback(error: BaseException) -> str:
    return "".join(traceback.format_exception(error)).strip()


def _run_batch(fn: Callable, items: list) -> tuple[list, tuple | None]:
    """One pool task: ``fn`` over ``items`` in order, failures as values.

    Returns ``(results, failure)`` where ``failure`` is ``None`` or
    ``(offset, original_error, formatted_traceback)`` for the first item
    that raised — items after it are not run. The error rides back as a
    *value* (not a raise) so the parent can chain the genuine exception
    instance as ``ParallelError.__cause__``; errors that don't survive
    pickling are replaced by a ``RuntimeError`` carrying their repr.
    """
    results = []
    for offset, item in enumerate(items):
        try:
            results.append(fn(item))
        except Exception as error:
            trace = _format_traceback(error)
            try:
                pickle.dumps(error)
            except Exception:
                error = RuntimeError(repr(error))
            return results, (offset, error, trace)
    return results, None


def run_pool(
    fn: Callable,
    batches: list[list],
    n_workers: int,
    *,
    describe: Callable[[int], str],
) -> list:
    """Map ``fn`` over every item of ``batches``; results come back in order.

    Each batch is one task on a pool of at most ``n_workers`` processes,
    so ``fn`` and the items must pickle. One batch or one worker runs
    in-process instead. The first failing item cancels the batches not
    yet started and raises :class:`ParallelError`, labelled by
    ``describe(i)`` for the failing item's position ``i`` in the
    flattened batch list.
    """
    starts = list(itertools.accumulate(map(len, batches), initial=0))
    done: list[list] = [[] for _ in batches]

    def collect(index: int, outcome: tuple[list, tuple | None]) -> None:
        done[index], failure = outcome
        if failure is not None:
            offset, error, trace = failure
            raise ParallelError(
                f"{describe(starts[index] + offset)} failed in a worker: {error}",
                job_traceback=trace,
            ) from error

    workers = min(n_workers, len(batches))
    if workers <= 1:
        for index, batch in enumerate(batches):
            collect(index, _run_batch(fn, batch))
    else:
        log.debug("starting worker pool", workers=workers, batches=len(batches))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_batch, fn, batch): index
                for index, batch in enumerate(batches)
            }
            # Collect in completion order so the *first* failure is
            # observed as soon as it happens; indices restore the order.
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except Exception as error:
                    # The pool itself broke (e.g. a worker was killed):
                    # blame the batch's first item.
                    outcome = [], (0, error, _format_traceback(error))
                if outcome[1] is not None:
                    # Fail fast: drop the not-yet-started batches instead
                    # of burning CPU after the outcome is known.
                    pool.shutdown(wait=False, cancel_futures=True)
                collect(futures[future], outcome)
    return [result for results in done for result in results]


def run_jobs_parallel(
    expanded: list[SweepJob],
    n_workers: int,
    *,
    with_telemetry: bool = False,
    chunk_size: int | None = None,
) -> list[ExperimentResult]:
    """Run pre-expanded sweep jobs over a worker pool, ordered by index.

    The caller (``api.run_sweep``) expands the grid once and tags the
    returned results, so serial and parallel sweeps share one code path
    for everything except the executor. Jobs are submitted as contiguous
    chunks (:func:`resolve_chunk_size`); within a chunk they run in grid
    order, which is also what lets the worker-side assembly cache hit.
    """
    if not expanded:
        return []
    size = resolve_chunk_size(
        chunk_size, len(expanded), min(n_workers, len(expanded))
    )
    payloads = [job.spec.to_json() for job in expanded]

    def describe(position: int) -> str:
        job = expanded[position]
        return f"sweep job {job.index} [{job.label() or '(base spec)'}]"

    return run_pool(
        functools.partial(_run_payload, with_telemetry=with_telemetry),
        [payloads[i : i + size] for i in range(0, len(payloads), size)],
        n_workers,
        describe=describe,
    )


def run_shards_parallel(tasks: list[ShardTask], n_workers: int) -> list[ShardResult]:
    """Run :class:`~repro.fleet.sharding.ShardTask`s, ordered by shard.

    One batch per shard; a single shard (or ``n_workers <= 1``) runs
    in-process, so one-shard plans cost nothing over the unsharded path.
    Failures raise :class:`ParallelError` naming the shard and its size,
    with the worker traceback on ``.job_traceback``.
    """

    def describe(position: int) -> str:
        task = tasks[position]
        return f"shard {task.shard_index} ({len(task.hub_indices)} hubs)"

    return run_pool(run_shard, [[task] for task in tasks], n_workers, describe=describe)
