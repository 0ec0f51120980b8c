#!/usr/bin/env python
"""Wall-clock smoke benchmark: SpMV kernel-seconds across all schemes.

Runs the instrumented SpMV sweep (every scheme, one matrix) and records the
wall-clock time each kernel took — plus the modelled instruction/DRAM
totals as a fingerprint — to a ``BENCH_*.json`` file, so the performance
trajectory of the instrumentation pipeline is tracked from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py            # default sweep
    PYTHONPATH=src python benchmarks/perf_smoke.py --dim 512  # quicker run

The default sweep (2048 x 2048, 1% density) is the acceptance workload of
the batched-trace refactor: the per-element seed implementation needed
~307 s for it; the batched engine runs it in a couple of seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.config import RuntimeConfig  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.api.specs import JobSpec, Workload  # noqa: E402
from repro.eval.runner import SweepRunner, kernel_job, suite_source  # noqa: E402
from repro.kernels.schemes import SCHEMES  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.trace import CHUNK_ENV_VAR  # noqa: E402
from repro.workloads.synthetic import uniform_random_matrix  # noqa: E402

#: Chunk budget (accesses) used for the chunked side of the RSS probe. Small
#: enough that the bounded path's trace footprint is negligible next to the
#: interpreter baseline, large enough to keep per-segment overhead low.
RSS_PROBE_CHUNK = 1 << 16


def run_sweep(dim: int, density: float, seed: int, cache_scale: int) -> dict:
    """Time one instrumented SpMV per scheme; return the results payload."""
    coo = uniform_random_matrix(dim, dim, density=density, seed=seed)
    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    session = Session(sim=sim)
    schemes = {}
    total = 0.0
    for scheme in SCHEMES:
        start = time.perf_counter()
        result = session.run_kernel("spmv", scheme, coo)
        elapsed = time.perf_counter() - start
        total += elapsed
        schemes[scheme] = {
            "kernel_seconds": round(elapsed, 4),
            "modelled_instructions": result.report.total_instructions,
            "modelled_dram_accesses": result.report.dram_accesses,
            "modelled_cycles": round(result.report.cycles, 1),
        }
        print(f"  {scheme:10s} {elapsed:8.3f}s", flush=True)
    return {
        "benchmark": "spmv_smoke",
        "matrix": {"rows": dim, "cols": dim, "density": density, "nnz": coo.nnz, "seed": seed},
        "cache_scale": cache_scale,
        "python": platform.python_version(),
        "schemes": schemes,
        "total_kernel_seconds": round(total, 4),
    }


def run_sweep_engine(processes: int, cache_scale: int, dim: int = 1024) -> dict:
    """Time one fig10-style job matrix serially and on a worker pool.

    Uses the sweep engine with the cache disabled so every pass executes
    every job. The batch is sized (six matrices x all schemes at dim 1024)
    so pool startup is amortized: the *cold* parallel timing includes
    worker-pool creation, the *warm* timing reuses the same pool for a
    second run — the difference is the startup cost the old single-timing
    record conflated with throughput. ``cpu_count`` is recorded because on
    a single-core host the parallel path cannot beat serial no matter the
    sizing — the record is a measurement, not an assertion.
    """
    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    keys = ("M2", "M5", "M8", "M11", "M13", "M15")
    jobs = [
        kernel_job("spmv", scheme, suite_source(key, dim), sim)
        for key in keys
        for scheme in SCHEMES
    ]
    timings = {}

    with SweepRunner(processes=1) as serial:
        start = time.perf_counter()
        serial.run(jobs)
        timings["serial_seconds"] = round(time.perf_counter() - start, 4)
    print(f"  sweep[serial:1p]        {timings['serial_seconds']:8.3f}s", flush=True)

    with SweepRunner(processes=processes) as pool:
        start = time.perf_counter()
        pool.run(jobs)
        timings["parallel_cold_seconds"] = round(time.perf_counter() - start, 4)
        start = time.perf_counter()
        pool.run(jobs)
        timings["parallel_warm_seconds"] = round(time.perf_counter() - start, 4)
    print(
        f"  sweep[parallel:{processes}p] cold {timings['parallel_cold_seconds']:8.3f}s  "
        f"warm {timings['parallel_warm_seconds']:8.3f}s",
        flush=True,
    )
    record = {
        "jobs": len(jobs),
        "dim": dim,
        "matrices": list(keys),
        "processes": processes,
        "cpu_count": os.cpu_count(),
        **timings,
    }
    # The pool-beats-serial comparison is meaningful only with >= 2 cores;
    # on a single-core host the marker says so explicitly instead of
    # recording a comparison that is pure scheduling noise. Both fields are
    # booleans, which the bench gate's flattener skips by design.
    if (os.cpu_count() or 1) < 2:
        record["skipped_single_core"] = True
    else:
        record["pool_beats_serial"] = (
            timings["parallel_warm_seconds"] < timings["serial_seconds"]
        )
    return record


def run_pool_scaling(processes: int, cache_scale: int, dim: int = 1024) -> dict:
    """Chunked pool dispatch vs serial on the fig10-style job matrix.

    The acceptance record of the chunked worker-pool path: the same 36-job
    batch as :func:`run_sweep_engine` runs once serially and twice on a
    pool with chunked dispatch (the default) — *cold* includes pool
    creation and each worker's first jobs, *warm* reuses the pool.
    The cache is disabled, so every pass executes every job. On a >= 2-core
    host the warm pool pass must beat serial (``pool_beats_serial``,
    asserted by the CI multicore job); a single-core host records
    ``skipped_single_core`` instead — there the pool can only add overhead.
    """
    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    keys = ("M2", "M5", "M8", "M11", "M13", "M15")
    jobs = [
        kernel_job("spmv", scheme, suite_source(key, dim), sim)
        for key in keys
        for scheme in SCHEMES
    ]

    with SweepRunner(processes=1) as serial:
        start = time.perf_counter()
        serial.run(jobs)
        serial_seconds = time.perf_counter() - start
    print(f"  pool_scaling[serial:1p] {serial_seconds:8.3f}s", flush=True)

    with SweepRunner(processes=processes) as pool:
        chunk = pool._effective_pool_chunk(len(jobs))
        start = time.perf_counter()
        pool.run(jobs)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        pool.run(jobs)
        warm_seconds = time.perf_counter() - start
    print(
        f"  pool_scaling[{processes}p chunk {chunk}] cold {cold_seconds:8.3f}s  "
        f"warm {warm_seconds:8.3f}s  ({serial_seconds / warm_seconds:.2f}x)",
        flush=True,
    )

    cpu_count = os.cpu_count() or 1
    record = {
        "jobs": len(jobs),
        "dim": dim,
        "matrices": list(keys),
        "workers": processes,
        "pool_chunk": chunk,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 4),
        "pool_cold_seconds": round(cold_seconds, 4),
        "pool_warm_seconds": round(warm_seconds, 4),
        "speedup": round(serial_seconds / warm_seconds, 2),
    }
    if cpu_count < 2:
        record["skipped_single_core"] = True
    else:
        record["pool_beats_serial"] = warm_seconds < serial_seconds
    return record


def run_concurrent_sweep(cache_scale: int, dim: int = 1024, threads: int = 4) -> dict:
    """Time the fig10-style job matrix submitted from several threads.

    The same 36-job batch as :func:`run_sweep_engine` runs three ways: a
    serial ``run()`` baseline (cache disabled, every job executes), a
    *cold* pass where ``threads`` threads split the batch and push their
    shares through ``Session.submit`` against a fresh cache, and a *warm*
    pass repeating the threaded submission against the now-hot cache.
    With a serial runtime the execution lock serializes the actual kernel
    work — the cold threaded pass measures scheduler overhead, not
    speedup — while the warm pass shows the submission path at
    cache-hit speed. The record is a measurement, not an assertion.
    """
    import tempfile
    import threading

    from repro.api.specs import SweepSpec

    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    keys = ("M2", "M5", "M8", "M11", "M13", "M15")
    spec = SweepSpec.product(kernels="spmv", schemes=tuple(SCHEMES), matrices=keys, dim=dim)

    with Session(sim=sim, runtime=RuntimeConfig(cache_dir=None)) as baseline:
        start = time.perf_counter()
        baseline.sweep(spec)
        serial_seconds = time.perf_counter() - start
    print(f"  concurrent[serial run]  {serial_seconds:8.3f}s", flush=True)

    def threaded_pass(session: Session) -> float:
        shares = [list(spec.specs[index::threads]) for index in range(threads)]
        errors: list = []

        def worker(share) -> None:
            try:
                for future in [session.submit(job_spec) for job_spec in share]:
                    future.result()
            except BaseException as error:
                errors.append(error)

        workers = [threading.Thread(target=worker, args=(share,)) for share in shares]
        start = time.perf_counter()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return elapsed

    with tempfile.TemporaryDirectory() as cache_dir:
        with Session(sim=sim, runtime=RuntimeConfig(cache_dir=cache_dir)) as session:
            cold_seconds = threaded_pass(session)
            warm_seconds = threaded_pass(session)
            stats = session.stats_snapshot()
    print(
        f"  concurrent[{threads}t] cold {cold_seconds:8.3f}s  "
        f"warm {warm_seconds:8.3f}s  ({stats.describe()})",
        flush=True,
    )
    return {
        "jobs": len(spec.specs),
        "dim": dim,
        "matrices": list(keys),
        "threads": threads,
        "serial_seconds": round(serial_seconds, 4),
        "threaded_cold_seconds": round(cold_seconds, 4),
        "threaded_warm_seconds": round(warm_seconds, 4),
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
    }


def run_facade_overhead(cache_scale: int, dim: int = 512) -> dict:
    """Measure the Session facade's overhead over the raw sweep runner.

    The same fig10-style job matrix (3 matrices x all schemes, cache
    disabled so every job executes) runs once through a bare
    ``SweepRunner`` on hand-built jobs and once through
    ``Session.sweep`` on declarative specs; the difference is the cost of
    spec validation and lowering. The record is a measurement, not an
    assertion — the facade work is O(jobs), the kernels O(nnz).
    """
    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    keys = ("M2", "M8", "M13")
    specs = [
        JobSpec("spmv", scheme, Workload.suite(key, dim))
        for key in keys
        for scheme in SCHEMES
    ]
    jobs = [spec.to_job(sim=sim) for spec in specs]
    session = Session(sim=sim, runtime=RuntimeConfig(cache_dir=None))

    # One untimed round per path first: without it the second timed path
    # inherits allocator/numpy warm-up from the first and the recorded
    # overhead goes (impossibly) negative.
    SweepRunner().run(jobs)
    session.sweep(specs)

    start = time.perf_counter()
    SweepRunner().run(jobs)
    direct_seconds = time.perf_counter() - start

    start = time.perf_counter()
    session.sweep(specs)
    session_seconds = time.perf_counter() - start

    overhead = session_seconds - direct_seconds
    print(
        f"  facade[direct] {direct_seconds:8.3f}s  [session] {session_seconds:8.3f}s "
        f"({100.0 * overhead / direct_seconds:+.1f}%)",
        flush=True,
    )
    return {
        "jobs": len(jobs),
        "dim": dim,
        "matrices": list(keys),
        "direct_runner_seconds": round(direct_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "overhead_seconds": round(overhead, 4),
        "overhead_percent": round(100.0 * overhead / direct_seconds, 2),
    }


def run_replay_core(dims: tuple, density: float, seed: int, cache_scale: int) -> dict:
    """Replay-core seconds of the vectorized engine vs the reference loop, per dim.

    Captures the access-trace segments every SpMV scheme emits (by shimming
    ``MemoryHierarchy.replay`` during one instrumented run per scheme), then
    replays the captured segments through fresh hierarchies, best of three
    timings.  This isolates exactly the replay engine; the reference loop
    is timed through the same ``replay`` entry point with
    ``MIN_VECTORIZED_HEADS`` raised above every segment length, so the
    vectorized engine hands each segment to the loop.  Both are
    bit-identical, so only the wall clock differs.
    """
    from repro.sim import _replay_core
    from repro.sim.memory import MemoryHierarchy

    results = {}
    for dim in dims:
        coo = uniform_random_matrix(dim, dim, density=density, seed=seed)
        sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
        captured = []
        original = MemoryHierarchy.replay

        def capture(self, structures, struct_ids, addresses, kinds):
            captured.append(
                (list(structures), struct_ids.copy(), addresses.copy(), kinds.copy())
            )
            return original(self, structures, struct_ids, addresses, kinds)

        segments_per_scheme = {}
        MemoryHierarchy.replay = capture
        try:
            session = Session(sim=sim, runtime=RuntimeConfig(cache_dir=None))
            for scheme in SCHEMES:
                captured = []
                session.run_kernel("spmv", scheme, coo)
                segments_per_scheme[scheme] = captured
        finally:
            MemoryHierarchy.replay = original

        def replay_sweep() -> float:
            total = 0.0
            for segments in segments_per_scheme.values():
                hierarchy = MemoryHierarchy(sim)
                start = time.perf_counter()
                for segment in segments:
                    hierarchy.replay(*segment)
                total += time.perf_counter() - start
            return total

        cutoff = _replay_core.MIN_VECTORIZED_HEADS
        timings = {}
        for engine, min_heads in (("reference", sys.maxsize), ("vectorized", cutoff)):
            _replay_core.MIN_VECTORIZED_HEADS = min_heads
            try:
                replay_sweep()  # warm caches/allocator
                timings[engine] = min(replay_sweep() for _ in range(3))
            finally:
                _replay_core.MIN_VECTORIZED_HEADS = cutoff
        accesses = sum(
            seg[1].size for segs in segments_per_scheme.values() for seg in segs
        )
        speedup = timings["reference"] / timings["vectorized"]
        results[f"dim{dim}"] = {
            "accesses": int(accesses),
            "reference_seconds": round(timings["reference"], 4),
            "vectorized_seconds": round(timings["vectorized"], 4),
            "speedup": round(speedup, 2),
        }
        print(
            f"  replay_core[{dim}] reference {timings['reference']:.3f}s  "
            f"vectorized {timings['vectorized']:.3f}s  ({speedup:.2f}x)",
            flush=True,
        )
    return results


def run_replay_phases(cache_scale: int, dim: int = 512) -> dict:
    """Per-phase replay wall-clock (prefetch/LRU/stalls) of one serial sweep.

    Runs one small serial sweep with ``replay_profile`` enabled and records
    the phase breakdown the profiling hooks collected: prefetcher,
    LRU-classification and stall-accumulation time of the vectorized
    engine, plus a fused ``walk`` phase for the segments it hands to the
    reference loop.
    """
    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    jobs = [
        kernel_job("spmv", scheme, suite_source(key, dim), sim)
        for key in ("M2", "M8", "M13")
        for scheme in SCHEMES
    ]
    with SweepRunner(processes=1, replay_profile=True) as runner:
        runner.run(jobs)
        profile = dict(runner.last_profile or {})
    phases = {name: round(seconds, 4) for name, seconds in profile.items()}
    breakdown = "  ".join(f"{k} {v:.3f}s" for k, v in phases.items())
    print(f"  replay_phases {breakdown}", flush=True)
    return {"jobs": len(jobs), "dim": dim, "phases": phases}


def run_store_query(cache_scale: int, dim: int = 1024) -> dict:
    """Index build time and warm query latency over the 36-job sweep.

    Runs the fig10-style job matrix (six matrices x all schemes) through a
    caching Session — the incremental ingest hook indexes every report as
    it lands — then times a cold full ``reindex`` of the same tree and a
    set of warm queries (filtered select, aggregate mean, paper table)
    against the sqlite index, best of three each. The record tracks the
    read side's overhead trajectory; correctness (reindex == incremental)
    is asserted, not timed.
    """
    import tempfile

    from repro.api.specs import SweepSpec
    from repro.store import Query, ResultStore
    from repro.store.tables import render_tables

    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    keys = ("M2", "M5", "M8", "M11", "M13", "M15")
    spec = SweepSpec.product(kernels="spmv", schemes=tuple(SCHEMES), matrices=keys, dim=dim)

    with tempfile.TemporaryDirectory() as cache_dir:
        with Session(sim=sim, runtime=RuntimeConfig(cache_dir=cache_dir)) as session:
            start = time.perf_counter()
            session.sweep(spec)
            sweep_seconds = time.perf_counter() - start

        store = ResultStore(cache_dir)
        incremental = store.canonical_dump()
        start = time.perf_counter()
        store.reindex()
        reindex_seconds = time.perf_counter() - start
        assert store.canonical_dump() == incremental, "reindex diverged from ingest"

        def timed(fn) -> float:
            fn()  # warm sqlite page cache
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        query_seconds = timed(lambda: store.query(Query(kernel="spmv", scheme="smash_hw")))
        mean_seconds = timed(lambda: store.query(Query(kernel="spmv", mean_by="scheme")))
        tables_seconds = timed(lambda: render_tables(store, ("spmv_speedup",), fmt="csv"))

    print(
        f"  store[{len(spec.specs)} jobs] sweep+ingest {sweep_seconds:8.3f}s  "
        f"reindex {reindex_seconds:.4f}s  query {query_seconds * 1e3:.2f}ms  "
        f"mean {mean_seconds * 1e3:.2f}ms  table {tables_seconds * 1e3:.2f}ms",
        flush=True,
    )
    return {
        "jobs": len(spec.specs),
        "dim": dim,
        "matrices": list(keys),
        "sweep_ingest_seconds": round(sweep_seconds, 4),
        "reindex_seconds": round(reindex_seconds, 4),
        "query_filter_seconds": round(query_seconds, 5),
        "query_mean_seconds": round(mean_seconds, 5),
        "tables_seconds": round(tables_seconds, 5),
    }


def _rss_probe_child(dim: int, density: float, seed: int, cache_scale: int) -> dict:
    """Run one taco_csr SpMV and report this process's peak RSS.

    Executed in a fresh subprocess per replay mode (the high-water mark is
    process-wide and monotonic, so monolithic and chunked must not share a
    process); the replay mode is selected by the parent through the
    SMASH_REPRO_TRACE_CHUNK environment variable.
    """
    import resource

    coo = uniform_random_matrix(dim, dim, density=density, seed=seed)
    sim = SimConfig.default() if cache_scale <= 1 else SimConfig.scaled(cache_scale)
    # A fresh environment-derived Session so the parent's CHUNK env override
    # selects the replay mode under measurement.
    session = Session(sim=sim)
    start = time.perf_counter()
    session.run_kernel("spmv", "taco_csr", coo)
    elapsed = time.perf_counter() - start
    # ru_maxrss is kilobytes on Linux but bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return {
        "nnz": coo.nnz,
        "kernel_seconds": round(elapsed, 4),
        "peak_rss_mb": round(peak / divisor, 1),
    }


def run_rss_probe(dim: int, density: float, seed: int, cache_scale: int) -> dict:
    """Peak RSS and wall-clock of monolithic vs chunked replay (subprocesses)."""
    results = {}
    for label, chunk in (("monolithic", "0"), ("chunked", str(RSS_PROBE_CHUNK))):
        env = dict(os.environ, **{CHUNK_ENV_VAR: chunk})
        out = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--rss-probe-child",
                "--rss-dim", str(dim), "--rss-density", str(density),
                "--seed", str(seed), "--cache-scale", str(cache_scale),
            ],
            env=env, capture_output=True, text=True, check=True,
        )
        results[label] = json.loads(out.stdout)
        print(
            f"  rss[{label}] {results[label]['peak_rss_mb']:8.1f} MB "
            f"{results[label]['kernel_seconds']:8.3f}s",
            flush=True,
        )
    return {
        "dim": dim,
        "density": density,
        "nnz": results["monolithic"]["nnz"],
        "chunk_accesses": RSS_PROBE_CHUNK,
        "monolithic": {k: v for k, v in results["monolithic"].items() if k != "nnz"},
        "chunked": {k: v for k, v in results["chunked"].items() if k != "nnz"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=2048, help="matrix dimension (square)")
    parser.add_argument("--density", type=float, default=0.01, help="non-zero density")
    parser.add_argument("--seed", type=int, default=3, help="matrix generator seed")
    parser.add_argument("--cache-scale", type=int, default=16, help="SimConfig.scaled factor")
    parser.add_argument(
        "--processes", type=int, default=2, help="worker count for the sweep-engine pass"
    )
    parser.add_argument(
        "--sweep-dim", type=int, default=1024, help="matrix dimension of the sweep-engine pass"
    )
    parser.add_argument(
        "--rss-dim", type=int, default=4096, help="matrix dimension of the peak-RSS probe"
    )
    parser.add_argument(
        "--rss-density", type=float, default=0.02, help="density of the peak-RSS probe matrix"
    )
    parser.add_argument(
        "--rss-probe-child",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: run one probe in this process and print JSON
    )
    parser.add_argument(
        "--passes",
        type=str,
        default=None,
        metavar="P1,P2,...",
        help=(
            "comma-separated pass selection (default: all): sweep, "
            "sweep_engine, pool_scaling, concurrent_sweep, facade_overhead, "
            "store_query, replay_memory, replay_core, replay_phases"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_spmv_smoke.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)

    if args.rss_probe_child:
        print(json.dumps(_rss_probe_child(args.rss_dim, args.rss_density, args.seed, args.cache_scale)))
        return 0

    known_passes = (
        "sweep", "sweep_engine", "pool_scaling", "concurrent_sweep",
        "facade_overhead", "store_query", "replay_memory", "replay_core",
        "replay_phases",
    )
    if args.passes is None:
        selected = set(known_passes)
    else:
        selected = {name.strip() for name in args.passes.split(",") if name.strip()}
        unknown = selected - set(known_passes)
        if unknown:
            parser.error(
                f"unknown pass(es) {sorted(unknown)}; known: {', '.join(known_passes)}"
            )

    if "sweep" in selected:
        print(f"SpMV smoke sweep: {args.dim}x{args.dim}, density {args.density}")
        payload = run_sweep(args.dim, args.density, args.seed, args.cache_scale)
    else:
        payload = {"benchmark": "spmv_smoke", "python": platform.python_version()}
    if "sweep_engine" in selected:
        print(f"Sweep-engine pass: {args.sweep_dim} dim, {args.processes} processes")
        payload["sweep_engine"] = run_sweep_engine(args.processes, args.cache_scale, args.sweep_dim)
    if "pool_scaling" in selected:
        print(f"Pool-scaling pass: {args.sweep_dim} dim, {args.processes} processes, chunked dispatch")
        payload["pool_scaling"] = run_pool_scaling(args.processes, args.cache_scale, args.sweep_dim)
    if "concurrent_sweep" in selected:
        print(f"Concurrent-sweep pass: {args.sweep_dim} dim, 4 submitting threads")
        payload["concurrent_sweep"] = run_concurrent_sweep(args.cache_scale, args.sweep_dim)
    if "facade_overhead" in selected:
        print("Facade-overhead pass: 512 dim (Session vs direct runner)")
        payload["facade_overhead"] = run_facade_overhead(args.cache_scale)
    if "store_query" in selected:
        print(f"Store-query pass: {args.sweep_dim} dim, 36-job sweep -> index -> queries")
        payload["store_query"] = run_store_query(args.cache_scale, args.sweep_dim)
    # The RSS probe forks children whose peak-RSS baseline includes the
    # parent's resident set, so it runs before the trace-hungry passes.
    if "replay_memory" in selected:
        print(f"Replay-memory probe: {args.rss_dim} dim, density {args.rss_density}")
        payload["replay_memory"] = run_rss_probe(
            args.rss_dim, args.rss_density, args.seed, args.cache_scale
        )
    if "replay_core" in selected:
        print(
            "Replay-core pass: vectorized vs reference replay at dims "
            f"{args.dim} and {2 * args.dim}"
        )
        payload["replay_core"] = run_replay_core(
            (args.dim, 2 * args.dim), args.density, args.seed, args.cache_scale
        )
    if "replay_phases" in selected:
        print("Replay-phases pass: per-phase replay wall-clock")
        payload["replay_phases"] = run_replay_phases(args.cache_scale)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    total = payload.get("total_kernel_seconds")
    suffix = f"total {total}s -> " if total is not None else "-> "
    print(f"{suffix}{args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
