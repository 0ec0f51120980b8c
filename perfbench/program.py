"""The program side of the benchmark: one fresh interpreter per spawn.

``run.py`` starts this file with a fresh ``python3`` for every program
instance, so memory high-water marks and set-up time belong to the program
alone. Two modes:

``sweep PLAN``
    Library workloads. Reads the plan (JSON: the sim config, the sweep
    requests as spec payloads, the runtime), builds a Session, starts and
    warms the worker pool, prints ``READY`` and runs the requests through
    ``Session.sweep``, pausing around each request for the harness's host
    reference when the plan asks for it. The last stdout line is a JSON
    result: per-request latencies, peak RSS, the modelled-statistics digest
    and the payloads of the sampled jobs.

``serve CACHE_DIR PORT_FILE``
    The ``smash-repro serve`` daemon, started through its CLI entry point.

Both modes turn off sqlite's fsync (see ``_exclude_fsync``) and, given
``--trace-out FILE``, install the layer wrappers from ``tracing.py`` and
write the recorded spans to FILE when the program ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import pathlib
import sqlite3
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def _exclude_fsync() -> None:
    """Open every sqlite connection with ``synchronous=OFF``.

    The index commits once per stored report; on a disk each commit waits
    for an fsync whose latency swings run to run (a cold 480-job serial
    sweep read 5.3-8.4 s on disk against 4.7-5.4 s on tmpfs). Without the
    sync the commits still happen, one per report, so commit batching stays
    visible in ``store.ingest_calls`` and ``store.ingest_s``; only the
    device flush is left out, as tmpfs would leave it out.
    """
    connect = sqlite3.connect

    def connect_without_fsync(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.execute("PRAGMA synchronous=OFF")
        return conn

    sqlite3.connect = connect_without_fsync


def peak_rss_mb(pids) -> float:
    """Largest ``VmHWM`` among ``pids``, in MiB.

    ``VmHWM`` belongs to the process's own address space, which ``exec``
    replaces, so a parent's earlier growth does not leak into it the way it
    leaks into ``ru_maxrss``.
    """
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def canonical(payload) -> str:
    """The byte form payloads are compared and digested in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(pairs) -> str:
    """SHA-256 over ``(job key, canonical payload)`` pairs in key order."""
    sha = hashlib.sha256()
    for key, text in sorted(pairs):
        sha.update(key.encode("ascii"))
        sha.update(text.encode("utf-8"))
    return sha.hexdigest()


def _pause_for_reference() -> None:
    """Let ``run.py`` measure the host's speed while the program idles.

    ``run.py`` runs its host reference task when it reads this line and
    answers on stdin; the pause lies between two timed requests, so it
    counts in no latency, and the task's memory stays out of the program.
    """
    print("REFERENCE", flush=True)
    sys.stdin.readline()


def _start_pool(session, processes: int) -> None:
    """Start the session's worker pool and wait until every worker is warm.

    Pool start-up is part of set-up; the pool otherwise starts lazily
    inside the first pooled sweep.
    """
    ensure = getattr(getattr(session, "_runner", None), "_ensure_pool", None)
    if processes < 2 or ensure is None:
        return
    pool = ensure()
    for future in [pool.submit(os.getpid) for _ in range(processes)]:
        future.result()


def run_sweeps(plan_path: str, trace_out: str) -> int:
    from repro.api import RuntimeConfig, Session
    from repro.api.specs import SweepSpec, sim_from_payload
    from repro.eval.runner import job_key

    plan = json.loads(pathlib.Path(plan_path).read_text(encoding="utf-8"))
    recorder = tracing.Recorder()
    if trace_out:
        tracing.install(recorder)
    sim = sim_from_payload(plan["sim"])
    requests = [SweepSpec.from_payload({"specs": specs}) for specs in plan["requests"]]
    runtime = RuntimeConfig(processes=plan["processes"], cache_dir=plan["cache_dir"])
    session = Session(sim=sim, runtime=runtime)
    try:
        _start_pool(session, plan["processes"])
        print("READY", flush=True)
        if plan.get("setup_only"):
            return 0

        recorder.enabled = bool(trace_out)
        latencies, results = [], []
        reference = plan.get("reference")
        if reference:
            _pause_for_reference()
        for index, sweep in enumerate(requests):
            t0 = time.perf_counter()
            span = recorder.open("bench.request", t0, f"r{index}") if recorder.enabled else None
            result = session.sweep(sweep)
            if span is not None:
                recorder.close(span)
            latencies.append(time.perf_counter() - t0)
            results.append(result)
            if reference:
                _pause_for_reference()
        recorder.enabled = False

        pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
        rss = peak_rss_mb(pids)
        sample = set(plan["sample_keys"])
        pairs, sampled, instructions = [], {}, 0
        for result in results:
            for spec, report in result:
                key = job_key(spec.to_job(sim=sim))
                text = canonical(report.to_dict())
                pairs.append((key, text))
                instructions += report.total_instructions
                if key in sample:
                    sampled[key] = text
    finally:
        session.close()
    if trace_out:
        recorder.dump(trace_out)
    print(json.dumps({
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "peak_rss_mb": rss,
        "jobs": len(pairs),
        "instructions": instructions,
        "digest": digest(set(pairs)),
        "sampled": sampled,
    }))
    return 0


def run_daemon(cache_dir: str, port_file: str, trace_out: str) -> int:
    from repro.eval.cli import main

    recorder = tracing.Recorder()
    if trace_out:
        tracing.install(recorder)
        recorder.enabled = True
    try:
        return main([
            "serve", "--processes", "1", "--host", "127.0.0.1", "--port", "0",
            "--port-file", port_file, "--cache-dir", cache_dir, "--quiet",
        ])
    finally:
        if trace_out:
            recorder.enabled = False
            recorder.dump(trace_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default="", metavar="FILE")
    modes = parser.add_subparsers(dest="mode", required=True)
    sweep = modes.add_parser("sweep")
    sweep.add_argument("plan")
    serve = modes.add_parser("serve")
    serve.add_argument("cache_dir")
    serve.add_argument("port_file")
    args = parser.parse_args(argv)
    _exclude_fsync()
    if args.mode == "sweep":
        return run_sweeps(args.plan, args.trace_out)
    return run_daemon(args.cache_dir, args.port_file, args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
