"""The Session facade: one programmable entry point for running anything.

A :class:`Session` binds the three configuration axes together —

* ``sim``: the simulated machine (:class:`~repro.sim.config.SimConfig`),
* ``smash``: a default bitmap configuration for SMASH schemes,
* ``runtime``: *how* to execute (:class:`~repro.api.config.RuntimeConfig`:
  worker processes, report cache, trace chunk budget)

— and owns the resulting sweep engine: its persistent worker pool, its
on-disk report cache and its job statistics. Work is described
declaratively as :class:`~repro.api.specs.JobSpec` /
:class:`~repro.api.specs.SweepSpec` and submitted through :meth:`run` /
:meth:`sweep` (blocking) or :meth:`submit` (a future per spec, safe from
any thread — the seam the ``repro.service`` daemon is built on); ad-hoc
in-memory matrices (not content-addressable, hence uncacheable) run
through :meth:`run_kernel`. A Session is the library's one front door,
and the sweep engine it owns is always built from its
:class:`~repro.api.config.RuntimeConfig`.

Typical use::

    from repro.api import JobSpec, Session, SweepSpec, Workload

    with Session(sim=SimConfig.scaled(16)) as session:
        report = session.run(JobSpec("spmv", "smash_hw", Workload.suite("M8")))
        sweep = SweepSpec.product(
            kernels="spmv", schemes=("taco_csr", "smash_hw"),
            matrices=("M2", "M8", "M13"),
        )
        result = session.sweep(sweep)

Results are independent of every runtime knob: the same specs produce
bit-identical reports whether executed serially, on a pool, or loaded from
cache (DESIGN.md sections 9-11).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import as_completed as _as_completed
from typing import Iterable, Iterator, Optional, Union

from repro.api.config import RuntimeConfig
from repro.api.registry import UnknownNameError, suggestion
from repro.api.specs import JobSpec, SweepResult, SweepSpec
from repro.core.config import SMASHConfig
from repro.eval.runner import SweepRunner, SweepStats
from repro.sim import trace as _trace
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport


class Session:
    """Owns configuration, cache and executor for a series of runs.

    ``sim`` defaults to the paper's Table 2 machine
    (:meth:`SimConfig.default`); ``runtime`` defaults to
    :meth:`RuntimeConfig.from_env`, so a bare ``Session()`` honours the
    documented environment knobs.
    """

    def __init__(
        self,
        sim: Optional[SimConfig] = None,
        smash: Optional[SMASHConfig] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        self.sim = sim if sim is not None else SimConfig.default()
        self.smash = smash
        # Lifecycle lock: guards the closed flag so close() is idempotent
        # and thread-safe. Construction itself touches no shared state —
        # each Session owns its runner — so building Sessions from several
        # threads needs no coordination.
        self._lock = threading.Lock()
        self._closed = False
        self.runtime = runtime if runtime is not None else RuntimeConfig.from_env()
        self._runner = SweepRunner(
            processes=self.runtime.processes,
            cache_dir=self.runtime.cache_dir,
            trace_chunk=self.runtime.trace_chunk,
        )

    @property
    def cache(self):
        """The owned engine's report cache (None when caching is disabled)."""
        return self._runner.cache

    # ------------------------------------------------------------------ #
    # Declarative execution
    # ------------------------------------------------------------------ #
    def run(self, spec: JobSpec) -> CostReport:
        """Execute one spec (cached, dedupable) and return its report."""
        return self.sweep((spec,)).reports[0]

    def submit(self, spec: JobSpec, sim: Optional[SimConfig] = None) -> "Future[CostReport]":
        """Schedule one spec; the returned future resolves to its report.

        Safe to call from any thread: the sweep engine's single-flight
        scheduler guarantees that concurrent submissions of an identical
        job — from this Session's threads or any mix of :meth:`sweep`
        calls — share one execution, and every caller's future yields a
        report bit-identical to a blocking :meth:`run`. With a serial
        runtime (``processes=1``) the job executes synchronously in the
        calling thread and the future is already resolved on return;
        with a worker pool, ``submit`` returns immediately. Raises
        ``RuntimeError`` once the Session is closed.
        """
        self._check_open()
        sim = sim if sim is not None else self.sim
        return self._runner.submit(spec.to_job(sim=sim, smash=self.smash))

    @staticmethod
    def as_completed(
        futures: Iterable["Future[CostReport]"], timeout: Optional[float] = None
    ) -> Iterator["Future[CostReport]"]:
        """Yield :meth:`submit` futures as they finish (completion order).

        A re-export of :func:`concurrent.futures.as_completed`, so service
        code needs only the Session surface.
        """
        return _as_completed(futures, timeout=timeout)

    def sweep(
        self,
        specs: Union[SweepSpec, Iterable[JobSpec]],
        sim: Optional[SimConfig] = None,
    ) -> SweepResult:
        """Execute a batch of specs and pair each with its report.

        ``sim`` overrides the Session default for specs that carry no
        override of their own (the figure drivers use this for their
        per-experiment cache scaling). Identical jobs are deduplicated and
        cached by the owned sweep engine; reports come back in submission
        order regardless of where each one came from. Raises
        ``RuntimeError`` once the Session is closed.
        """
        self._check_open()
        specs = tuple(specs)
        sim = sim if sim is not None else self.sim
        jobs = [spec.to_job(sim=sim, smash=self.smash) for spec in specs]
        return SweepResult(specs, tuple(self._runner.run(jobs)))

    # ------------------------------------------------------------------ #
    # Imperative escape hatch
    # ------------------------------------------------------------------ #
    def run_kernel(self, kernel: str, scheme: str, *operands, **kwargs):
        """Run one instrumented kernel on in-memory operands, uncached.

        ``operands`` are the kernel's matrix arguments (a COO workload
        matrix, plus a second one for SpMM/SpAdd); keyword arguments
        ``x``/``seed`` forward to the kernel runner and ``smash``/``sim``
        override the Session defaults. Returns a
        :class:`~repro.kernels.schemes.KernelResult` (numeric output plus
        cost report). Unlike :meth:`run`, the workload is an actual matrix
        — not content-addressable — so the result is never cached.
        """
        from repro.kernels.schemes import DEFAULT_SEED, KERNEL_RUNNERS

        if kernel not in KERNEL_RUNNERS:
            raise UnknownNameError(
                f"unknown kernel {kernel!r};{suggestion(kernel, tuple(KERNEL_RUNNERS))} "
                f"known kernels: {sorted(KERNEL_RUNNERS)}"
            )
        smash = kwargs.pop("smash", None)
        sim = kwargs.pop("sim", None)
        seed = kwargs.pop("seed", None)
        with _trace.chunk_override(self.runtime.trace_chunk):
            return KERNEL_RUNNERS[kernel](
                scheme,
                *operands,
                smash_config=smash if smash is not None else self.smash,
                sim_config=sim if sim is not None else self.sim,
                seed=DEFAULT_SEED if seed is None else seed,
                **kwargs,
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> SweepStats:
        """Job counters of the owned sweep engine (submitted/executed/cached)."""
        return self._runner.stats

    def stats_snapshot(self) -> SweepStats:
        """A consistent copy of the counters (taken under the engine lock)."""
        return self._runner.stats_snapshot()

    def _check_open(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed Session")

    def close(self) -> None:
        """Drain in-flight futures and release the executor (idempotent).

        Thread-safe: concurrent closers race benignly (one drains, the
        rest return once it is done), and every job in flight at the time
        of the call resolves before the pool is torn down — a future
        obtained from :meth:`submit` never dangles. Later :meth:`submit`,
        :meth:`run` and :meth:`sweep` calls raise ``RuntimeError``; the
        report cache persists.
        """
        with self._lock:
            self._closed = True
        self._runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Session({self.runtime.describe()})"
