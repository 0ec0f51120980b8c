"""`repro.api` — the typed facade over the whole reproduction.

This package is the single public way to run anything:

* :class:`~repro.api.config.RuntimeConfig` — frozen execution knobs
  (worker processes, report cache, trace chunk budget);
  :meth:`~repro.api.config.RuntimeConfig.from_env` builds one from the
  process environment, which only :mod:`repro.api.config` reads.
* :class:`~repro.api.session.Session` — owns the sweep engine (cache,
  executor) and executes declarative specs: ``run(spec) -> CostReport``,
  ``sweep(specs) -> SweepResult``.
* :class:`~repro.api.specs.JobSpec` / :class:`~repro.api.specs.SweepSpec` —
  typed, validated descriptions of kernel and application runs, with the
  :meth:`~repro.api.specs.SweepSpec.product` cross-product builder.
* :class:`~repro.api.registry.Registry` — the unified plugin mechanism
  behind kernels, schemes, workload ids and experiments, with enumeration
  and did-you-mean validated lookup.

The heavyweight pieces (Session, specs) load lazily so that low-level
modules can import the registry/config layer without dragging in the
evaluation stack.
"""

from repro._lazy import lazy_attributes
from repro.api.config import (
    CACHE_DIR_ENV_VAR,
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    DEFAULT_SERVICE_HOST,
    DEFAULT_SERVICE_PORT,
    PROCESSES_ENV_VAR,
    SERVICE_HOST_ENV_VAR,
    SERVICE_PORT_ENV_VAR,
    TRACE_CHUNK_ENV_VAR,
    RuntimeConfig,
)
from repro.api.registry import Registry, UnknownNameError, suggestion

_LAZY = {
    "Session": "repro.api.session",
    "JobSpec": "repro.api.specs",
    "SweepSpec": "repro.api.specs",
    "SweepResult": "repro.api.specs",
    "Workload": "repro.api.specs",
    "suite_nnz": "repro.api.specs",
}

__all__ = [
    "RuntimeConfig",
    "Registry",
    "UnknownNameError",
    "suggestion",
    "Session",
    "JobSpec",
    "SweepSpec",
    "SweepResult",
    "Workload",
    "suite_nnz",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SERVICE_HOST",
    "DEFAULT_SERVICE_PORT",
    "PROCESSES_ENV_VAR",
    "TRACE_CHUNK_ENV_VAR",
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "SERVICE_HOST_ENV_VAR",
    "SERVICE_PORT_ENV_VAR",
]


# Session/spec classes load on first access (PEP 562): eager imports here
# would cycle, since repro.kernels.registry imports this package for
# Registry while the spec/session modules import the kernel and evaluation
# layers.
__getattr__, __dir__ = lazy_attributes(__name__, _LAZY)
