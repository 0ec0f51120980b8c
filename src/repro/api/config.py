"""Runtime configuration of the facade: the one place the environment is read.

Every runtime knob — the worker-process count (``SMASH_REPRO_PROCESSES``),
the trace chunk budget (``SMASH_REPRO_TRACE_CHUNK``), the report-cache
location/enablement (``SMASH_REPRO_CACHE_DIR`` / ``SMASH_REPRO_CACHE``) and the
sweep-service bind address (``SMASH_REPRO_SERVICE_HOST`` /
``SMASH_REPRO_SERVICE_PORT``) — is a field of the frozen
:class:`RuntimeConfig`. This module is the only code in the library that
reads ``os.environ``: :meth:`RuntimeConfig.from_env` resolves every
knob for the front doors (the :class:`~repro.api.session.Session`, the
CLIs), and :func:`trace_chunk_from_env` resolves the chunk budget alone for
kernels called outside a Session. Everything else (the sweep runner, the
trace engine) receives an explicit, validated value.

None of these knobs can change a result: processes and cache only affect
where/whether a job executes, the chunk budget only bounds peak replay
memory (DESIGN.md section 10), and the service knobs only say where
results are served. That is why none of them participate in the
report-cache job key.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from dataclasses import dataclass
from typing import Optional, Union, cast

from repro.sim.trace import CHUNK_ENV_VAR, DEFAULT_CHUNK_ACCESSES

#: Default location of the on-disk report cache (relative to the CWD).
DEFAULT_CACHE_DIR = ".smash-cache"

#: Environment variable consulted for the default worker count.
PROCESSES_ENV_VAR = "SMASH_REPRO_PROCESSES"

#: Environment variable relocating the report cache.
CACHE_DIR_ENV_VAR = "SMASH_REPRO_CACHE_DIR"

#: Environment variable disabling the report cache (``0``/``false``/``off``).
CACHE_ENV_VAR = "SMASH_REPRO_CACHE"

#: Re-exported so runtime-config users need only this module.
TRACE_CHUNK_ENV_VAR = CHUNK_ENV_VAR

#: Environment variable setting the sweep-service bind address.
SERVICE_HOST_ENV_VAR = "SMASH_REPRO_SERVICE_HOST"

#: Environment variable setting the sweep-service port (0 = ephemeral).
SERVICE_PORT_ENV_VAR = "SMASH_REPRO_SERVICE_PORT"

#: Default bind address of ``smash-repro serve`` (loopback only; fronting
#: a daemon to other hosts is an explicit opt-in via --host/env).
DEFAULT_SERVICE_HOST = "127.0.0.1"

#: Default port of ``smash-repro serve``.
DEFAULT_SERVICE_PORT = 8377

_UNSET = object()
_FALSY = ("0", "false", "no", "off")


def _parse_int(raw: str, origin: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{origin} must be an integer, got {raw!r}") from None


def _checked_trace_chunk(chunk: object) -> Optional[int]:
    """Validate a chunk budget; 0 and ``None`` both mean monolithic replay."""
    if chunk is None:
        return None
    if isinstance(chunk, bool) or not isinstance(chunk, int):
        raise ValueError(f"trace chunk budget must be an integer, got {chunk!r}")
    if chunk < 0:
        raise ValueError(f"trace chunk budget must be non-negative, got {chunk}")
    # 0 is the documented spelling of "monolithic" in the environment knob;
    # normalize so there is one falsy value.
    return chunk or None


def trace_chunk_from_env() -> Optional[int]:
    """The chunk budget from ``SMASH_REPRO_TRACE_CHUNK`` alone, validated.

    Reads no other variable, so a malformed unrelated knob (say
    ``SMASH_REPRO_SERVICE_PORT``) cannot break a kernel that only needs the
    chunk budget. Unset means :data:`DEFAULT_CHUNK_ACCESSES`.
    """
    raw = os.environ.get(CHUNK_ENV_VAR, "").strip()
    return _checked_trace_chunk(
        _parse_int(raw, CHUNK_ENV_VAR) if raw else DEFAULT_CHUNK_ACCESSES
    )


@dataclass(frozen=True)
class RuntimeConfig:
    """How (not what) to execute: workers, report cache, trace chunking.

    ``processes`` is the sweep-engine worker count (1 = serial, in-process).
    ``cache_dir`` locates the on-disk report cache; ``None`` disables it.
    ``trace_chunk`` is the per-segment access budget of the bounded-memory
    trace replay; ``None`` (or 0, normalized to ``None``) restores the
    monolithic build-then-replay path. ``service_host``/``service_port``
    are where the ``repro.service`` daemon binds (``smash-repro serve``;
    port 0 asks the OS for an ephemeral port). Like every other knob here
    they say *how* work is executed, stored and served, never what it
    computes — which is why none participate in the report-cache job key.
    """

    processes: int = 1
    cache_dir: Optional[Union[str, pathlib.Path]] = DEFAULT_CACHE_DIR
    trace_chunk: Optional[int] = DEFAULT_CHUNK_ACCESSES
    service_host: str = DEFAULT_SERVICE_HOST
    service_port: int = DEFAULT_SERVICE_PORT

    def __post_init__(self) -> None:
        if isinstance(self.processes, bool) or not isinstance(self.processes, int):
            raise ValueError(
                f"worker process count must be a positive integer, got {self.processes!r}"
            )
        if self.processes < 1:
            raise ValueError(
                f"worker process count must be at least 1, got {self.processes}"
            )
        object.__setattr__(self, "trace_chunk", _checked_trace_chunk(self.trace_chunk))
        if not isinstance(self.service_host, str) or not self.service_host:
            raise ValueError(
                f"service host must be a non-empty string, got {self.service_host!r}"
            )
        if isinstance(self.service_port, bool) or not isinstance(self.service_port, int):
            raise ValueError(
                f"service port must be an integer, got {self.service_port!r}"
            )
        if not 0 <= self.service_port <= 65535:
            raise ValueError(
                f"service port must be in [0, 65535] (0 = ephemeral), "
                f"got {self.service_port}"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(
        cls,
        processes: Optional[int] = None,
        cache_dir: object = _UNSET,
        trace_chunk: object = _UNSET,
        service_host: Optional[str] = None,
        service_port: Optional[int] = None,
    ) -> "RuntimeConfig":
        """Build a config from the environment, explicit arguments winning.

        Each keyword, when passed (e.g. from a CLI flag), takes precedence
        over its environment variable; an invalid value — explicit or
        environmental — raises ``ValueError`` with a message naming the
        offending knob.
        """
        if processes is None:
            raw = os.environ.get(PROCESSES_ENV_VAR, "").strip()
            processes = _parse_int(raw, PROCESSES_ENV_VAR) if raw else 1
        if cache_dir is _UNSET:
            if os.environ.get(CACHE_ENV_VAR, "").strip().lower() in _FALSY:
                cache_dir = None
            else:
                cache_dir = os.environ.get(CACHE_DIR_ENV_VAR, "").strip() or DEFAULT_CACHE_DIR
        if trace_chunk is _UNSET:
            trace_chunk = trace_chunk_from_env()
        if service_host is None:
            service_host = (
                os.environ.get(SERVICE_HOST_ENV_VAR, "").strip() or DEFAULT_SERVICE_HOST
            )
        if service_port is None:
            raw = os.environ.get(SERVICE_PORT_ENV_VAR, "").strip()
            service_port = (
                _parse_int(raw, SERVICE_PORT_ENV_VAR) if raw else DEFAULT_SERVICE_PORT
            )
        # The _UNSET sentinels force ``object``-typed parameters; by here
        # both have been resolved to real field values.
        return cls(
            processes=processes,
            cache_dir=cast(Optional[Union[str, pathlib.Path]], cache_dir),
            trace_chunk=cast(Optional[int], trace_chunk),
            service_host=service_host,
            service_port=service_port,
        )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def cache_enabled(self) -> bool:
        """Whether the on-disk report cache is in use."""
        return self.cache_dir is not None

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        cache = str(self.cache_dir) if self.cache_enabled else "disabled"
        chunk = self.trace_chunk if self.trace_chunk is not None else "monolithic"
        return f"processes={self.processes}, cache={cache}, trace_chunk={chunk}"
