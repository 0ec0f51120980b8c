"""Declarative job and sweep specifications for the Session facade.

A :class:`JobSpec` describes one unit of evaluation work — *which* kernel or
application, under *which* scheme, on *which* workload — without saying
anything about *how* to execute it (processes, caching, chunking live in
:class:`~repro.api.config.RuntimeConfig`). Specs are validated at
construction: an unknown kernel, scheme, matrix or graph id fails
immediately with a did-you-mean error instead of a bare ``KeyError`` deep in
the scheme runners.

:class:`SweepSpec` bundles specs and provides the cross-product builder
(:meth:`SweepSpec.product`) that replaces the hand-enumerated job loops of
the figure drivers. :class:`SweepResult` pairs each spec with its
:class:`~repro.sim.instrumentation.CostReport` and supports declarative
selection (``result.select(kernel="spmv", scheme="taco_csr")``).

A spec's workload is a source tuple from :mod:`repro.workloads.sources`,
the one module that knows that format: :class:`Workload` (re-exported
here) builds and validates sources, and :func:`suite_nnz` reads a suite
matrix's non-zero count through the shared workload memo. A spec-built job
hashes to the identical content key as a hand-built
:func:`repro.eval.runner.kernel_job`, so existing report caches remain
valid.

Specs also round-trip through plain JSON documents
(:meth:`JobSpec.to_payload` / :meth:`JobSpec.from_payload`,
:meth:`SweepSpec.to_payload` / :meth:`SweepSpec.from_payload`) — the wire
schema of the ``repro.service`` daemon. The round trip is exact: floats
survive JSON bit-for-bit and the nested ``SimConfig``/``SMASHConfig``
reconstruct field-by-field, so a spec decoded from JSON lowers to the
identical cache key as the original (DESIGN.md section 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union, cast

from repro.api.registry import UnknownNameError, suggestion
from repro.core.config import SMASHConfig
from repro.eval.runner import APP_KINDS, KERNEL_KINDS, Job, app_job, kernel_job
from repro.sim.config import (
    CacheConfig,
    CPUConfig,
    DRAMConfig,
    InstructionCosts,
    SimConfig,
)
from repro.sim.instrumentation import CostReport
from repro.workloads.sources import Workload, source_fields, suite_nnz, validate_source

#: Sentinel: SweepSpec.product derives each suite matrix's SMASH config from
#: its Table 3 spec (``MatrixSpec.smash_config()``).
PER_MATRIX = object()


def _freeze_params(params) -> Tuple[Tuple[str, Union[int, float, str]], ...]:
    if isinstance(params, Mapping):
        return tuple(sorted(params.items()))
    return tuple(params)


# --------------------------------------------------------------------------- #
# JSON wire schema (the repro.service request body)
# --------------------------------------------------------------------------- #
def sim_to_payload(sim: SimConfig) -> Dict:
    """The JSON-ready form of a SimConfig (exactly the job-key encoding)."""
    return sim.to_payload()


def sim_from_payload(payload: Mapping) -> SimConfig:
    """Rebuild a SimConfig from :func:`sim_to_payload` output.

    Field-by-field reconstruction through the dataclass constructors, so
    the nested configs re-validate and ``asdict`` of the result equals the
    input — decoded specs hash to the same job key as the originals.
    """
    try:
        return SimConfig(
            cpu=CPUConfig(**payload["cpu"]),
            l1=CacheConfig(**payload["l1"]),
            l2=CacheConfig(**payload["l2"]),
            l3=CacheConfig(**payload["l3"]),
            dram=DRAMConfig(**payload["dram"]),
            costs=InstructionCosts(**payload["costs"]),
        )
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed sim configuration: {error!r}") from None


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one kernel or application run.

    ``kernel`` is a job kind: a kernel name (``spmv``/``spmm``/``spadd``) or
    an application name (``pagerank``/``bc``). ``workload`` is a workload
    source tuple, most conveniently built with :class:`Workload`. ``smash``
    and ``sim`` are per-spec overrides of the owning Session's defaults;
    ``params`` holds dispatcher keyword arguments (``seed``, ``iterations``,
    ``max_sources``) and may be given as a dict.
    """

    kernel: str
    scheme: str
    workload: Tuple
    smash: Optional[SMASHConfig] = None
    sim: Optional[SimConfig] = None
    params: Tuple[Tuple[str, Union[int, float, str]], ...] = ()

    def __post_init__(self) -> None:
        kinds = KERNEL_KINDS + APP_KINDS
        if self.kernel not in kinds:
            raise UnknownNameError(
                f"unknown kernel {self.kernel!r};{suggestion(self.kernel, kinds)} "
                f"known kernels: {list(kinds)}"
            )
        from repro.kernels.schemes import SCHEME_REGISTRY

        SCHEME_REGISTRY.resolve(self.scheme)
        object.__setattr__(self, "workload", validate_source(self.workload))
        object.__setattr__(self, "params", _freeze_params(self.params))

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def workload_kind(self) -> str:
        """The workload source tag: ``suite``, ``locality`` or ``graph``."""
        return source_fields(self.workload)[0]

    @property
    def workload_key(self) -> Optional[str]:
        """The matrix/graph id for suite and graph workloads, else ``None``."""
        return source_fields(self.workload)[1]

    def to_job(self, sim: Optional[SimConfig] = None, smash: Optional[SMASHConfig] = None) -> Job:
        """Lower this spec to a sweep-engine :class:`Job`.

        ``sim``/``smash`` are the Session-level defaults; the spec's own
        overrides win. The lowering goes through the historical
        :func:`kernel_job`/:func:`app_job` constructors, so the resulting
        cache key is identical to a hand-enumerated job's.
        """
        sim = self.sim if self.sim is not None else (sim or SimConfig.default())
        smash = self.smash if self.smash is not None else smash
        build = kernel_job if self.kernel in KERNEL_KINDS else app_job
        return build(
            self.kernel, self.scheme, self.workload, sim,
            smash_config=smash, **dict(self.params),
        )

    # ------------------------------------------------------------------ #
    # JSON wire format
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict:
        """A JSON-ready dict describing this spec (the service wire form)."""
        return {
            "kernel": self.kernel,
            "scheme": self.scheme,
            "workload": list(self.workload),
            "params": dict(self.params),
            "smash": list(self.smash.ratios) if self.smash is not None else None,
            "sim": sim_to_payload(self.sim) if self.sim is not None else None,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output (re-validated).

        Raises ``ValueError`` — including the did-you-mean
        :class:`~repro.api.registry.UnknownNameError` from spec validation
        — on malformed documents, so the service layer can turn any bad
        request body into a clean 400.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"job spec must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(
            set(payload) - {"kernel", "scheme", "workload", "params", "smash", "sim"}
        )
        if unknown:
            raise ValueError(f"unknown job spec fields: {unknown}")
        try:
            kernel = payload["kernel"]
            scheme = payload["scheme"]
            workload = payload["workload"]
        except KeyError as error:
            raise ValueError(f"job spec is missing required field {error.args[0]!r}") from None
        if not isinstance(workload, (list, tuple)):
            raise ValueError(f"workload must be a list, got {type(workload).__name__}")
        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"params must be an object, got {type(params).__name__}")
        smash_ratios = payload.get("smash")
        smash = SMASHConfig(tuple(smash_ratios)) if smash_ratios is not None else None
        sim_payload = payload.get("sim")
        sim = sim_from_payload(sim_payload) if sim_payload is not None else None
        return cls(kernel, scheme, tuple(workload), smash=smash, sim=sim, params=params)


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of :class:`JobSpec`, ready for ``Session.sweep``."""

    specs: Tuple[JobSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def product(
        cls,
        kernels: Union[str, Sequence[str]],
        schemes: Union[str, Sequence[str]],
        matrices: Sequence[str] = (),
        dim: Optional[int] = None,
        graphs: Sequence[str] = (),
        n_vertices: Optional[int] = None,
        workloads: Sequence[Tuple] = (),
        smash: object = PER_MATRIX,
        sim: Optional[SimConfig] = None,
        params: Optional[Mapping] = None,
        skip_empty: bool = True,
    ) -> "SweepSpec":
        """The cross product of kernels x workloads x schemes, as specs.

        Workloads are suite ``matrices`` (at ``dim``), ``graphs`` (at
        ``n_vertices``) and raw ``workloads`` source tuples, in that order.
        With ``smash`` left at the :data:`PER_MATRIX` default every suite
        matrix uses its own Table 3 bitmap configuration and other workloads
        use none; pass an explicit :class:`SMASHConfig` (or ``None``) to
        share one. ``skip_empty`` drops suite matrices whose synthetic
        analogue has no non-zeros at ``dim`` — the same guard the figure
        drivers always applied.
        """
        from repro.workloads.suite import get_spec

        kernels = (kernels,) if isinstance(kernels, str) else tuple(kernels)
        schemes = (schemes,) if isinstance(schemes, str) else tuple(schemes)
        # Resolve the PER_MATRIX sentinel once: past this check ``smash``
        # is the caller's explicit SMASHConfig (or None) to share.
        per_matrix = smash is PER_MATRIX
        shared = None if per_matrix else cast(Optional[SMASHConfig], smash)
        sources: List[Tuple[Tuple, Optional[SMASHConfig]]] = []
        for key in matrices:
            if skip_empty and suite_nnz(key, dim) == 0:
                continue
            config = get_spec(key).smash_config() if per_matrix else shared
            sources.append((Workload.suite(key, dim), config))
        for key in graphs:
            sources.append((Workload.graph(key, n_vertices), shared))
        for workload in workloads:
            sources.append((validate_source(workload), shared))
        return cls(
            tuple(
                JobSpec(
                    kernel, scheme, workload,
                    smash=config, sim=sim, params=dict(params or {}),
                )
                for kernel in kernels
                for workload, config in sources
                for scheme in schemes
            )
        )

    def to_payload(self) -> Dict:
        """A JSON-ready dict describing this sweep (the service wire form)."""
        return {"specs": [spec.to_payload() for spec in self.specs]}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_payload` output (re-validated).

        Raises ``ValueError`` on malformed documents; an error names the
        offending spec's position so service clients can find it.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"sweep must be a JSON object, got {type(payload).__name__}")
        specs = payload.get("specs")
        if not isinstance(specs, (list, tuple)):
            raise ValueError('sweep payload must carry a "specs" list')
        decoded = []
        for index, spec in enumerate(specs):
            try:
                decoded.append(JobSpec.from_payload(spec))
            except ValueError as error:
                raise ValueError(f"specs[{index}]: {error}") from None
        return cls(tuple(decoded))

    @property
    def workload_keys(self) -> Tuple[str, ...]:
        """Distinct matrix/graph ids, in first-appearance order."""
        seen = dict.fromkeys(
            spec.workload_key for spec in self.specs if spec.workload_key is not None
        )
        return tuple(seen)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __add__(self, other: "SweepSpec") -> "SweepSpec":
        return SweepSpec(self.specs + tuple(other))


@dataclass(frozen=True)
class SweepResult:
    """Specs paired with their reports, in submission order."""

    specs: Tuple[JobSpec, ...]
    reports: Tuple[CostReport, ...]

    def __post_init__(self) -> None:
        if len(self.specs) != len(self.reports):
            raise ValueError("specs and reports must pair up one to one")

    def __iter__(self) -> Iterator[Tuple[JobSpec, CostReport]]:
        return iter(zip(self.specs, self.reports))

    def __len__(self) -> int:
        return len(self.specs)

    def select(
        self,
        kernel: Optional[str] = None,
        scheme: Optional[str] = None,
        key: Optional[str] = None,
    ) -> "SweepResult":
        """The sub-result whose specs match every given field."""
        pairs = [
            (spec, report)
            for spec, report in self
            if (kernel is None or spec.kernel == kernel)
            and (scheme is None or spec.scheme == scheme)
            and (key is None or spec.workload_key == key)
        ]
        return SweepResult(tuple(s for s, _ in pairs), tuple(r for _, r in pairs))

    def one(self, **filters) -> CostReport:
        """The single report matching ``filters`` (error if zero or many)."""
        selected = self.select(**filters)
        if len(selected) != 1:
            raise LookupError(
                f"expected exactly one report for {filters}, found {len(selected)}"
            )
        return selected.reports[0]

    def by_scheme(self) -> Dict[str, CostReport]:
        """Reports keyed by scheme (specs must have distinct schemes)."""
        mapping = {spec.scheme: report for spec, report in self}
        if len(mapping) != len(self.specs):
            raise ValueError("by_scheme needs at most one spec per scheme; use select first")
        return mapping
