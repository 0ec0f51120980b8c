"""Paper-ready tables derived from the result store.

``smash-repro tables`` turns stored reports into the per-figure summary
tables of the paper: speedup over the TACO-CSR baseline for SpMV
(figure 10), SpMM (figure 12) and SpAdd (figure 14), plus the SpMV DRAM
traffic reduction behind figure 11. The emitters read only stored rows —
never re-execute jobs — and their output is byte-deterministic for a
given cache (CI diffs two consecutive emissions), which follows from the
store's deterministic query ordering and the fixed float formatting here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.index import Query, ResultStore, StoreError
from repro.store.query import render_csv, render_table

#: The scheme used as the denominator of every ratio, per the paper.
BASELINE_SCHEME = "taco_csr"

#: Preferred column order for schemes; schemes absent from this tuple sort
#: alphabetically after it. Kept local so the store never imports the
#: experiment layer (``repro.eval`` sits above ``repro.store`` in RL006).
SCHEME_ORDER = (
    "taco_csr",
    "taco_bcsr",
    "mkl_csr",
    "ideal_csr",
    "smash_sw",
    "smash_hw",
)


@dataclass(frozen=True)
class TableSpec:
    """One emittable paper table."""

    identifier: str
    kernel: str
    metric: str
    description: str


#: The registered tables, in emission order.
TABLE_SPECS: Tuple[TableSpec, ...] = (
    TableSpec(
        "spmv_speedup",
        "spmv",
        "cycles",
        "SpMV speedup over taco_csr (figure 10; higher is better)",
    ),
    TableSpec(
        "spmv_dram",
        "spmv",
        "dram_accesses",
        "SpMV DRAM-access reduction over taco_csr (figure 11; higher is better)",
    ),
    TableSpec(
        "spmm_speedup",
        "spmm",
        "cycles",
        "SpMM speedup over taco_csr (figure 12; higher is better)",
    ),
    TableSpec(
        "spadd_speedup",
        "spadd",
        "cycles",
        "SpAdd speedup over taco_csr (figure 14; higher is better)",
    ),
)

TABLE_IDS: Tuple[str, ...] = tuple(spec.identifier for spec in TABLE_SPECS)


def table_spec(identifier: str) -> TableSpec:
    for spec in TABLE_SPECS:
        if spec.identifier == identifier:
            return spec
    raise StoreError(f"unknown table {identifier!r}; known tables: {list(TABLE_IDS)}")


def _scheme_sort_key(scheme: str) -> Tuple[int, str]:
    try:
        return (SCHEME_ORDER.index(scheme), scheme)
    except ValueError:
        return (len(SCHEME_ORDER), scheme)


def _workload_label(key: Optional[str], dim: Optional[int], multi_dim: bool) -> str:
    label = key if key is not None else "?"
    return f"{label}@{dim}" if multi_dim and dim is not None else label


def build_table(
    store: ResultStore,
    identifier: str,
    dim: Optional[int] = None,
) -> Tuple[TableSpec, List[str], List[Dict[str, object]]]:
    """Compute one table: ``(spec, columns, rows)``.

    Rows are per workload (suffixed ``@dim`` when the cache holds the
    kernel at several dimensions and no ``--dim`` filter narrows it), one
    ratio column per scheme, and a closing geometric-mean row over the
    workloads every scheme covers.
    """
    spec = table_spec(identifier)
    rows = store.query(Query(kernel=spec.kernel, dim=dim))
    if not rows:
        raise StoreError(
            f"no {spec.kernel} reports in the cache at {store.path}; "
            "run a sweep first (e.g. `smash-repro run figure10 --quick`)"
        )
    by_workload: Dict[Tuple[object, object], Dict[str, float]] = {}
    for row in rows:
        group = (row["workload_key"], row["dim"])
        by_workload.setdefault(group, {})[str(row["scheme"])] = float(row[spec.metric])  # type: ignore[arg-type]
    multi_dim = len({group[1] for group in by_workload}) > 1
    schemes = sorted({s for values in by_workload.values() for s in values}, key=_scheme_sort_key)
    if BASELINE_SCHEME not in schemes:
        raise StoreError(
            f"baseline scheme {BASELINE_SCHEME!r} has no {spec.kernel} reports; "
            "tables are ratios and need the baseline swept too"
        )
    columns = ["workload"] + list(schemes)
    out: List[Dict[str, object]] = []
    ratios: Dict[str, List[float]] = {scheme: [] for scheme in schemes}
    for group in sorted(by_workload, key=lambda g: (str(g[0]), g[1] if g[1] is not None else -1)):
        values = by_workload[group]
        baseline = values.get(BASELINE_SCHEME)
        entry: Dict[str, object] = {
            "workload": _workload_label(
                group[0] if group[0] is None or isinstance(group[0], str) else str(group[0]),
                group[1] if isinstance(group[1], int) else None,
                multi_dim,
            )
        }
        for scheme in schemes:
            value = values.get(scheme)
            if baseline is None or value is None or value == 0.0:
                entry[scheme] = None
                continue
            ratio = baseline / value
            entry[scheme] = format(ratio, ".3f")
            ratios[scheme].append(ratio)
        out.append(entry)
    gmean_row: Dict[str, object] = {"workload": "gmean"}
    for scheme in schemes:
        values = ratios[scheme]
        # Only a scheme covering every workload row gets a gmean; a partial
        # sweep would silently skew the mean otherwise.
        if values and len(values) == len(out):
            gmean = math.exp(sum(math.log(v) for v in values) / len(values))
            gmean_row[scheme] = format(gmean, ".3f")
        else:
            gmean_row[scheme] = None
    out.append(gmean_row)
    return spec, columns, out


def render_tables(
    store: ResultStore,
    identifiers: Sequence[str],
    fmt: str = "table",
    dim: Optional[int] = None,
) -> str:
    """Emit the requested tables as one deterministic document."""
    if fmt not in ("table", "csv", "json"):
        raise StoreError(f"unknown format {fmt!r}; known formats: ['table', 'csv', 'json']")
    sections = []
    payload = []
    for identifier in identifiers:
        spec, columns, rows = build_table(store, identifier, dim=dim)
        if fmt == "json":
            payload.append(
                {
                    "table": spec.identifier,
                    "kernel": spec.kernel,
                    "metric": spec.metric,
                    "baseline": BASELINE_SCHEME,
                    "description": spec.description,
                    "columns": columns,
                    "rows": rows,
                }
            )
            continue
        body = render_csv(columns, rows) if fmt == "csv" else render_table(columns, rows)
        sections.append(f"# {spec.identifier}: {spec.description}\n{body}")
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(sections)
