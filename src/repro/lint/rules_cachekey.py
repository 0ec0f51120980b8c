"""RL003: runtime-only knobs must stay out of the report-cache job key.

The sweep cache's whole guarantee (stated in ``RuntimeConfig``'s
docstring) is that a job key hashes *what* is computed, never *how*: the
trace chunk budget, worker count, cache location and store settings all
leave results bit-identical, so folding any of them into ``job_key`` would
split the cache on knobs that cannot change the answer — warm runs
re-executing everything after an innocuous runtime change.

The rule seeds at the key builders in ``repro/eval/runner.py``
(``job_key``, ``Job.payload``, ``kernel_job``, ``app_job``) and walks the
intra-module call closure; any reference to a runtime-only knob name
anywhere in that closure is a violation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from repro.lint.core import Rule, SourceFile, Violation

#: The module holding the cache-key builders.
RUNNER_MODULE = "repro.eval.runner"

#: Functions (``name`` or ``Class.method``) whose results feed the job key.
KEY_BUILDER_SEEDS = ("job_key", "Job.payload", "kernel_job", "app_job")

#: Identifiers (names or attribute names) that denote runtime-only
#: execution knobs: the RuntimeConfig fields and their sentinels/builders,
#: plus the names of removed knobs, so one that returns is still caught.
RUNTIME_ONLY_NAMES = frozenset(
    {
        "trace_chunk",
        "replay_backend",
        "replay_batch",
        "replay_profile",
        "pool_chunk",
        "pool_warmup",
        "processes",
        "cache_dir",
        "RuntimeConfig",
        "USE_ENV_CHUNK",
        "USE_ENV_BACKEND",
        "from_env",
        "store_ingest",
        "store_index",
    }
)


def _function_table(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Module functions plus ``Class.method`` entries, by qualified name."""
    table: Dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            table[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    table[f"{node.name}.{item.name}"] = item
    return table


def _callees(fn: ast.FunctionDef) -> Set[str]:
    """Unqualified names this function calls (``f(...)`` and ``x.m(...)``)."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


class CacheKeyPurityRule(Rule):
    id = "RL003"
    title = "runtime-only RuntimeConfig knobs unreachable from job-key builders"
    rationale = (
        "Job keys hash what is computed, never how: chunk budget, workers, "
        "cache and store location are documented as result-neutral, so "
        "keying on them would shatter the report cache."
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.module == RUNNER_MODULE

    def check(self, source: SourceFile) -> Iterable[Violation]:
        table = _function_table(source.tree)
        # Transitive closure of the key builders over intra-module calls.
        # Method calls resolve by attribute name (``job.payload()`` reaches
        # ``Job.payload``): conservative, but exact enough for runner.py.
        worklist: List[str] = [name for name in KEY_BUILDER_SEEDS if name in table]
        closure: Set[str] = set(worklist)
        while worklist:
            fn = table[worklist.pop()]
            for callee in _callees(fn):
                for qualname, candidate in table.items():
                    if qualname == callee or qualname.endswith(f".{callee}"):
                        if qualname not in closure:
                            closure.add(qualname)
                            worklist.append(qualname)
        for qualname in sorted(closure):
            fn = table[qualname]
            for node in ast.walk(fn):
                name = None
                if isinstance(node, ast.Name) and node.id in RUNTIME_ONLY_NAMES:
                    name = node.id
                elif isinstance(node, ast.Attribute) and node.attr in RUNTIME_ONLY_NAMES:
                    name = node.attr
                if name is not None:
                    yield source.violation(
                        node,
                        self,
                        f"runtime-only knob {name!r} is reachable from the "
                        f"job-key builder {qualname} — execution knobs are "
                        "result-neutral and must never enter the cache key",
                    )


RULES = [CacheKeyPurityRule()]
