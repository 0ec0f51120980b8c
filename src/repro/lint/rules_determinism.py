"""RL002: results must be a function of configuration, not of the process.

The fig16/17 PYTHONHASHSEED incident (fixed in PR 2) was exactly this bug
class: seeds derived through Python's randomized ``hash()`` made figure
outputs differ between interpreter invocations.  In the result-producing
packages (``eval``, ``sim``, ``api``, ``service``) any process-dependent
value source —
``hash()`` on anything but an int, the global ``random`` module, wall-clock
time, ``datetime.now`` — silently breaks the content-keyed report cache and
the byte-identical CI diffs.

Interval timers (``time.perf_counter``) measure durations that never enter
a report and are not matched; anything else that is genuinely intentional
must carry a justified inline suppression.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Tuple

from repro.lint.core import Rule, SourceFile, Violation, _module_in

#: Packages whose outputs feed reports, cache keys, or figures.
SCOPED_PACKAGES = ("repro.eval", "repro.sim", "repro.api", "repro.service", "repro.store")

#: Call patterns that depend on process state, as (base name, attribute)
#: pairs; an attribute of ``None`` matches any attribute of the base.
_FORBIDDEN_CALLS = {
    ("random", None): "the process-global random module is unseeded state",
    ("time", "time"): "wall-clock time varies between runs",
    ("time", "time_ns"): "wall-clock time varies between runs",
    ("uuid", "uuid1"): "uuid1 embeds host and clock state",
    ("uuid", "uuid4"): "uuid4 is random per process",
}

#: ``.now()`` / ``.utcnow()`` / ``.today()`` on a datetime/date object.
_CLOCK_ATTRS = ("now", "utcnow", "today")


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The dotted name of an attribute chain rooted at a Name, if any."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


class DeterminismRule(Rule):
    id = "RL002"
    title = "no hash()/random/wall-clock in eval, sim, api (seeded values only)"
    rationale = (
        "PR 2's PYTHONHASHSEED incident: hash()-derived seeds made figures "
        "differ between interpreter runs; results must depend only on "
        "configuration so cache keys and CI byte-diffs hold."
    )

    def applies_to(self, source: SourceFile) -> bool:
        return _module_in(source.module, *SCOPED_PACKAGES)

    def check(self, source: SourceFile) -> Iterable[Violation]:
        for node in source.nodes_of_type(ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "hash":
                if len(node.args) == 1 and _is_int_literal(node.args[0]):
                    continue
                yield source.violation(
                    node,
                    self,
                    "hash() is randomized per process (PYTHONHASHSEED) on "
                    "non-int values — derive seeds with "
                    "workloads.suite.stable_seed instead",
                )
                continue
            chain = _dotted(func)
            if chain is None or len(chain) < 2:
                continue
            base, attr = chain[0], chain[-1]
            reason = _FORBIDDEN_CALLS.get((base, attr)) or _FORBIDDEN_CALLS.get(
                (base, None)
            )
            if reason is not None:
                yield source.violation(
                    node,
                    self,
                    f"{'.'.join(chain)}() is nondeterministic ({reason}); "
                    "results must be a function of the configuration",
                )
                continue
            if attr in _CLOCK_ATTRS and any(
                part in ("datetime", "date") for part in chain[:-1]
            ):
                yield source.violation(
                    node,
                    self,
                    f"{'.'.join(chain)}() reads the wall clock; results must "
                    "be a function of the configuration",
                )


RULES = [DeterminismRule()]
