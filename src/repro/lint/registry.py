"""Assembly of the rule set: every shipped rule, in id order.

Kept separate from :mod:`repro.lint.core` (framework) and the ``rules_*``
modules (contracts) so adding a rule is one import plus one list entry.
This module deliberately does **not** use :class:`repro.api.registry.Registry`:
the linter sits in layer 0 and must import nothing from the repo it lints,
so a plain list is the point, not an oversight.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lint.core import Rule, UnexplainedSuppressionRule
from repro.lint import (
    rules_cachekey,
    rules_determinism,
    rules_env,
    rules_layering,
    rules_registry,
)

#: Every contract rule (RL001..RL003, RL005..RL007), before the RL000
#: meta-rule. RL004 is retired and its id is not reused.
_CONTRACT_RULES: List[Rule] = [
    *rules_env.RULES,
    *rules_determinism.RULES,
    *rules_cachekey.RULES,
    *rules_registry.RULES,
    *rules_layering.RULES,
]


def all_rules() -> List[Rule]:
    """Every rule, RL000 first, then the contract rules sorted by id."""
    contract = sorted(_CONTRACT_RULES, key=lambda rule: rule.id)
    known = [rule.id for rule in contract] + ["RL000"]
    return [UnexplainedSuppressionRule(known_ids=known)] + contract


def select_rules(spec: Optional[str]) -> List[Rule]:
    """The rules named by a ``--select`` string (``None`` = all).

    Raises ``KeyError`` naming the unknown id, so the CLI can exit 2.
    """
    rules = all_rules()
    if spec is None:
        return rules
    wanted = [part.strip() for part in spec.split(",") if part.strip()]
    by_id = {rule.id: rule for rule in rules}
    selected: List[Rule] = []
    for rule_id in wanted:
        if rule_id not in by_id:
            raise KeyError(
                f"unknown rule id {rule_id!r}; known rules: "
                f"{', '.join(sorted(by_id))}"
            )
        selected.append(by_id[rule_id])
    return selected


def rule_ids() -> Sequence[str]:
    """The ids of every shipped rule."""
    return [rule.id for rule in all_rules()]
