"""The linter framework: one parse per file, many rules, explicit suppressions.

The contracts this package enforces (see DESIGN.md section 14) are *repo*
invariants, not general Python style: the single environment-read site, the
determinism of cache keys, registry-only dispatch, the package layering
DAG.  The framework is deliberately tiny and
stdlib-only so it can run anywhere the repo runs:

* :class:`SourceFile` parses a file **once** and exposes a cached
  node index (:meth:`SourceFile.nodes_of_type`) that every
  rule shares — linting N rules costs one ``ast.parse`` and one ``ast.walk``
  per file, not N.
* :class:`Rule` is the extension point: subclasses declare an ``id`` /
  ``title`` / ``rationale`` and implement :meth:`Rule.check`, yielding
  :class:`Violation` records.
* Suppressions are inline and must be justified:
  ``# repro-lint: disable=RL005 -- <one-line reason>``.  A disable comment
  without a ``--`` reason is itself a violation (RL000), so the repo can
  never accumulate unexplained exemptions.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: The suppression grammar: a comment of the form
#: ``repro-lint: disable=<id>[,<id>...] -- <reason>`` (ids or ``all``).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+|all)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: Rule-id shape accepted in disable comments (``RL###``; ``all`` is special).
_RULE_ID_RE = re.compile(r"^RL\d{3}$")


@dataclass(frozen=True)
class Violation:
    """One broken contract: where, which rule, and what to do about it."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the ``--json`` output schema, one entry each)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Violation":
        """Inverse of :meth:`to_dict` (used by the schema round-trip tests)."""
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            col=int(payload["col"]),  # type: ignore[arg-type]
            rule=str(payload["rule"]),
            message=str(payload["message"]),
        )

    def render(self) -> str:
        """The one-line human-readable form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``repro-lint: disable`` comment."""

    line: int
    rules: Tuple[str, ...]  # () means ``disable=all``
    reason: Optional[str]

    def covers(self, rule_id: str) -> bool:
        return not self.rules or rule_id in self.rules


def module_name_for(path: object) -> str:
    """Dotted module name of ``path``, anchored at the ``repro`` package.

    ``src/repro/eval/runner.py`` → ``repro.eval.runner``; a package
    ``__init__.py`` maps to the package itself.  Files outside a ``repro``
    directory fall back to their stem, which keeps path-scoped rules inert
    on them.
    """
    parts = list(PurePosixPath(str(path).replace("\\", "/")).parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class SourceFile:
    """One parsed source file shared by every rule.

    Parsing happens exactly once, in the constructor; the node index is
    built lazily on the first :meth:`nodes_of_type` call and reused by all
    subsequent rules.
    """

    def __init__(self, path: object, text: str, module: Optional[str] = None) -> None:
        self.path = str(path)
        self.text = text
        self.module = module if module is not None else module_name_for(path)
        self.tree = ast.parse(text, filename=self.path)
        self._index: Optional[Dict[type, List[ast.AST]]] = None
        self._suppressions: Optional[List[Suppression]] = None

    # ------------------------------------------------------------------ #
    # Node index
    # ------------------------------------------------------------------ #
    def _build_index(self) -> Dict[type, List[ast.AST]]:
        if self._index is None:
            index: Dict[type, List[ast.AST]] = {}
            for node in ast.walk(self.tree):
                index.setdefault(type(node), []).append(node)
            self._index = index
        return self._index

    def nodes_of_type(self, *types: Type[ast.AST]) -> List[ast.AST]:
        """Every node of the given AST types, in a stable walk order."""
        index = self._build_index()
        nodes: List[ast.AST] = []
        for node_type in types:
            nodes.extend(index.get(node_type, []))
        return nodes

    # ------------------------------------------------------------------ #
    # Suppressions
    # ------------------------------------------------------------------ #
    def suppressions(self) -> List[Suppression]:
        """Every ``repro-lint: disable`` comment, parsed from real tokens.

        Tokenizing (rather than grepping lines) means string literals that
        merely *mention* the grammar — docs, fixture snippets — can never
        register as suppressions.
        """
        if self._suppressions is None:
            found: List[Suppression] = []
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            try:
                for token in tokens:
                    if token.type != tokenize.COMMENT:
                        continue
                    match = _SUPPRESS_RE.search(token.string)
                    if match is None:
                        continue
                    raw = match.group("rules").strip()
                    rules: Tuple[str, ...]
                    if raw == "all":
                        rules = ()
                    else:
                        rules = tuple(
                            part.strip() for part in raw.split(",") if part.strip()
                        )
                    found.append(
                        Suppression(
                            line=token.start[0],
                            rules=rules,
                            reason=match.group("reason"),
                        )
                    )
            except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded
                pass
            self._suppressions = found
        return self._suppressions

    def is_suppressed(self, violation: Violation) -> bool:
        """Whether an inline disable comment on the violation's line covers it."""
        return any(
            s.line == violation.line and s.covers(violation.rule)
            for s in self.suppressions()
        )

    # ------------------------------------------------------------------ #
    # Violation factory
    # ------------------------------------------------------------------ #
    def violation(self, node: ast.AST, rule: "Rule", message: str) -> Violation:
        """A violation anchored at ``node`` in this file."""
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            message=message,
        )


class Rule:
    """Base class of every lint rule.

    Subclasses set ``id`` (``RL###``), ``title`` (one line, shown by
    ``--list-rules``) and ``rationale`` (the contract and the PR that
    motivated it), optionally narrow :meth:`applies_to`, and implement
    :meth:`check`.
    """

    id: str = "RL999"
    title: str = ""
    rationale: str = ""

    def applies_to(self, source: SourceFile) -> bool:
        """Whether this rule runs on ``source`` (default: every file)."""
        return True

    def check(self, source: SourceFile) -> Iterable[Violation]:
        """Yield every violation of this rule in ``source``."""
        raise NotImplementedError


def _module_in(module: str, *prefixes: str) -> bool:
    """Component-wise prefix test (``repro.sim`` matches ``repro.sim.cache``
    but not ``repro.simulator``)."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class UnexplainedSuppressionRule(Rule):
    """RL000: every suppression must carry a ``-- reason`` justification."""

    id = "RL000"
    title = "suppression comments must be justified and name known rules"
    rationale = (
        "An exemption without a recorded reason is indistinguishable from a "
        "silenced bug; the satellite contract of the linter PR is zero "
        "unexplained suppressions."
    )

    def __init__(self, known_ids: Sequence[str] = ()) -> None:
        self.known_ids = set(known_ids)

    def check(self, source: SourceFile) -> Iterable[Violation]:
        for suppression in source.suppressions():
            if not suppression.reason:
                yield Violation(
                    path=source.path,
                    line=suppression.line,
                    col=1,
                    rule=self.id,
                    message=(
                        "suppression lacks a justification; write "
                        "'# repro-lint: disable=<rule> -- <reason>'"
                    ),
                )
            for rule_id in suppression.rules:
                if not _RULE_ID_RE.match(rule_id) or (
                    self.known_ids and rule_id not in self.known_ids
                ):
                    yield Violation(
                        path=source.path,
                        line=suppression.line,
                        col=1,
                        rule=self.id,
                        message=f"suppression names unknown rule id {rule_id!r}",
                    )


@dataclass
class LintResult:
    """Outcome of linting a batch of files."""

    violations: List[Violation]
    files_checked: int
    parse_errors: List[str]

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors


def lint_source(source: SourceFile, rules: Sequence[Rule]) -> List[Violation]:
    """Run ``rules`` over one parsed file, honouring inline suppressions."""
    raw: List[Violation] = []
    for rule in rules:
        if rule.applies_to(source):
            raw.extend(rule.check(source))
    kept = [v for v in raw if v.rule == "RL000" or not source.is_suppressed(v)]
    return sorted(kept, key=lambda v: (v.line, v.col, v.rule))


def iter_python_files(paths: Sequence[object]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint, sorted."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(paths: Sequence[object], rules: Sequence[Rule]) -> LintResult:
    """Lint every Python file under ``paths`` with ``rules``."""
    violations: List[Violation] = []
    parse_errors: List[str] = []
    files_checked = 0
    for path in iter_python_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            parse_errors.append(f"{path}: {error}")
            continue
        try:
            source = SourceFile(path, text)
        except SyntaxError as error:
            parse_errors.append(f"{path}:{error.lineno}: syntax error: {error.msg}")
            continue
        files_checked += 1
        violations.extend(lint_source(source, rules))
    return LintResult(violations=violations, files_checked=files_checked, parse_errors=parse_errors)
