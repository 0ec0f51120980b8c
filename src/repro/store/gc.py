"""Cache garbage collection: prune stale or foreign report rows.

The content-keyed cache grows unboundedly by design (every distinct job
payload gets a row, and nothing ever deletes one). ``smash-repro cache
gc`` bounds it after the fact with two independent predicates:

* ``max_age_days`` — prune rows whose ``stored_at`` instant (filled by
  sqlite's clock when the row was written) is older than N days. The
  cutoff instant is supplied by the *caller* (the CLI reads the clock
  once, under a justified RL002 suppression) so this module stays
  deterministic and testable with synthetic clocks.
* ``orphaned`` — prune rows written under a foreign cache schema
  version. These are permanent cache misses: the runner will never load
  them again. The files a cache from before the single database (5.0.0)
  left at its root — ``index.sqlite`` with its side files and the
  ``<xx>/<key>.json`` shards — are never read either, and go too.

``dry_run`` reports without deleting.
"""

from __future__ import annotations

import contextlib
import pathlib
import re
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.eval.runner import CACHE_SCHEMA_VERSION, ReportCache

#: The pre-5.0.0 index and its sqlite side files, directly under the root.
_LEGACY_INDEX = ("index.sqlite", "index.sqlite-wal", "index.sqlite-shm", "index.sqlite-journal")

#: A pre-5.0.0 shard directory: the first two hex digits of the job key.
_SHARD_DIR = re.compile(r"[0-9a-f]{2}")


@dataclass
class GcStats:
    """What one gc pass scanned and removed."""

    scanned: int = 0
    pruned_old: int = 0
    pruned_foreign: int = 0
    kept: int = 0
    legacy_files: int = 0
    dry_run: bool = False
    pruned_keys: List[str] = field(default_factory=list)

    @property
    def pruned(self) -> int:
        return self.pruned_old + self.pruned_foreign

    def describe(self) -> str:
        action = "would prune" if self.dry_run else "pruned"
        return (
            f"{self.scanned} scanned, {action} {self.pruned} "
            f"({self.pruned_old} stale, {self.pruned_foreign} foreign), "
            f"{self.kept} kept"
            + (f", {action} {self.legacy_files} legacy files" if self.legacy_files else "")
        )


def _legacy_files(root: pathlib.Path) -> List[pathlib.Path]:
    """The pre-5.0.0 index files and JSON shards (with their temp files) under ``root``."""
    found = [root / name for name in _LEGACY_INDEX if (root / name).is_file()]
    for shard in sorted(root.iterdir()):
        if shard.is_dir() and _SHARD_DIR.fullmatch(shard.name):
            found.extend(sorted(p for p in shard.iterdir() if p.is_file() and ".json" in p.name))
    return found


def gc_cache(
    cache_root: Union[str, pathlib.Path],
    max_age_days: Optional[float] = None,
    now: Optional[float] = None,
    orphaned: bool = False,
    dry_run: bool = False,
) -> GcStats:
    """One gc pass over the cache at ``cache_root``; see the module docstring.

    ``now`` (seconds since the epoch) is required when ``max_age_days`` is
    given — age is ``now - stored_at``.
    """
    if max_age_days is not None:
        if now is None:
            raise ValueError("max_age_days requires an explicit `now` timestamp")
        if max_age_days < 0:
            raise ValueError(f"max_age_days must be non-negative, got {max_age_days}")
    cache = ReportCache(cache_root)
    stats = GcStats(dry_run=dry_run)
    cutoff = now - max_age_days * 86400.0 if max_age_days is not None else None
    try:
        with cache.connection() as conn:
            rows = conn.execute(
                "SELECT key, cache_schema, stored_at FROM reports ORDER BY key"
            ).fetchall()
            for key, schema, stored_at in rows:
                stats.scanned += 1
                if orphaned and schema != CACHE_SCHEMA_VERSION:
                    stats.pruned_foreign += 1
                elif cutoff is not None and stored_at < cutoff:
                    stats.pruned_old += 1
                else:
                    stats.kept += 1
                    continue
                stats.pruned_keys.append(key)
            if not dry_run:
                with conn:
                    conn.executemany(
                        "DELETE FROM reports WHERE key = ?",
                        [(key,) for key in stats.pruned_keys],
                    )
    finally:
        cache.close()
    if orphaned:
        legacy = _legacy_files(cache.root)
        stats.legacy_files = len(legacy)
        if not dry_run:
            for path in legacy:
                path.unlink(missing_ok=True)
            for shard in sorted({path.parent for path in legacy} - {cache.root}):
                with contextlib.suppress(OSError):  # kept when it holds other files
                    shard.rmdir()
    return stats
