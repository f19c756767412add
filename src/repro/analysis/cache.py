"""Content-hash lint cache: skip unchanged files on warm runs.

The cache file (``.repro-lint-cache.json`` by default) stores, per
source file, the sha256 of the content that was linted, the per-file
findings it produced, and the module summary the program phase
extracted.  A warm run re-hashes every file (cheap) and only re-lints /
re-summarizes the ones whose hash changed, which is what makes a clean
CI re-run fast: the expensive part of both phases is parsing.

Correctness over speed, always:

* the header carries a **ruleset key** — a hash over the package
  version, the cache/summary schema versions, and the sorted active
  rule ids.  Any mismatch (different select/ignore set, upgraded
  package, changed schema) discards the whole cache rather than
  reinterpreting it;
* entries are keyed by file path and validated per field; anything
  malformed is treated as a miss, never an error;
* program findings are **not** cached — they depend on every file in
  the run, so the program phase always re-links and re-evaluates (from
  cached summaries, which *are* per-file facts).

The cache is written through :func:`repro.runner.atomic.write_text_atomic`
like every other artefact, so a crash mid-save leaves the previous
complete cache in place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..runner.atomic import write_text_atomic
from .finding import Finding
from .program.summary import SUMMARY_SCHEMA, ModuleSummary

__all__ = ["CACHE_SCHEMA", "LintCache", "file_sha256", "ruleset_key"]

#: Bumped whenever the cache layout or a rule's behaviour changes (the
#: ruleset key covers rule ids, not what they flag); older caches are
#: discarded.  v2: REP012 gained ``datetime.datetime.today``.
CACHE_SCHEMA = 2

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_NAME = ".repro-lint-cache.json"


def file_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ruleset_key(version: str, rule_ids: Iterable[str]) -> str:
    """Cache-invalidation key for one (package, rule set) combination."""
    payload = json.dumps(
        [version, CACHE_SCHEMA, SUMMARY_SCHEMA, sorted(rule_ids)],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class LintCache:
    """One loaded cache file, mutated in place and saved once at the end."""

    path: Path
    key: str
    entries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    dirty: bool = False
    hits: int = 0

    @classmethod
    def load(cls, path: Union[str, Path], key: str) -> "LintCache":
        """Load a cache, discarding it entirely on any key mismatch."""
        cache_path = Path(path)
        try:
            payload = json.loads(cache_path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return cls(path=cache_path, key=key)
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("key") != key
            or not isinstance(payload.get("files"), dict)
        ):
            return cls(path=cache_path, key=key)
        entries = {
            file: entry
            for file, entry in payload["files"].items()
            if isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
        }
        return cls(path=cache_path, key=key, entries=entries)

    def _entry_for(self, file: str, sha: str) -> Dict[str, Any]:
        entry = self.entries.get(file)
        if entry is None or entry.get("sha256") != sha:
            entry = {"sha256": sha}
            self.entries[file] = entry
            self.dirty = True
        return entry

    # -- per-file findings --------------------------------------------

    def lookup_findings(
        self, file: str, sha: str
    ) -> Optional[Tuple[List[Finding], List[Finding]]]:
        entry = self.entries.get(file)
        if entry is None or entry.get("sha256") != sha:
            return None
        if "findings" not in entry or "suppressed" not in entry:
            return None
        try:
            findings = [Finding.from_record(r) for r in entry["findings"]]
            suppressed = [Finding.from_record(r) for r in entry["suppressed"]]
        except (KeyError, TypeError, ValueError):
            return None
        self.hits += 1
        return findings, suppressed

    def store_findings(
        self,
        file: str,
        sha: str,
        findings: Iterable[Finding],
        suppressed: Iterable[Finding],
    ) -> None:
        entry = self._entry_for(file, sha)
        entry["findings"] = [f.to_record() for f in findings]
        entry["suppressed"] = [f.to_record() for f in suppressed]
        self.dirty = True

    # -- module summaries (program phase) -----------------------------

    def lookup_summary(self, file: str, sha: str) -> Optional[ModuleSummary]:
        entry = self.entries.get(file)
        if entry is None or entry.get("sha256") != sha:
            return None
        record = entry.get("summary")
        if not isinstance(record, dict) or record.get("schema") != SUMMARY_SCHEMA:
            return None
        try:
            return ModuleSummary.from_record(record)
        except (KeyError, TypeError, IndexError, ValueError):
            return None

    def store_summary(self, file: str, sha: str, summary: ModuleSummary) -> None:
        entry = self._entry_for(file, sha)
        entry["summary"] = summary.to_record()
        self.dirty = True

    # -- persistence --------------------------------------------------

    def prune(self, known_files: Iterable[str]) -> None:
        """Drop entries for files no longer part of the lint run."""
        known = set(known_files)
        stale = [file for file in self.entries if file not in known]
        for file in stale:
            del self.entries[file]
            self.dirty = True

    def save(self) -> None:
        if not self.dirty:
            return
        payload = {
            "schema": CACHE_SCHEMA,
            "key": self.key,
            "files": self.entries,
        }
        write_text_atomic(
            self.path,
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        )
        self.dirty = False
