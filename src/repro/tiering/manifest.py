"""The verification manifest behind ``repro verify-tree``.

A manifest is the durable record of one spec tree's last verified
state: for every spec file, the canonical program fingerprint
(:func:`repro.parallel.program_fingerprint` — whitespace- and
comment-insensitive, semantics-flag-aware), the tier the verdict was
computed at, and the verdict itself (held/failed plus the exact
formatted text).  The next run diffs fresh fingerprints against the
manifest and re-verifies *only* what changed:

* **unchanged** — same path, same fingerprint, same check parameters:
  the stored verdict is replayed byte for byte (no engine fixpoint
  runs at all);
* **changed** — the fingerprint moved: the spec is re-verified;
* **added** — a path the manifest has never seen;
* **removed** — a manifest path no longer on disk: the entry is
  dropped.

Invalidation rules, in order of precedence: a manifest schema bump
discards the whole file; a change to the verdict-relevant check
parameters (fairness mode, the LIGHT sampler seed) invalidates every
entry; a fingerprint change invalidates its own entry.  The runner
replays an unchanged entry only when its tier is the tier the run
selects (:func:`repro.tiering.select.tier_for`).

The file is JSON, written atomically; losing it costs one cold run,
never a wrong verdict.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = ["MANIFEST_SCHEMA_VERSION", "ManifestEntry", "ManifestDiff", "Manifest"]

#: Bumped whenever the stored layout or replay semantics change; a
#: mismatched manifest is discarded wholesale (one cold run re-fills).
#: Version 2 dropped the ``standard`` tier and the size-chosen LIGHT
#: tier, so no version-1 entry is known to answer a version-2 run.
MANIFEST_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ManifestEntry:
    """One spec's last verified state.

    Attributes:
        fingerprint: canonical program fingerprint the verdict is for.
        tier: tier the verdict was computed at (``light`` /
            ``thorough``).
        holds: the verdict.
        text: the exact formatted verdict text, replayed byte for byte
            on a manifest hit.
    """

    fingerprint: str
    tier: str
    holds: bool
    text: str

    def to_payload(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "tier": self.tier,
            "holds": self.holds,
            "text": self.text,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ManifestEntry":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            tier=str(payload["tier"]),
            holds=bool(payload["holds"]),
            text=str(payload["text"]),
        )


@dataclass
class ManifestDiff:
    """How a spec tree moved relative to its manifest.

    Attributes:
        unchanged: paths whose fingerprints (and parameters) match —
            replayable.
        changed: paths present in the manifest under a different
            fingerprint.
        added: paths the manifest has never seen.
        removed: manifest paths no longer present on disk.
        params_changed: the check parameters moved, so every
            present path was forced into ``changed``/``added``.
    """

    unchanged: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    params_changed: bool = False


class Manifest:
    """The fingerprint manifest of one spec tree.

    Args:
        path: the manifest file; read eagerly (missing, damaged, or
            schema-mismatched files start empty), written only on
            :meth:`save`.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._entries: Dict[str, ManifestEntry] = {}
        self._params: Dict[str, object] = {}
        self.stale = False
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            self.stale = True
            return
        if (
            not isinstance(raw, dict)
            or raw.get("v") != MANIFEST_SCHEMA_VERSION
            or not isinstance(raw.get("specs"), dict)
        ):
            self.stale = True
            return
        params = raw.get("params")
        self._params = dict(params) if isinstance(params, dict) else {}
        for key, payload in raw["specs"].items():
            if not isinstance(payload, dict):
                continue
            try:
                self._entries[str(key)] = ManifestEntry.from_payload(payload)
            except (KeyError, TypeError, ValueError):
                continue  # one bad entry costs one re-verify, nothing more

    @property
    def params(self) -> Mapping[str, object]:
        """The check parameters the stored verdicts were computed under."""
        return dict(self._params)

    def entry(self, key: str) -> Optional[ManifestEntry]:
        """The stored entry for ``key``, or ``None``."""
        return self._entries.get(key)

    def diff(
        self,
        fingerprints: Mapping[str, str],
        params: Mapping[str, object],
    ) -> ManifestDiff:
        """Classify every present path and spot removals.

        Args:
            fingerprints: fresh ``path -> fingerprint`` for every spec
                on disk, in report order.
            params: the verdict-relevant parameters of *this* run; when
                they differ from the stored ones every entry is
                invalidated (``params_changed``).
        """
        diff = ManifestDiff()
        stored_params = self._params
        diff.params_changed = bool(self._entries) and dict(params) != dict(
            stored_params
        )
        for key, fingerprint in fingerprints.items():
            entry = self._entries.get(key)
            if entry is None:
                diff.added.append(key)
            elif diff.params_changed or entry.fingerprint != fingerprint:
                diff.changed.append(key)
            else:
                diff.unchanged.append(key)
        diff.removed = sorted(
            key for key in self._entries if key not in fingerprints
        )
        return diff

    def store(
        self, key: str, entry: ManifestEntry, params: Mapping[str, object]
    ) -> None:
        """Record one verified spec (and pin the run parameters)."""
        self._entries[key] = entry
        self._params = dict(params)

    def remove(self, key: str) -> None:
        """Drop the entry of a spec that left the tree."""
        self._entries.pop(key, None)

    def save(self) -> None:
        """Persist atomically (temp file + rename)."""
        payload = {
            "v": MANIFEST_SCHEMA_VERSION,
            "params": self._params,
            "specs": {
                key: entry.to_payload()
                for key, entry in sorted(self._entries.items())
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(self.path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=1)
            os.replace(temp_name, self.path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return len(self._entries)
