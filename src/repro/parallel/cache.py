"""The content-addressed verification cache.

A verification verdict is a pure function of (a) the checked
program(s) and (b) the checker parameters.  The cache exploits that:
verdicts are stored under a key derived from a *canonical program
fingerprint* plus the parameters, so

* re-checking an unchanged spec — across campaign cells, CLI
  invocations, and CI runs — is a single file read;
* reformatting a spec (whitespace, comments, re-ordered sugar) does
  **not** bust the cache: the fingerprint hashes the pretty-printed
  rendering of the *parsed* program, and the parser already discards
  comments and layout (see
  :func:`repro.gcl.pretty.render_program`);
* any semantic change (a guard, an effect, a domain, an init
  predicate) *does* change the rendering and therefore the key.

The worker count is deliberately **excluded** from the key: the
parallel and sequential paths return identical verdicts (that is the
package's core invariant), so they share cache entries.

Entries are JSON files written atomically (temp file + ``os.replace``)
under two-level fan-out directories, safe for concurrent writers —
the worst race is two processes computing the same verdict and one
rename winning, which is idempotent.

Every entry carries a SHA-256 digest of its payload.  A read whose
digest does not match (bit rot, a torn write that still parses, a
tampered file) is a *corrupt* entry: it counts ``cache.corrupt`` in
addition to the miss, and the caller recomputes and overwrites — a
wrong cached verdict can never be served.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from ..gcl.parser import parse_program
from ..gcl.pretty import render_program
from ..gcl.program import Program
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..resilience import chaos

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "canonical_program_text",
    "program_fingerprint",
    "cache_key",
    "check_cache_key",
    "payload_digest",
    "VerificationCache",
]

#: Bumped whenever the stored payload layout or the key derivation
#: changes; part of every key, so stale formats can never collide.
#: Version 2: fingerprints gained the engine-relevant semantics flags
#: (``keep_stutter``, fairness mode) — under version 1 two checks that
#: compiled the same program under different semantics could collide.
#: Version 3: entries gained the ``digest`` integrity field (SHA-256
#: over the canonical payload JSON); version-2 entries read as misses
#: and are rewritten on the next store.
CACHE_SCHEMA_VERSION = 3


def payload_digest(payload: Mapping[str, object]) -> str:
    """SHA-256 hex digest of a payload's canonical JSON rendering.

    The canonical form (sorted keys, compact separators) is what makes
    the digest stable across processes regardless of dict ordering.
    """
    material = json.dumps(
        dict(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def canonical_program_text(source: Union[str, Program]) -> str:
    """The canonical concrete syntax of a program.

    Args:
        source: either raw GCL text (parsed first, which drops
            comments and whitespace) or an already-parsed
            :class:`~repro.gcl.program.Program`.

    Returns:
        The pretty-printer's normalized rendering — the fixed point
        that all reformatting-equivalent sources share.
    """
    program = parse_program(source) if isinstance(source, str) else source
    return render_program(program)


def program_fingerprint(
    source: Union[str, Program],
    semantics: Optional[Mapping[str, object]] = None,
) -> str:
    """SHA-256 hex digest of a program's canonical text.

    Args:
        source: raw GCL text or a parsed program.
        semantics: the engine-relevant semantics flags the program is
            compiled/checked under (``keep_stutter``, the fairness
            mode, ...).  The same source under different semantics is
            a different transition system, so these must be part of
            the fingerprint; omitting the mapping fingerprints the
            bare source.  Keys are serialized canonically (sorted,
            compact JSON), so dict ordering never perturbs the digest.
    """
    text = canonical_program_text(source)
    if semantics:
        text += "\n\x00semantics=" + json.dumps(
            {key: semantics[key] for key in sorted(semantics)},
            sort_keys=True,
            separators=(",", ":"),
        )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(
    kind: str,
    fingerprints: Sequence[str],
    params: Mapping[str, object],
) -> str:
    """Derive the content address of one verification.

    Args:
        kind: what was checked (``"check"``, ``"refines"``,
            ``"campaign-check"``); namespaces the parameter space.
        fingerprints: the :func:`program_fingerprint` of every program
            involved, in role order (program, spec, ...).
        params: the verdict-relevant checker parameters (fairness,
            stuttering, relation, state budget...).  Worker counts and
            other execution-only knobs must NOT be included.

    Returns:
        A SHA-256 hex key, stable across processes and platforms.
    """
    material = json.dumps(
        {
            "v": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "fingerprints": list(fingerprints),
            "params": {key: params[key] for key in sorted(params)},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def check_cache_key(
    program: Program,
    spec: Optional[Program],
    *,
    fairness: str,
    stutter_insensitive: bool,
) -> str:
    """The key ``repro check PROGRAM [--spec SPEC]`` stores its verdict
    under; ``verify-tree`` keys each spec the same way, so the two
    commands share entries.

    The semantics flags are part of every fingerprint: the same source
    under a different daemon semantics or fairness mode is a different
    transition system.  The engine (like the worker count) is excluded,
    because verdicts are identical across engines.
    """
    # Stuttering moves are always compiled; the constant entry keeps
    # stored keys unchanged.
    semantics = {"keep_stutter": True, "fairness": fairness}
    fingerprints = [program_fingerprint(program, semantics=semantics)]
    if spec is not None:
        fingerprints.append(program_fingerprint(spec, semantics=semantics))
    return cache_key(
        "check",
        fingerprints,
        {
            "fairness": fairness,
            "stutter_insensitive": stutter_insensitive,
            "self": spec is None,
        },
    )


class VerificationCache:
    """A directory of content-addressed verification verdicts.

    Args:
        root: the cache directory (created lazily on first write).
        instrumentation: observability sink; every lookup counts
            ``cache.hit`` or ``cache.miss`` and every write counts
            ``cache.store``.

    Attributes:
        hits: lookups served from the cache in this process.
        misses: lookups that found nothing.
    """

    def __init__(
        self,
        root: Union[str, Path],
        instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    ):
        self.root = Path(root)
        self._instrumentation = instrumentation
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _miss(self, key: str, corrupt: Optional[str] = None) -> None:
        self.misses += 1
        self._instrumentation.count("cache.miss")
        if corrupt is not None:
            self._instrumentation.count("cache.corrupt")
            self._instrumentation.event(
                "cache.corrupt", key=key, reason=corrupt
            )

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or ``None``.

        A missing file is a plain miss.  A well-formed entry written
        under a *known older* schema (v1/v2) is drift, not damage: it
        counts ``cache.stale_schema`` (with the versions in the event)
        so upgrades and bit rot are distinguishable downstream.  A
        file that *exists* but does not validate — unparseable JSON,
        an unknown schema version, a key recorded under the wrong
        address, a payload whose digest does not match — additionally
        counts ``cache.corrupt`` (with a ``reason`` event).  Every
        case still reads as a miss, so the caller recomputes and the
        next :meth:`put` overwrites the old entry.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self._miss(key)
            return None
        except (OSError, ValueError):
            self._miss(key, corrupt="unreadable")
            return None
        if not isinstance(entry, dict):
            self._miss(key, corrupt="malformed")
            return None
        if entry.get("v") != CACHE_SCHEMA_VERSION:
            version = entry.get("v")
            if (
                version in (1, 2)
                and entry.get("key") == key
                and isinstance(entry.get("payload"), dict)
            ):
                # A well-formed entry from a known older schema: an
                # upgrade left it behind, nothing damaged it.  Distinct
                # from cache.corrupt so operators can tell drift from
                # damage.
                self.misses += 1
                self._instrumentation.count("cache.miss")
                self._instrumentation.count("cache.stale_schema")
                self._instrumentation.event(
                    "cache.stale_schema",
                    key=key,
                    found=version,
                    expected=CACHE_SCHEMA_VERSION,
                )
                return None
            self._miss(key, corrupt="schema-drift")
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict) or entry.get("key") != key:
            self._miss(key, corrupt="malformed")
            return None
        if entry.get("digest") != payload_digest(payload):
            self._miss(key, corrupt="digest-mismatch")
            return None
        self.hits += 1
        self._instrumentation.count("cache.hit")
        self._instrumentation.event("cache.hit", key=key)
        return dict(payload)

    def put(self, key: str, payload: Mapping[str, object]) -> None:
        """Store ``payload`` under ``key`` atomically.

        A concurrent writer of the same key is harmless: both compute
        the same verdict and ``os.replace`` is atomic.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stored = dict(payload)
        entry = {
            "v": CACHE_SCHEMA_VERSION,
            "key": key,
            "digest": payload_digest(stored),
            "payload": stored,
        }
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._instrumentation.count("cache.store")
        if chaos.active_plan() is not None:
            chaos.cache_stored(path)

    def __len__(self) -> int:
        """Number of entries currently stored on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
