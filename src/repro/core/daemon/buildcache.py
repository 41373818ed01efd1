"""Daemon-side content-addressed program build cache (pocl-style).

Every daemon owns one :class:`ProgramBuildCache`, keyed by ``(sha256
source digest, build options)`` — see
:func:`repro.clc.driver.program_digest`.  Because the key is the
*content* of the translation unit, entries are safely shared across
contexts, clients and tenants: two applications submitting the same
dozen kernels pay for one compile per cluster, not one per
(daemon, context).

Two entry kinds live in the cache:

* **binary** — a successful build: the in-memory
  :class:`~repro.clc.driver.CompiledProgram` plus its serialized blob
  (:func:`repro.clc.driver.serialize_program`), which is what ships to
  sibling daemons and what ``clGetProgramInfo(CL_PROGRAM_BINARIES)``
  returns;
* **negative** — a failed build: the deterministic compiler's build log
  and error, replayed verbatim so a cached failure is bit-identical to
  a fresh one (same ``CL_BUILD_PROGRAM_FAILURE``, same log).

Only the pipeline's ``BuildProgramCachedRequest`` reads or fills the
cache (plus ``clCreateProgramWithBinary``'s install); the reference
path's ``BuildProgramRequest`` compiles every time.  Program creation
always carries the source, so an eviction only ever costs a compile.

The cache is bounded (LRU, :data:`DEFAULT_CAPACITY` entries) with an
``evictions`` counter; lifetimes are independent of program objects, so
``clReleaseProgram`` of the last reference never invalidates an entry
another tenant is using.  A daemon :meth:`~repro.core.daemon.daemon.
Daemon.crash` drops the whole cache with the rest of the volatile
state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clc.driver import (
    CompiledProgram,
    deserialize_program,
    program_digest,
    serialize_program,
)

#: Default LRU capacity (distinct ``(digest, options)`` build outcomes
#: retained per daemon).  Far above any bench/conformance working set;
#: the bound exists so a hostile tenant cycling unique sources cannot
#: grow daemon memory without limit.
DEFAULT_CAPACITY = 64


@dataclass
class BuildCacheEntry:
    """One cached build outcome (see module docstring for the kinds)."""

    digest: str
    options: str
    kind: str  # "binary" | "negative"
    source: str
    compiled: Optional[CompiledProgram] = field(repr=False, default=None)
    blob: bytes = field(repr=False, default=b"")
    log: str = ""
    error: int = 0
    detail: str = ""
    hits: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        """The cache key: ``(source digest, build options)``."""
        return (self.digest, self.options)

    @property
    def nbytes(self) -> int:
        """Shipping size of the entry: the binary blob for successful
        builds, the diagnostic payload for negative ones."""
        if self.kind == "binary":
            return len(self.blob)
        return len(self.source) + len(self.log) + len(self.detail)


class ProgramBuildCache:
    """Bounded LRU of build outcomes keyed by ``(digest, options)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(int(capacity), 1)
        self._entries: "OrderedDict[Tuple[str, str], BuildCacheEntry]" = OrderedDict()
        #: Entries discarded to respect ``capacity`` (monotonic).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._entries

    def lookup(self, digest: str, options: str) -> Optional[BuildCacheEntry]:
        """The cached outcome for ``(digest, options)``, LRU-touched;
        ``None`` on a miss."""
        entry = self._entries.get((digest, options))
        if entry is not None:
            self._entries.move_to_end((digest, options))
            entry.hits += 1
        return entry

    def store_success(self, compiled: CompiledProgram) -> BuildCacheEntry:
        """Cache a successful build (serializing its shippable blob);
        returns the (possibly pre-existing) entry."""
        digest = program_digest(compiled.source)
        existing = self._entries.get((digest, compiled.options))
        if existing is not None and existing.kind == "binary":
            self._entries.move_to_end(existing.key)
            return existing
        entry = BuildCacheEntry(
            digest=digest,
            options=compiled.options,
            kind="binary",
            source=compiled.source,
            compiled=compiled,
            blob=serialize_program(compiled),
        )
        self._put(entry)
        return entry

    def store_failure(
        self, source: str, options: str, log: str, error: int, detail: str = ""
    ) -> BuildCacheEntry:
        """Negatively cache a failed build: replays answer the same
        error and build log without re-running the compiler."""
        digest = program_digest(source)
        existing = self._entries.get((digest, options))
        if existing is not None:
            self._entries.move_to_end(existing.key)
            return existing
        entry = BuildCacheEntry(
            digest=digest,
            options=options,
            kind="negative",
            source=source,
            log=log,
            error=int(error),
            detail=detail,
        )
        self._put(entry)
        return entry

    def install_binary(self, blob: bytes) -> Tuple[BuildCacheEntry, bool]:
        """Install a serialized program shipped from a sibling daemon
        (or handed in via ``clCreateProgramWithBinary``); returns
        ``(entry, installed)`` — ``installed`` is ``False`` when the
        key was already cached (the blob is not re-deserialized)."""
        compiled = deserialize_program(blob)
        digest = program_digest(compiled.source)
        existing = self._entries.get((digest, compiled.options))
        if existing is not None and existing.kind == "binary":
            self._entries.move_to_end(existing.key)
            return existing, False
        entry = BuildCacheEntry(
            digest=digest,
            options=compiled.options,
            kind="binary",
            source=compiled.source,
            compiled=compiled,
            blob=bytes(blob),
        )
        self._put(entry)
        return entry, True

    def install_entry(self, entry: BuildCacheEntry) -> bool:
        """Adopt a sibling daemon's cache entry as-is (the direct
        server-to-server install path — negative entries ship too, so a
        failing source is also compiled once per cluster); returns
        ``False`` when the key is already cached."""
        if entry.key in self._entries:
            self._entries.move_to_end(entry.key)
            return False
        self._put(
            BuildCacheEntry(
                digest=entry.digest,
                options=entry.options,
                kind=entry.kind,
                source=entry.source,
                compiled=entry.compiled,
                blob=entry.blob,
                log=entry.log,
                error=entry.error,
                detail=entry.detail,
            )
        )
        return True

    def entries(self) -> List[BuildCacheEntry]:
        """Current entries, least- to most-recently used (introspection
        for ``repro.tools.cachestat`` and tests)."""
        return list(self._entries.values())

    def _put(self, entry: BuildCacheEntry) -> None:
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgramBuildCache {len(self)}/{self.capacity} evictions={self.evictions}>"
