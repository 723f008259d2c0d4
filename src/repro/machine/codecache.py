"""Persistent on-disk cache for generated trace code.

Trace compilation (:mod:`repro.machine.trace`) is the expensive part of
a cold start: source generation plus ``compile()`` for every hot chain.
Both are pure functions of the chain's instruction content, the code
layout addresses, the config constants baked into source, and the probe
fingerprint of the attached runtimes — so a content-addressed disk
cache lets a *new process* skip codegen entirely and go straight to
``exec``-ing the marshalled code object ("warm start").

Keys are hex SHA-256 digests computed by the trace compiler over:

* ``sys.implementation.cache_tag`` (marshalled code objects are only
  valid for the interpreter that produced them);
* :data:`repro.machine.trace.GENERATOR_DIGEST`, a digest of the block
  and trace generators' sources (code is only valid for the generator
  that wrote it: its maker signature and emitted bodies);
* :func:`repro.machine.engine._config_key` — the config constants that
  appear as literals in generated source;
* per chain block: function name, block name, the instruction reprs
  (dataclass reprs are complete and stable), the laid-out addresses,
  and the block's :func:`repro.machine.engine._probe_key` fingerprint;
* ``max_instructions`` (the trace back-edge bakes the budget in).

Note what the key deliberately is *not*: ``Block.edit_gen``.  Edit
generations order edits within one process; across processes the same
program must hit the same entry, so the disk key hashes the instruction
*content* that the generation guards in memory.

Entries are two files, ``<key>.py`` (the source, for debugging) and
``<key>.bin`` (``marshal`` of the code object), plus an ``index.json``
holding sizes and a logical LRU clock.  The cache is bounded: when
either the entry cap or the byte cap is exceeded, least-recently-used
entries are evicted.  Every disk operation is best-effort — a corrupt
index, an unwritable directory, or a torn entry degrades to a cache
miss, never to an execution failure — and writes go through
same-directory temp files with atomic renames so concurrent shard
workers can share one cache.

The default location is ``$XDG_CACHE_HOME/repro/codecache`` (falling
back to ``~/.cache``); ``REPRO_CODE_CACHE`` overrides it with a path,
or disables caching entirely when set to ``0``/``off``/``none``/empty.
"""

from __future__ import annotations

import json
import marshal
import os
import tempfile
from typing import Dict, Optional, Tuple

#: Default bounds; both overridable through the environment so bench
#: and CI jobs can pin them.
MAX_ENTRIES = 512
MAX_BYTES = 32 * 1024 * 1024

_INDEX_VERSION = 1


def default_cache_dir() -> Optional[str]:
    """The resolved cache directory, or ``None`` when caching is off."""
    override = os.environ.get("REPRO_CODE_CACHE")
    if override is not None:
        if override.strip().lower() in ("", "0", "off", "none", "disabled"):
            return None
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "codecache")


def default_cache() -> Optional["CodeCache"]:
    """A :class:`CodeCache` at the default location (``None`` if off)."""
    directory = default_cache_dir()
    if directory is None:
        return None
    return CodeCache(directory)


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


class CodeCache:
    """A bounded, content-addressed store of compiled code objects."""

    def __init__(
        self,
        directory: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.directory = directory
        self.max_entries = (
            max_entries
            if max_entries is not None
            else _env_int("REPRO_CODE_CACHE_MAX_ENTRIES", MAX_ENTRIES)
        )
        self.max_bytes = (
            max_bytes
            if max_bytes is not None
            else _env_int("REPRO_CODE_CACHE_MAX_BYTES", MAX_BYTES)
        )

    # -- index ----------------------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.directory, "index.json")

    def _load_index(self) -> Dict:
        try:
            with open(self._index_path()) as handle:
                index = json.load(handle)
        except (OSError, ValueError):
            return {"version": _INDEX_VERSION, "clock": 0, "entries": {}}
        if (
            not isinstance(index, dict)
            or index.get("version") != _INDEX_VERSION
            or not isinstance(index.get("entries"), dict)
        ):
            return {"version": _INDEX_VERSION, "clock": 0, "entries": {}}
        return index

    def _save_index(self, index: Dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(index, handle, sort_keys=True)
            os.replace(tmp, self._index_path())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- entries --------------------------------------------------------------

    def _paths(self, key: str) -> Tuple[str, str]:
        return (
            os.path.join(self.directory, f"{key}.py"),
            os.path.join(self.directory, f"{key}.bin"),
        )

    def get(self, key: str):
        """The cached code object for ``key``, or ``None`` on any miss."""
        _src, binpath = self._paths(key)
        try:
            with open(binpath, "rb") as handle:
                code = marshal.loads(handle.read())
        except (OSError, ValueError, EOFError, TypeError):
            return None
        # Touch the LRU clock; losing a race here only skews eviction
        # order, never correctness.
        try:
            index = self._load_index()
            entry = index["entries"].get(key)
            if entry is not None:
                index["clock"] += 1
                entry["used"] = index["clock"]
                self._save_index(index)
        except OSError:
            pass
        return code

    def put(self, key: str, source: str, code) -> None:
        """Store one generated trace; evict LRU entries past the caps."""
        try:
            os.makedirs(self.directory, exist_ok=True)
            srcpath, binpath = self._paths(key)
            payload = marshal.dumps(code)
            for path, data, mode in (
                (srcpath, source, "w"),
                (binpath, payload, "wb"),
            ):
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
                with os.fdopen(fd, mode) as handle:
                    handle.write(data)
                os.replace(tmp, path)
            index = self._load_index()
            index["clock"] += 1
            index["entries"][key] = {
                "size": len(payload) + len(source),
                "used": index["clock"],
            }
            self._evict(index)
            self._save_index(index)
        except OSError:
            return

    def _evict(self, index: Dict) -> None:
        entries = index["entries"]
        total = sum(e.get("size", 0) for e in entries.values())
        by_age = sorted(entries, key=lambda k: entries[k].get("used", 0))
        for key in by_age:
            if len(entries) <= self.max_entries and total <= self.max_bytes:
                break
            total -= entries[key].get("size", 0)
            del entries[key]
            for path in self._paths(key):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> Dict:
        """Entry count, byte total and configured caps (for the CLI)."""
        index = self._load_index()
        entries = index["entries"]
        return {
            "directory": self.directory,
            "entries": len(entries),
            "bytes": sum(e.get("size", 0) for e in entries.values()),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Remove every cache entry; returns how many were dropped."""
        index = self._load_index()
        removed = len(index["entries"])
        try:
            names = os.listdir(self.directory)
        except OSError:
            names = []
        for name in names:
            if name.endswith((".py", ".bin", ".tmp")) or name == "index.json":
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        return removed


__all__ = [
    "CodeCache",
    "MAX_BYTES",
    "MAX_ENTRIES",
    "default_cache",
    "default_cache_dir",
]
