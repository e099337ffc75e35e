"""Content-addressed on-disk cache for simulation results.

A cached entry is keyed by a stable digest of one campaign unit's full
config — any type registered in
:data:`~repro.experiments.parallel.UNITS` (every field, recursively
encoded by :func:`encode_value`, the same form replay bundles store),
including the seed baked into that config — and a *code-version
token*, a hash over the ``repro`` package's source files.  Any edit to
the simulator therefore invalidates every cached point automatically;
there is no manual versioning to forget.

The store layout is ``<root>/<aa>/<digest>.pkl`` (two-level fan-out so
directories stay small).  Writes are atomic (tmp file + ``os.replace``)
so a crashed or parallel run can never leave a torn entry.  The cache
stores only a unit's lightweight summary, never live simulation
objects: a Fig. 2 scenario's
:class:`~repro.experiments.parallel.RunSummary`, and each study's own
result dataclass (what its topology's ``simulate`` returns).

Default location: ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/repro-tcp-wireless``.  ``repro sweep``/``repro figure``
use it unless ``--no-cache`` is passed; library calls only cache when
handed a :class:`ResultCache` explicitly.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

#: Bump when the cached payload format changes incompatibly.
CACHE_FORMAT = 1

#: A ``*.tmp`` file older than this (seconds) is an orphan from a
#: writer that died mid-``put`` — safe to sweep.  Younger ones may
#: belong to a live concurrent writer and are left alone.
STALE_TMP_AGE = 3600.0

_code_version_token: Optional[str] = None


def source_files(package_root: Path) -> list:
    """Every ``.py`` file under ``package_root``, in digest order.

    Exposed so tests can assert which files participate in the code
    fingerprint (e.g. that ``validate/`` edits invalidate the cache).
    """
    return sorted(package_root.rglob("*.py"))


def _hash_tree(package_root: Path) -> str:
    digest = hashlib.sha256()
    for source in source_files(package_root):
        digest.update(str(source.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(source.read_bytes())
    return digest.hexdigest()[:16]


def code_version_token(package_root: Optional[Path] = None) -> str:
    """Hash of every ``repro`` source file (the cache's code fingerprint).

    With no argument, hashes the installed ``repro`` package and caches
    the result for the process (some 70 small files, a few milliseconds on
    first use — noise next to a single simulated run).  An explicit
    ``package_root`` is hashed fresh every call; tests use this to
    check invalidation behaviour against a scratch tree.
    """
    if package_root is not None:
        return _hash_tree(Path(package_root))
    global _code_version_token
    if _code_version_token is None:
        import repro

        _code_version_token = _hash_tree(Path(repro.__file__).resolve().parent)
    return _code_version_token


def qualify(cls: type) -> str:
    """``cls``'s import path, ``"module:qualname"``."""
    return f"{cls.__module__}:{cls.__qualname__}"


def resolve(path: str) -> Any:
    """The object at a :func:`qualify` path, importing its module."""
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def encode_value(value: Any) -> Any:
    """Encode ``value`` to a JSON-serializable, decodable form.

    Dataclasses, enums and classes carry their import path; floats stay
    floats, which JSON writes with ``repr`` precision.  The digest hashes
    this form and replay bundles store it.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": qualify(type(value)),
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": qualify(type(value)), "name": value.name}
    if isinstance(value, type):
        return {"__class__": qualify(value)}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__qualname__}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`.

    A dataclass field the code no longer has raises ``ValueError``.
    """
    if isinstance(value, dict):
        if "__dataclass__" in value:
            cls = resolve(value["__dataclass__"])
            fields = {k: decode_value(v) for k, v in value["fields"].items()}
            unknown = fields.keys() - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(
                    f"{cls.__qualname__} has no field {', '.join(sorted(unknown))}"
                )
            return cls(**fields)
        if "__enum__" in value:
            return getattr(resolve(value["__enum__"]), value["name"])
        if "__class__" in value:
            return resolve(value["__class__"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def config_digest(config: Any, code_token: Optional[str] = None) -> str:
    """Stable content digest for one fully-seeded campaign unit's config."""
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "code": code_token if code_token is not None else code_version_token(),
            "config": encode_value(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_dir() -> Path:
    """Where ``repro`` caches results unless told otherwise."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tcp-wireless"


class ResultCache:
    """Content-addressed pickle store for campaign unit summaries: a
    :class:`~repro.experiments.parallel.RunSummary` or a study's result."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        # One token per cache handle: stable within a run, recomputed
        # per process so code edits are always picked up.
        self._code_token = code_version_token()
        self.sweep_stale_tmp()

    def sweep_stale_tmp(self, max_age: float = STALE_TMP_AGE) -> int:
        """Remove orphaned ``*.tmp`` files left by writers that died
        mid-``put``; returns the number removed.

        Only files older than ``max_age`` seconds go — a young tmp file
        may belong to a live writer about to ``os.replace`` it.  Runs
        opportunistically on every cache open, so a crashed campaign
        never accumulates droppings.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - max_age
        for orphan in self.root.glob("*/*.tmp"):
            try:
                if orphan.stat().st_mtime < cutoff:
                    orphan.unlink()
                    removed += 1
            except OSError:
                # Swept by a concurrent opener, or permissions — the
                # sweep is best-effort either way.
                continue
        return removed

    def key(self, config: Any) -> str:
        """Digest for ``config`` under the current code version."""
        return config_digest(config, self._code_token)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Load a cached summary, or ``None`` on miss/corruption."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("format") != CACHE_FORMAT:
            self.misses += 1
            return None
        self.hits += 1
        return entry["summary"]

    def put(self, key: str, summary: Any) -> None:
        """Atomically persist one summary under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {"format": CACHE_FORMAT, "summary": summary},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed
