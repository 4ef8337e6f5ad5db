"""Content-addressed object storage: blobs, trees, and commits.

The persistence layer of the experiment store.  Every artifact a run
produces — a ``telemetry.jsonl``, a wire ``*.capture.jsonl`` transcript,
a ``BENCH_*.json`` gate report, a bound-check summary — is stored once
as an immutable zlib-compressed **blob** addressed by the SHA-256 of its
content.  A **tree** groups the named blobs of one run (each entry also
records a *role* — ``telemetry`` / ``capture`` / ``bench`` / ``bounds``
— so consumers can find the artifact they need without guessing from
file names), and a **commit** binds a tree to its parent commits, a
message, and free-form metadata (experiment ids, kernel backend, bound
violations).

The encoding is git's: an object's identity is the SHA-256 of
``b"<kind> <size>\\0" + body``, and the object lives (compressed) at
``objects/<first two hex chars>/<rest>``.  Content addressing is what
makes the store verifiable — :mod:`repro.obs.store.fsck` re-hashes
every object and any bit flip changes the address — and deduplicating:
committing the same telemetry twice stores it once.

Trees and commits serialise as canonical JSON (sorted keys, sorted
entries) so that logically equal objects hash identically regardless of
construction order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ObsError

#: Object kinds the store understands.
OBJECT_KINDS = ("blob", "tree", "commit")

#: Roles a tree entry may carry; free-form strings are allowed but these
#: are the ones the diff/bisect layers know how to interpret.
KNOWN_ROLES = ("telemetry", "capture", "bench", "bounds", "artifact")


class StoreError(ObsError):
    """The experiment store was driven outside its contract
    (unknown object, corrupt content, invalid ref name, ...)."""


def encode_object(kind: str, body: bytes) -> bytes:
    """Git-style framing: ``b"<kind> <size>\\0" + body``."""
    if kind not in OBJECT_KINDS:
        raise StoreError(f"unknown object kind {kind!r}; expected one of {OBJECT_KINDS}")
    return f"{kind} {len(body)}\x00".encode("ascii") + body


def hash_object(kind: str, body: bytes) -> str:
    """The content address: SHA-256 hex of the framed encoding."""
    return hashlib.sha256(encode_object(kind, body)).hexdigest()


def decode_object(raw: bytes) -> Tuple[str, bytes]:
    """Split framed bytes back into ``(kind, body)``; validates the size."""
    try:
        header, body = raw.split(b"\x00", 1)
        kind_b, size_b = header.split(b" ", 1)
        kind = kind_b.decode("ascii")
        size = int(size_b)
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt object header: {exc}") from exc
    if kind not in OBJECT_KINDS:
        raise StoreError(f"corrupt object: unknown kind {kind!r}")
    if size != len(body):
        raise StoreError(
            f"corrupt object: header claims {size} bytes, body has {len(body)}"
        )
    return kind, body


def _canonical_json(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class TreeEntry:
    """One named artifact of a run: ``(name, blob oid, role)``."""

    name: str
    oid: str
    role: str = "artifact"


@dataclass(frozen=True)
class Tree:
    """A sorted collection of :class:`TreeEntry` — one run's artifacts."""

    entries: Tuple[TreeEntry, ...] = ()

    def encode(self) -> bytes:
        payload = {
            "entries": [
                {"name": e.name, "oid": e.oid, "role": e.role}
                for e in sorted(self.entries, key=lambda e: e.name)
            ]
        }
        return _canonical_json(payload)

    @staticmethod
    def decode(body: bytes) -> "Tree":
        try:
            payload = json.loads(body.decode("utf-8"))
            entries = tuple(
                TreeEntry(
                    name=str(e["name"]),
                    oid=str(e["oid"]),
                    role=str(e.get("role", "artifact")),
                )
                for e in payload["entries"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"corrupt tree object: {exc}") from exc
        return Tree(entries=entries)

    def by_name(self) -> Dict[str, TreeEntry]:
        return {e.name: e for e in self.entries}

    def by_role(self, role: str) -> List[TreeEntry]:
        """Entries carrying ``role``, sorted by name."""
        return sorted(
            (e for e in self.entries if e.role == role), key=lambda e: e.name
        )


@dataclass(frozen=True)
class Commit:
    """A tree bound to its history: parents, message, author, metadata."""

    tree: str
    parents: Tuple[str, ...] = ()
    message: str = ""
    author: str = "repro"
    timestamp: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def encode(self) -> bytes:
        payload = {
            "tree": self.tree,
            "parents": list(self.parents),
            "message": self.message,
            "author": self.author,
            "timestamp": self.timestamp,
            "meta": self.meta,
        }
        return _canonical_json(payload)

    @staticmethod
    def decode(body: bytes) -> "Commit":
        try:
            payload = json.loads(body.decode("utf-8"))
            return Commit(
                tree=str(payload["tree"]),
                parents=tuple(str(p) for p in payload.get("parents", [])),
                message=str(payload.get("message", "")),
                author=str(payload.get("author", "")),
                timestamp=float(payload.get("timestamp", 0.0)),
                meta=dict(payload.get("meta", {})),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"corrupt commit object: {exc}") from exc


class ObjectStore:
    """The on-disk object database under ``<root>/objects``.

    Writes are atomic (temp file + ``os.replace``) and idempotent: an
    object that already exists is never rewritten, so a crashed commit
    can be retried safely and identical artifacts deduplicate for free.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"

    # -- low-level object IO -------------------------------------------

    def path_for(self, oid: str) -> Path:
        return self.objects_dir / oid[:2] / oid[2:]

    def __contains__(self, oid: str) -> bool:
        return self.path_for(oid).exists()

    def write(self, kind: str, body: bytes) -> str:
        """Store one object; returns its content address."""
        encoded = encode_object(kind, body)
        oid = hashlib.sha256(encoded).hexdigest()
        path = self.path_for(oid)
        if path.exists():
            return oid
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(zlib.compress(encoded))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return oid

    def read(self, oid: str) -> Tuple[str, bytes]:
        """Load one object as ``(kind, body)``.

        Only the framing is validated here; byte-level integrity
        (address == hash of content) is :mod:`repro.obs.store.fsck`'s
        job, so reads stay cheap on the hot log/diff paths.
        """
        path = self.path_for(oid)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise StoreError(f"object {oid} does not exist") from None
        try:
            decompressed = zlib.decompress(raw)
        except zlib.error as exc:
            raise StoreError(f"object {oid} is unreadable: {exc}") from exc
        return decode_object(decompressed)

    def read_kind(self, oid: str, kind: str) -> bytes:
        actual, body = self.read(oid)
        if actual != kind:
            raise StoreError(f"object {oid} is a {actual}, expected a {kind}")
        return body

    # -- typed helpers --------------------------------------------------

    def write_blob(self, data: bytes) -> str:
        return self.write("blob", data)

    def write_tree(self, tree: Tree) -> str:
        return self.write("tree", tree.encode())

    def write_commit(self, commit: Commit) -> str:
        return self.write("commit", commit.encode())

    def read_blob(self, oid: str) -> bytes:
        return self.read_kind(oid, "blob")

    def read_tree(self, oid: str) -> Tree:
        return Tree.decode(self.read_kind(oid, "tree"))

    def read_commit(self, oid: str) -> Commit:
        return Commit.decode(self.read_kind(oid, "commit"))

    # -- enumeration and abbreviation -----------------------------------

    def iter_oids(self) -> Iterator[str]:
        """Every stored object id (lexicographic, so deterministic)."""
        if not self.objects_dir.exists():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir() or len(bucket.name) != 2:
                continue
            for entry in sorted(bucket.iterdir()):
                if not entry.name.startswith("."):
                    yield bucket.name + entry.name

    def resolve_prefix(self, prefix: str) -> Optional[str]:
        """The unique object id starting with ``prefix`` (>= 4 chars).

        Returns ``None`` when nothing matches; raises on ambiguity so a
        truncated hash can never silently pick the wrong run.
        """
        prefix = prefix.lower()
        if len(prefix) < 4 or any(c not in "0123456789abcdef" for c in prefix):
            return None
        if len(prefix) == 64:
            return prefix if prefix in self else None
        matches: List[str] = []
        if len(prefix) >= 2:
            bucket = self.objects_dir / prefix[:2]
            if bucket.exists():
                rest = prefix[2:]
                matches = [
                    prefix[:2] + entry.name
                    for entry in bucket.iterdir()
                    if entry.name.startswith(rest)
                ]
        else:
            matches = [oid for oid in self.iter_oids() if oid.startswith(prefix)]
        if not matches:
            return None
        if len(matches) > 1:
            raise StoreError(
                f"ambiguous object prefix {prefix!r} "
                f"({len(matches)} matches); use more characters"
            )
        return matches[0]


def tree_from_files(
    store: ObjectStore, files: Dict[str, Tuple[bytes, str]]
) -> str:
    """Blob every ``name -> (content, role)`` pair and write their tree."""
    entries = tuple(
        TreeEntry(name=name, oid=store.write_blob(content), role=role)
        for name, (content, role) in sorted(files.items())
    )
    return store.write_tree(Tree(entries=entries))


def short_oid(oid: str, length: int = 10) -> str:
    """Abbreviated display form of an object id."""
    return oid[:length]


__all__: Sequence[str] = [
    "Commit",
    "KNOWN_ROLES",
    "OBJECT_KINDS",
    "ObjectStore",
    "StoreError",
    "Tree",
    "TreeEntry",
    "decode_object",
    "encode_object",
    "hash_object",
    "short_oid",
    "tree_from_files",
]
