"""Merge commit author aliases into stable identities.

Union-find over (name, email) pairs with three merge rules: identical
email, identical email local-part of length >= 5, identical normalized
name. An optional override file pins raw authors to forced identities
and exempts them from heuristic merging, standing in for a manual
review pass.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .storage import typed

MIN_LOCAL_PART_LEN = 5


@dataclass(frozen=True, slots=True)
class AuthorIdentity:
    author_id: str
    aliases: tuple[tuple[str, str], ...]  # sorted (name, email) pairs
    added_lines_total: int

    def to_record(self) -> dict:
        return {
            "author_id": self.author_id,
            "aliases": [list(a) for a in self.aliases],
            "added_lines": self.added_lines_total,
        }


def normalize_name(name: str) -> str:
    """Lowercase, strip diacritics and punctuation, sort the tokens."""
    decomposed = unicodedata.normalize("NFKD", name.lower())
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    cleaned = "".join(c if c.isalnum() else " " for c in stripped)
    return " ".join(sorted(cleaned.split()))


def _local_part(email: str) -> str | None:
    if "@" not in email:
        return None
    local = email.split("@", 1)[0].strip().lower()
    return local or None


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _identity_hash(aliases: tuple[tuple[str, str], ...]) -> str:
    h = hashlib.sha256()
    for name, email in aliases:
        h.update(name.encode("utf-8"))
        h.update(b"\x1f")
        h.update(email.encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def resolve_identities(
    raw_authors: list[tuple[str, str, int]],
    overrides: dict[tuple[str, str], str] | None = None,
) -> list[AuthorIdentity]:
    """Merge raw (name, email, added_line_count) rows into identities.

    Deterministic and invariant under permutation of the input; the sum
    of added-line totals is preserved.
    """
    overrides = overrides or {}

    counts: dict[tuple[str, str], int] = {}
    for name, email, added in raw_authors:
        key = (name, email)
        counts[key] = counts.get(key, 0) + added
    keys = sorted(counts)

    uf = _UnionFind(len(keys))
    by_email: dict[str, int] = {}
    by_local: dict[str, int] = {}
    by_name: dict[str, int] = {}
    forced_groups: dict[str, list[int]] = {}

    for i, (name, email) in enumerate(keys):
        forced = overrides.get((name, email))
        if forced is not None:
            forced_groups.setdefault(forced, []).append(i)
            continue
        email_key = email.strip().lower()
        if email_key:
            if email_key in by_email:
                uf.union(i, by_email[email_key])
            else:
                by_email[email_key] = i
        local = _local_part(email)
        if local is not None and len(local) >= MIN_LOCAL_PART_LEN:
            if local in by_local:
                uf.union(i, by_local[local])
            else:
                by_local[local] = i
        name_key = normalize_name(name)
        if name_key:
            if name_key in by_name:
                uf.union(i, by_name[name_key])
            else:
                by_name[name_key] = i

    for members in forced_groups.values():
        for other in members[1:]:
            uf.union(members[0], other)

    groups: dict[int, list[int]] = {}
    for i in range(len(keys)):
        groups.setdefault(uf.find(i), []).append(i)

    forced_by_root = {uf.find(members[0]): forced for forced, members in forced_groups.items()}

    identities = []
    for root, members in groups.items():
        aliases = tuple(sorted(keys[i] for i in members))
        total = sum(counts[keys[i]] for i in members)
        author_id = forced_by_root.get(root) or _identity_hash(aliases)
        identities.append(AuthorIdentity(author_id, aliases, total))
    identities.sort(key=lambda ident: ident.author_id)
    return identities


def top_contributors(identities: list[AuthorIdentity], k: int) -> list[AuthorIdentity]:
    """The k identities with the most added lines; ties by author_id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(identities, key=lambda ident: (-ident.added_lines_total, ident.author_id))
    return ranked[:k]


def load_overrides(path: str | Path) -> tuple[dict[tuple[str, str], str], str]:
    """Read a JSONL override file of {name, email, author_id} string rows
    into overrides, with the sha256 of the bytes they were parsed from;
    an unreadable file or a malformed row is a ConfigError."""
    try:
        data = Path(path).read_bytes()
        rows = map(json.loads, filter(str.strip, data.decode("utf-8").split("\n")))
        overrides = {(typed(r["name"], str), typed(r["email"], str)): typed(r["author_id"], str) for r in rows}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read identity overrides {path}: {exc!r}") from exc
    return overrides, hashlib.sha256(data).hexdigest()
