from __future__ import annotations

import hashlib
import random

import pytest

from repotailor.identity import (
    AuthorIdentity,
    load_overrides,
    normalize_name,
    resolve_identities,
    top_contributors,
)


def test_same_email_merges():
    identities = resolve_identities([("Alice B", "a@x.com", 5), ("alice b", "a@x.com", 7)])
    assert len(identities) == 1
    assert identities[0].added_lines_total == 12
    assert identities[0].aliases == (("Alice B", "a@x.com"), ("alice b", "a@x.com"))


def test_long_local_part_merges():
    identities = resolve_identities([
        ("Bob", "bob.smith@a.com", 1),
        ("Robert", "bob.smith@b.org", 2),
    ])
    assert len(identities) == 1


def test_short_local_part_does_not_merge():
    identities = resolve_identities([("Dev One", "dev@a.com", 1), ("Dev Two", "dev@b.org", 2)])
    assert len(identities) == 2


def test_distinct_authors_stay_apart():
    identities = resolve_identities([("Ann", "ann@a.com", 10), ("Zed", "zed@b.com", 20)])
    assert len(identities) == 2
    assert sorted(i.added_lines_total for i in identities) == [10, 20]


def test_normalized_name_merges():
    identities = resolve_identities([
        ("José Álvarez", "jose@work.com", 3),
        ("alvarez, jose", "j@home.net", 4),
    ])
    assert len(identities) == 1


def test_normalize_name():
    assert normalize_name("José Álvarez") == "alvarez jose"
    assert normalize_name("O'Brien, Pat") == "brien o pat"


def test_merge_transitivity():
    # a~b by email, b~c by normalized name -> one identity
    identities = resolve_identities([
        ("Ann Lee", "ann.lee@a.com", 1),
        ("A. Person", "ann.lee@b.com", 1),
        ("person a", "other@c.com", 1),
    ])
    assert len(identities) == 1


def test_permutation_invariance_and_sum_preservation():
    rng = random.Random(11)
    rows = []
    for i in range(40):
        name = rng.choice(["Ann Lee", "ann lee", "Bob Ray", "Cara", f"Dev {i}"])
        email = rng.choice(["ann.lee@a.com", "bob.ray@b.com", "c@c.com", f"d{i}@d.com"])
        rows.append((name, email, rng.randint(0, 50)))
    base = resolve_identities(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert resolve_identities(shuffled) == base
    assert sum(i.added_lines_total for i in base) == sum(r[2] for r in rows)


def test_stable_author_ids_across_runs():
    rows = [("Ann", "ann.long@a.com", 1), ("Bob", "bob.long@b.com", 2)]
    first = resolve_identities(rows)
    second = resolve_identities(list(rows))
    assert [i.author_id for i in first] == [i.author_id for i in second]


def test_overrides_split_and_force(tmp_path):
    # heuristics would merge these (same email); overrides force a split
    path = tmp_path / "overrides.jsonl"
    path.write_text(
        '{"name": "Shared", "email": "team@x.com", "author_id": "person-one"}\n'
        '{"name": "Other Shared", "email": "team@x.com", "author_id": "person-two"}\n',
        encoding="utf-8",
    )
    overrides, sha256 = load_overrides(path)
    assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    identities = resolve_identities(
        [("Shared", "team@x.com", 3), ("Other Shared", "team@x.com", 4)],
        overrides,
    )
    assert {i.author_id for i in identities} == {"person-one", "person-two"}


def test_overrides_merge_distinct_aliases():
    overrides = {
        ("A", "a1@x.com"): "the-dev",
        ("B", "b2@y.com"): "the-dev",
    }
    identities = resolve_identities([("A", "a1@x.com", 1), ("B", "b2@y.com", 2)], overrides)
    assert len(identities) == 1
    assert identities[0].author_id == "the-dev"
    assert identities[0].added_lines_total == 3


def make_identity(author_id: str, total: int) -> AuthorIdentity:
    return AuthorIdentity(author_id, ((author_id, f"{author_id}@x.com"),), total)


def test_top_contributors_ranking():
    identities = [make_identity("a", 5), make_identity("b", 9), make_identity("c", 1)]
    top = top_contributors(identities, 2)
    assert [i.added_lines_total for i in top] == [9, 5]


def test_top_contributors_k_larger_than_list():
    identities = [make_identity("a", 5)]
    assert top_contributors(identities, 10) == identities


def test_top_contributors_tie_breaks_by_id():
    identities = [make_identity("zz", 5), make_identity("aa", 5)]
    assert [i.author_id for i in top_contributors(identities, 2)] == ["aa", "zz"]


def test_top_contributors_rejects_bad_k():
    with pytest.raises(ValueError):
        top_contributors([], 0)
