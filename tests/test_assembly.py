from __future__ import annotations

import random
from collections import Counter

import pytest

from repotailor.assembly import (
    ROLE_BASELINE_PLUS,
    ROLE_DEVELOPER,
    ROLE_GENERIC_FINETUNE,
    ROLE_ORG_SUBSET,
    ROLE_ORGANIZATION,
    ROLE_PRETRAIN,
    Dataset,
    DatasetManifest,
    audit_temporal_leak,
    build_baseline_plus,
    build_datasets,
    build_org_dataset,
    build_org_subset,
    build_unanchored,
    cap_methods_per_repo,
    dedup,
    developer_dataset,
    eligible,
    mlm_pretrain_instances,
    normalize_for_dedup,
    split_developer,
)
from repotailor.config import Caps
from repotailor.errors import AnchorIneligible, TargetTooLarge, TooFewInstances

from conftest import BASE_TS, _method_source, make_instance, method_of
from oracles import reference_dedup


def series(author: str, count: int, start: int = 0, step: int = 10):
    return [
        make_instance(author, ts=BASE_TS + start + i * step, tag=str(i))
        for i in range(count)
    ]


def test_split_arithmetic_5500():
    split = split_developer(series("d", 5500))
    assert (len(split.train), len(split.val), len(split.test)) == (4500, 500, 500)


def test_split_arithmetic_1501():
    split = split_developer(series("d", 1501))
    assert (len(split.train), len(split.val), len(split.test)) == (900, 101, 500)


def test_split_too_few():
    with pytest.raises(TooFewInstances):
        split_developer(series("d", 500))
    split = split_developer(series("d", 501))
    assert (len(split.train), len(split.val), len(split.test)) == (0, 1, 500)


def test_split_is_time_ordered():
    split = split_developer(series("d", 700))
    max_train = max(i.timestamp for i in split.train)
    assert max_train <= min(i.timestamp for i in split.val)
    assert max(i.timestamp for i in split.val) <= min(i.timestamp for i in split.test)


def test_split_dedups_train_against_holdout():
    instances = series("d", 700)
    # duplicate a test-era instance's content into the training era
    clone_src = instances[-1]
    instances[0] = make_instance(
        "d", ts=instances[0].timestamp, tag="dup",
        context=clone_src.context, target=clone_src.target,
    )
    split = split_developer(instances)
    assert len(split.train) == 179  # one dropped from floor(0.9 * 200) = 180
    keys = {(i.context, i.target) for i in split.val + split.test}
    assert all((i.context, i.target) not in keys for i in split.train)


def test_split_dedup_is_whitespace_insensitive():
    instances = series("d", 700)
    clone_src = instances[-1]
    instances[0] = make_instance(
        "d", ts=instances[0].timestamp, tag="dup",
        context="  " + " ".join(clone_src.context.split()) + "\n",
        target=clone_src.target,
    )
    split = split_developer(instances)
    assert len(split.train) == 179


def test_eligibility_boundary():
    ok = split_developer(series("d", 1612))  # floor(0.9*1112) = 1000
    assert len(ok.train) == 1000
    assert eligible(ok)
    short = split_developer(series("d", 1611))  # 999 train
    assert len(short.train) == 999
    assert not eligible(short)


def test_eligibility_fails_when_dedup_drops_train():
    instances = series("d", 1612)
    clone_src = instances[-1]
    instances[0] = make_instance(
        "d", ts=instances[0].timestamp, tag="dup",
        context=clone_src.context, target=clone_src.target,
    )
    split = split_developer(instances)
    assert len(split.train) == 999
    assert not eligible(split)


def org_fixture():
    anchor = series("anchor", 40, start=0)
    other = series("other", 30, start=5)
    return {"anchor": anchor, "other": other}


def test_org_cutoff_includes_older_excludes_newer():
    dev_instances = {
        "anchor": series("anchor", 30, start=0, step=10),  # train ends at some ts
        "other": [
            make_instance("other", ts=BASE_TS + 90, tag="old"),
            make_instance("other", ts=BASE_TS + 10_000, tag="new"),
        ],
    }
    split = split_developer(dev_instances["anchor"], test_size=5)
    org = build_org_dataset(dev_instances, "anchor", split, seed=1, test_size=5, min_train=10)
    ids = {i.instance_id for i in org.train + org.val}
    assert "other-old" in ids
    assert "other-new" not in ids


def test_org_anchor_only_covers_anchor_train():
    dev_instances = {"anchor": series("anchor", 40)}
    split = split_developer(dev_instances["anchor"], test_size=5)
    org = build_org_dataset(dev_instances, "anchor", split, seed=1, test_size=5, min_train=10)
    org_keys = {i.instance_id for i in org.train + org.val}
    assert {i.instance_id for i in split.train} <= org_keys


def test_org_removes_anchor_holdout_duplicates():
    anchor = series("anchor", 40)
    split = split_developer(anchor, test_size=5)
    dup_of_test = make_instance(
        "other", ts=split.test[0].timestamp - 1000, tag="dup",
        context=split.test[0].context, target=split.test[0].target,
    )
    dev_instances = {"anchor": anchor, "other": [dup_of_test]}
    org = build_org_dataset(dev_instances, "anchor", split, seed=1, test_size=5, min_train=10)
    assert "other-dup" not in {i.instance_id for i in org.train + org.val}


def test_org_timestamp_tie_excluded():
    anchor = series("anchor", 40)
    split = split_developer(anchor, test_size=5)
    cutoff = max(i.timestamp for i in split.train)
    first_holdout = min(i.timestamp for i in list(split.val) + list(split.test))
    # force a tie: another developer committed exactly at the holdout boundary
    tied = make_instance("other", ts=first_holdout, tag="tied")
    dev_instances = {"anchor": anchor, "other": [tied]}
    org = build_org_dataset(dev_instances, "anchor", split, seed=1, test_size=5, min_train=10)
    assert cutoff < first_holdout  # sanity for this fixture
    assert "other-tied" not in {i.instance_id for i in org.train + org.val}
    assert audit_temporal_leak([developer_dataset("anchor", split, 1), org], 5, 10) == []


def test_org_cutoff_steps_back_on_anchor_boundary_tie():
    # paired timestamps force the anchor's last train ts to equal the
    # first holdout ts; the cutoff must step below the tie
    anchor = [
        make_instance("anchor", ts=BASE_TS + (i // 2) * 10, tag=str(i)) for i in range(40)
    ]
    split = split_developer(anchor, test_size=5)
    max_train = max(i.timestamp for i in split.train)
    min_holdout = min(i.timestamp for i in list(split.val) + list(split.test))
    assert max_train == min_holdout  # fixture really does tie
    other = [make_instance("other", ts=max_train, tag="attie")]
    org = build_org_dataset({"anchor": anchor, "other": other}, "anchor", split, seed=1, test_size=5, min_train=10)
    assert org.manifest.cutoff_ts < min_holdout
    ids = {i.instance_id for i in org.train + org.val}
    assert "other-attie" not in ids
    assert audit_temporal_leak([developer_dataset("anchor", split, 1), org], 5, 10) == []


def test_org_anchor_must_be_eligible():
    short = series("anchor", 6)
    with pytest.raises(AnchorIneligible):
        build_org_dataset({"anchor": short}, "anchor", split_developer(short, 5), seed=1, test_size=5, min_train=10)
    other = series("a", 40)
    with pytest.raises(AnchorIneligible):
        build_org_dataset({"a": other}, "missing", split_developer(other, 5), seed=1, test_size=5, min_train=10)


def org_of(pool):
    """An organization dataset whose train set is ``pool``."""
    manifest = DatasetManifest("org-d", ROLE_ORGANIZATION, "d", BASE_TS + 10**6, (len(pool), 0, 0), 1)
    return Dataset(manifest, tuple(pool))


def test_org_subset_identity_empty_and_determinism():
    pool = series("d", 20)
    assert sorted(i.instance_id for i in build_org_subset(org_of(pool), 20, seed=9).train) == sorted(
        i.instance_id for i in pool
    )
    assert build_org_subset(org_of(pool), 0, seed=9).train == ()
    a = build_org_subset(org_of(pool), 7, seed=9)
    b = build_org_subset(org_of(list(reversed(pool))), 7, seed=9)
    assert a == b
    with pytest.raises(TargetTooLarge):
        build_org_subset(org_of(pool), 21, seed=9)


def test_baseline_plus_respects_first_test_ts():
    pool = [make_instance("g", ts=BASE_TS + i, tag=str(i), repo="gen") for i in range(50)]
    cut = BASE_TS + 25
    sample = build_baseline_plus(pool, "d", 10, first_test_ts=cut, seed=3).train
    assert len(sample) == 10
    assert all(i.timestamp < cut for i in sample)
    with pytest.raises(TargetTooLarge):
        build_baseline_plus(pool, "d", 26, first_test_ts=cut, seed=3)


def test_builders_derive_manifests_from_their_parts():
    anchor = series("anchor", 40)
    split = split_developer(anchor, test_size=5)
    dev = developer_dataset("anchor", split, 1)
    org = build_org_dataset({"anchor": anchor}, "anchor", split, seed=2, test_size=5, min_train=10)
    sub = build_org_subset(org, 10, seed=3)
    pool = [make_instance("g", ts=BASE_TS + i, tag=str(i), repo="gen") for i in range(50)]
    bplus = build_baseline_plus(pool, "anchor", 10, first_test_ts=split.test[0].timestamp, seed=4)
    generic = build_unanchored(ROLE_GENERIC_FINETUNE, pool, seed=5)
    pretrain = build_unanchored(ROLE_PRETRAIN, pool, seed=5)
    expected = [
        (dev, "dev-anchor", ROLE_DEVELOPER, "anchor", max(i.timestamp for i in split.train), 1),
        (org, "org-anchor", ROLE_ORGANIZATION, "anchor", org.manifest.cutoff_ts, 2),
        (sub, "orgsub-anchor", ROLE_ORG_SUBSET, "anchor", org.manifest.cutoff_ts, 3),
        (bplus, "bplus-anchor", ROLE_BASELINE_PLUS, "anchor", split.test[0].timestamp, 4),
        (generic, "generic", ROLE_GENERIC_FINETUNE, None, None, 5),
        (pretrain, "pretrain", ROLE_PRETRAIN, None, None, 5),
    ]
    for ds, dataset_id, role, anchor_id, cutoff_ts, seed in expected:
        m = ds.manifest
        assert (m.dataset_id, m.role, m.anchor_developer, m.cutoff_ts, m.seed) == (
            dataset_id, role, anchor_id, cutoff_ts, seed
        )
        assert m.counts == (len(ds.train), len(ds.val), len(ds.test))
    assert (len(generic.train), len(generic.val)) == (45, 5)
    assert generic.train != pretrain.train  # each role shuffles under its own seed
    assert list(pretrain.parts()) == ["train", "val"]
    assert list(generic.parts()) == ["train", "val", "test"]


def test_cap_methods_per_repo():
    by_repo = {
        "small": list(range(1200)),
        "big": list(range(5000)),
    }
    capped = cap_methods_per_repo(by_repo, cap=1500, seed=4)
    assert len(capped["small"]) == 1200
    assert len(capped["big"]) == 1500
    again = cap_methods_per_repo(by_repo, cap=1500, seed=4)
    assert capped == again
    different = cap_methods_per_repo(by_repo, cap=1500, seed=5)
    assert different["big"] != capped["big"]


METHOD_20_TOKENS = """class A {
    int calc(int a) {
        int c = a + a;
        return c + 1;
    }
}"""


def test_mlm_masks_ceiling_of_15_percent():
    m = method_of(METHOD_20_TOKENS)
    assert m.token_count == 20
    inst = mlm_pretrain_instances(m, random.Random(1))
    assert len(inst.targets) == 3  # ceil(0.15 * 20)
    assert inst.masked_text.count("<MASK_") == 3
    for i in range(3):
        assert f"<MASK_{i}>" in inst.masked_text


def test_mlm_single_token_masks_one():
    from repotailor.javalex import SourceToken
    from oracles import TokenMethod, unit_of_tokens

    tok = SourceToken("identifier", "x", 1, 0)
    m = unit_of_tokens(TokenMethod("x", "x()", 1, 1, (tok,), 0, "x"))
    inst = mlm_pretrain_instances(m, random.Random(3))
    assert inst.targets == ("x",)
    assert inst.masked_text == "<MASK_0>"


def test_mlm_deterministic_under_seed():
    m = method_of(METHOD_20_TOKENS)
    assert mlm_pretrain_instances(m, random.Random(5)) == mlm_pretrain_instances(m, random.Random(5))


def test_mlm_targets_restore_text():
    m = method_of(METHOD_20_TOKENS)
    inst = mlm_pretrain_instances(m, random.Random(2))
    text = inst.masked_text
    for i, target in enumerate(inst.targets):
        text = text.replace(f"<MASK_{i}>", target, 1)
    assert text == m.text


def test_mlm_skips_a_method_whose_text_holds_a_mask_sentinel():
    """A `<MASK_i>` already in a method's text would make its masked text
    ambiguous, as `<FILL_ME>` would a completion context: the method
    yields no pre-training instance."""
    m = method_of(METHOD_20_TOKENS.replace("int c = a + a;", 'String c = "<MASK_0>" + a;'))
    assert mlm_pretrain_instances(m, random.Random(1)) is None
    records = [generic_record(f"gen{i}") for i in range(5)]
    marked = [dict(rec, text=rec["text"].replace("{", "{ // <MASK_1>", 1)) for rec in records]
    roles = [[d.manifest.role for d in build_datasets(series("a", 15), recs, FAMILY_CAPS, seed=7).datasets]
             for recs in (records, marked)]
    assert ROLE_PRETRAIN in roles[0] and ROLE_PRETRAIN not in roles[1]
    assert ROLE_GENERIC_FINETUNE in roles[1]


def test_dedup_rules():
    keep = make_instance("d", tag="keep", context="x = 1;", target="y;")
    drop = make_instance("d", tag="drop", context="a   =  2;", target="b;")
    holdout = [make_instance("h", tag="h", context="a = 2;", target="b;")]
    same_target_diff_context = make_instance("d", tag="stdc", context="z = 3;", target="b;")
    out = dedup([keep, drop, same_target_diff_context], holdout)
    assert [i.instance_id for i in out] == ["d-keep", "d-stdc"]


# a few contexts and targets, so that train and holdout share targets and
# contexts; "b = c;" and "b=c;" differ in more than whitespace
DEDUP_CONTEXTS = ["int a = 1;\n    <FILL_ME>", "x = y;  <FILL_ME>", "if (p) {\n\t<FILL_ME>\n}"]
DEDUP_TARGETS = ["b = c;", "b=c;", "return z;", "f(x, y);"]


def _respaced(text: str, rng: random.Random) -> str:
    """``text`` with each whitespace run, and either end, re-spaced with
    spaces, tabs and newlines."""
    gaps = ["", " ", "  ", "\t", "\n", " \t\n"]
    first, *words = text.split()
    return rng.choice(gaps) + first + "".join(rng.choice(gaps[1:]) + word for word in words) + rng.choice(gaps)


def random_dedup_case(rng: random.Random, author: str = "t", holdout_author: str = "h"):
    """Train and holdout instances drawn from the shared texts above,
    each text re-spaced or not; a train instance copies a holdout
    instance's context, target or both as often as not."""
    def drawn(who: str, tag: int, like=None):
        context, target = rng.choice(DEDUP_CONTEXTS), rng.choice(DEDUP_TARGETS)
        if like is not None:
            keep = rng.choice(["context", "target", "both"])
            context = like.context if keep != "target" else context
            target = like.target if keep != "context" else target
        if rng.random() < 0.5:
            context, target = _respaced(context, rng), _respaced(target, rng)
        return make_instance(who, ts=BASE_TS + tag, tag=str(tag), context=context, target=target)

    holdout = [drawn(holdout_author, tag) for tag in range(rng.randint(0, 5))]
    train = [drawn(author, tag, rng.choice(holdout) if holdout and rng.random() < 0.5 else None)
             for tag in range(rng.randint(0, 12))]
    return train, holdout


def test_dedup_matches_the_reference_key_set():
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(400):
        train, holdout = random_dedup_case(rng)
        assert dedup(train, holdout) == reference_dedup(train, holdout)
        targets = [normalize_for_dedup(h.target) for h in holdout]
        contexts = {normalize_for_dedup(h.context) for h in holdout}
        seen["repeated holdout target"] += len(targets) > len(set(targets))
        for i in train:
            target, context = normalize_for_dedup(i.target), normalize_for_dedup(i.context)
            duplicate = not reference_dedup([i], holdout)
            seen["duplicate"] += duplicate
            seen["respaced duplicate"] += duplicate and all((i.context, i.target) != (h.context, h.target) for h in holdout)
            seen["equal target, other context"] += not duplicate and target in targets
            seen["equal context, other target"] += not duplicate and context in contexts
    assert all(seen[case] > 10 for case in (
        "repeated holdout target", "duplicate", "respaced duplicate",
        "equal target, other context", "equal context, other target",
    )), seen


def test_audit_duplicate_flag_matches_the_reference():
    rng = random.Random(2028)
    flagged = 0
    for _ in range(150):
        datasets, expected = [], set()
        for anchor in ("d", "e"):
            train, holdout = random_dedup_case(rng, anchor, anchor)
            datasets.append(hand_built(ROLE_DEVELOPER, train, holdout[:-1], holdout[-1:], anchor=anchor))
            # without a developer test set the audit checks the anchor's datasets for nothing else
            if holdout and len(reference_dedup(train, holdout)) < len(train):
                expected.add(f"{ROLE_DEVELOPER}-{anchor}")
            for role in (ROLE_ORGANIZATION, ROLE_ORG_SUBSET, ROLE_BASELINE_PLUS):
                other_train, _ = random_dedup_case(rng, f"{role}-{anchor}")
                parts = [other_train, []]
                if role == ROLE_ORGANIZATION:  # an organization's val is training data too
                    parts = [other_train[::2], other_train[1::2]]
                datasets.append(hand_built(role, *parts, anchor=anchor))
                if holdout and len(reference_dedup(other_train, holdout)) < len(other_train):
                    expected.add(f"{role}-{anchor}")
        suffix = ": training data duplicates anchor holdout"
        problems = audit_temporal_leak(datasets, test_size=1, min_train=0)
        assert {p.removesuffix(suffix) for p in problems if p.endswith(suffix)} == expected
        flagged += len(expected)
    assert flagged > 100


def test_temporal_leak_fuzz_small():
    rng = random.Random(31)
    for _ in range(100):
        devs = {}
        for d in range(rng.randint(2, 4)):
            author = f"dev{d}"
            count = rng.randint(20, 60)
            devs[author] = [
                make_instance(author, ts=BASE_TS + rng.randint(0, 500), tag=str(i))
                for i in range(count)
            ]
        anchor = "dev0"
        try:
            split = split_developer(devs[anchor], test_size=5)
        except TooFewInstances:
            continue
        if not eligible(split, min_train=10, test_size=5):
            continue
        org = build_org_dataset(devs, anchor, split, seed=7, test_size=5, min_train=10)
        assert audit_temporal_leak([developer_dataset(anchor, split, 7), org], 5, 10) == []


def hand_built(role: str, train=(), val=(), test=(), cutoff_ts=None, anchor: str = "d") -> Dataset:
    """A dataset anchored on ``anchor``, its manifest counting its parts."""
    manifest = DatasetManifest(f"{role}-{anchor}", role, anchor, cutoff_ts, (len(train), len(val), len(test)), 0)
    return Dataset(manifest, tuple(train), tuple(val), tuple(test))


OWN = series("d", 10)  # 10 s apart; the holdout starts at OWN[5]
OTHERS = series("o", 3)


@pytest.mark.parametrize("datasets, expected", [
    pytest.param(
        [hand_built(ROLE_DEVELOPER, OWN[:5], OWN[5:7], OWN[7:]),
         hand_built(ROLE_ORGANIZATION, OTHERS, cutoff_ts=OWN[5].timestamp - 1)],
        [], id="clean",
    ),
    pytest.param(
        [hand_built(ROLE_ORGANIZATION, OTHERS, cutoff_ts=OWN[5].timestamp - 1)],
        ["organization-d: anchor d has no developer test set"], id="no-developer-test-set",
    ),
    pytest.param(
        [hand_built(ROLE_DEVELOPER, OWN[:5], OWN[5:8], OWN[8:])], ["developer-d: test size 2 != 3"],
        id="test-size",
    ),
    pytest.param(
        [hand_built(ROLE_DEVELOPER, OWN[1:5], OWN[5:7], OWN[7:])], ["developer-d: train size below minimum"],
        id="train-below-minimum",
    ),
    pytest.param(
        [hand_built(ROLE_DEVELOPER, OWN[:5], OWN[5:7], OWN[7:]),
         hand_built(ROLE_ORGANIZATION, OTHERS, cutoff_ts=OWN[5].timestamp)],
        [f"organization-d: cutoff {OWN[5].timestamp} not older than anchor holdout"], id="cutoff-at-holdout",
    ),
])
def test_audit_flags_each_size_and_cutoff_rule(datasets, expected):
    assert audit_temporal_leak(datasets, test_size=3, min_train=5) == expected


FAMILY_CAPS = Caps(top_developers=2, test_size=3, min_train=5)


def generic_record(repo: str = "gen") -> dict:
    """One mined generic method record, as ``mine`` writes them, older
    than every instance of ``series``."""
    m = method_of(_method_source("G", [f"int v{i} = seed * {i} + scale;" for i in range(6)]))
    return {"repo": repo, "sha": "1" * 40, "ts": BASE_TS - 100, "file": "G.java",
            "name": m.name, "signature": m.signature, "text": m.text}


def dataset_ids(built) -> list[str]:
    return [d.manifest.dataset_id for d in built.datasets]


def generic_pool(built) -> list:
    """The generic pool: the generic dataset's train plus val."""
    generic = next(d for d in built.datasets if d.manifest.role == ROLE_GENERIC_FINETUNE)
    return [*generic.train, *generic.val]


def org_train_sizes(built) -> dict[str, int]:
    return {d.manifest.anchor_developer: len(d.train)
            for d in built.datasets if d.manifest.role == ROLE_ORGANIZATION}


def test_build_datasets_ranks_by_count_then_author_and_cuts_at_top_developers():
    # c, a and b are eligible; d has too little train, e too few instances
    instances = (
        series("b", 12, 3) + series("d", 8, 4) + series("c", 15, 1) + series("e", 2, 5) + series("a", 12, 2)
    )
    built = build_datasets(instances, None, FAMILY_CAPS, seed=7)
    assert built.selected_developers == ["c", "a"]
    assert built.eligible_developers == 3
    assert dataset_ids(built) == ["dev-c", "org-c", "orgsub-c", "dev-a", "org-a", "orgsub-a"]
    assert built.notes == []


def test_build_datasets_notes_a_skipped_org_subset():
    # a lone developer's organization train set is 90% of their own train set
    built = build_datasets(series("a", 15), None, FAMILY_CAPS, seed=7)
    assert dataset_ids(built) == ["dev-a", "org-a"]
    assert built.notes == ["orgsub-a: org train smaller than developer train, skipped"]


def test_build_datasets_notes_a_baseline_plus_larger_than_the_generic_pool():
    built = build_datasets(series("a", 15) + series("b", 12, 1), [generic_record()], FAMILY_CAPS, seed=7)
    org_train = org_train_sizes(built)
    pool = len(generic_pool(built))
    assert 0 < pool < min(org_train.values())
    assert dataset_ids(built)[-1] == "generic"
    assert built.notes == [
        f"bplus-{a}: target {org_train[a]} > eligible pool {pool}" for a in ("a", "b")
    ]


def test_build_datasets_without_generic_methods_has_no_generic_pool():
    instances = series("a", 15) + series("b", 12, 1)
    without = build_datasets(instances, None, FAMILY_CAPS, seed=7)
    empty = build_datasets(instances, [], FAMILY_CAPS, seed=7)
    # no generic methods: no baseline+ is attempted; an empty pool: each one is noted
    assert without.notes == []
    assert {d.manifest.role for d in without.datasets} == {ROLE_DEVELOPER, ROLE_ORGANIZATION, ROLE_ORG_SUBSET}
    assert empty.datasets == without.datasets
    assert empty.notes == [f"bplus-{a}: target {n} > eligible pool 0" for a, n in org_train_sizes(empty).items()]


def test_build_datasets_builds_every_family_from_an_ample_generic_pool():
    records = [generic_record(f"gen{i}") for i in range(5)]
    built = build_datasets(series("a", 15), records, FAMILY_CAPS, seed=7)
    roles = [d.manifest.role for d in built.datasets]
    assert roles == [ROLE_DEVELOPER, ROLE_ORGANIZATION, ROLE_GENERIC_FINETUNE, ROLE_PRETRAIN, ROLE_BASELINE_PLUS]
    assert all(i.author_id == "generic" for i in generic_pool(built))
