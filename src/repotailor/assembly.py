"""Assemble developer, organization, size-controlled, and pre-training
datasets with temporal alignment and deduplication.

The construction guarantee maintained throughout: training data for an
organization, org-subset or baseline-plus dataset anchored on a
developer is strictly older than that developer's validation and test
data, timestamp ties being resolved by exclusion. A developer's own
training data is never newer than its held-out data, and may share its
first timestamp.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from .errors import AnchorIneligible, TargetTooLarge, TooFewInstances
from .javamethods import MethodUnit, method_from_text
from .masking import (
    APACHE_MASK_DISTRIBUTION,
    CompletionInstance,
    MaskLengthDistribution,
    Provenance,
    generate_generic,
)
from .seeding import derive_seed, rng_for
from .storage import typed

if TYPE_CHECKING:  # config imports this module's defaults
    from .config import Caps

DEFAULT_TEST_SIZE = 500
DEFAULT_MIN_TRAIN = 1000
TRAIN_FRACTION = 0.9
DEFAULT_METHODS_PER_REPO = 1500
MLM_MASK_RATE = 0.15
MLM_SENTINEL = "<MASK_"  # then the mask's index and ">"
PRETRAIN_REPO_FRACTION = 0.4

ROLE_DEVELOPER = "developer"
ROLE_ORGANIZATION = "organization"
ROLE_ORG_SUBSET = "org-subset"
ROLE_BASELINE_PLUS = "baseline-plus"
ROLE_GENERIC_FINETUNE = "generic-finetune"
ROLE_PRETRAIN = "pretrain"


def order_key(instance: CompletionInstance) -> tuple:
    return (instance.timestamp, instance.commit_sha, instance.instance_id)


def normalize_for_dedup(text: str) -> str:
    return " ".join(text.split())


class _HoldoutIndex:
    """Held-out instances under the duplicate rule: an instance is a
    duplicate when its context and its target each equal one held-out
    instance's after `normalize_for_dedup`. Each normalized held-out
    target maps to the normalized contexts held out with it, so an
    instance normalizes its short target first and its context only when
    that target was held out."""

    __slots__ = ("contexts",)

    def __init__(self, holdout: Iterable[CompletionInstance]):
        self.contexts: dict[str, set[str]] = defaultdict(set)
        for i in holdout:
            self.contexts[normalize_for_dedup(i.target)].add(normalize_for_dedup(i.context))

    def __contains__(self, instance: CompletionInstance) -> bool:
        contexts = self.contexts.get(normalize_for_dedup(instance.target))
        return contexts is not None and normalize_for_dedup(instance.context) in contexts


def dedup(
    train: list[CompletionInstance], holdout: list[CompletionInstance]
) -> list[CompletionInstance]:
    """Drop train instances equal to a holdout instance up to whitespace."""
    index = _HoldoutIndex(holdout)
    return [i for i in train if i not in index]


@dataclass(frozen=True, slots=True)
class SplitAssignment:
    train: tuple[CompletionInstance, ...]
    val: tuple[CompletionInstance, ...]
    test: tuple[CompletionInstance, ...]


@dataclass(frozen=True, slots=True)
class DatasetManifest:
    dataset_id: str
    role: str
    anchor_developer: str | None
    cutoff_ts: int | None
    counts: tuple[int, int, int]  # (train, val, test)
    seed: int

    def to_record(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "role": self.role,
            "anchor_developer": self.anchor_developer,
            "cutoff_ts": self.cutoff_ts,
            "counts": {"train": self.counts[0], "val": self.counts[1], "test": self.counts[2]},
            "seed": self.seed,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "DatasetManifest":
        """A TypeError or KeyError when ``rec`` is not a manifest record."""
        counts = rec["counts"]
        return cls(
            dataset_id=typed(rec["dataset_id"], str),
            role=typed(rec["role"], str),
            anchor_developer=typed(rec["anchor_developer"], str, type(None)),
            cutoff_ts=typed(rec["cutoff_ts"], int, type(None)),
            counts=tuple(typed(counts[part], int) for part in ("train", "val", "test")),
            seed=typed(rec["seed"], int),
        )


@dataclass(frozen=True, slots=True)
class Dataset:
    """A dataset's manifest and parts, as written under ``datasets/<id>/``."""

    manifest: DatasetManifest
    train: tuple[CompletionInstance, ...]
    val: tuple[CompletionInstance, ...] = ()
    test: tuple[CompletionInstance, ...] = ()

    def parts(self) -> dict[str, tuple]:
        """The parts written as ``<name>.jsonl``; a pre-training set has
        no test part."""
        parts = {"train": self.train, "val": self.val, "test": self.test}
        if self.manifest.role == ROLE_PRETRAIN:
            del parts["test"]
        return parts


def _dataset(
    dataset_id: str,
    role: str,
    anchor: str | None,
    cutoff_ts: int | None,
    seed: int,
    train: Sequence,
    val: Sequence = (),
    test: Sequence = (),
) -> Dataset:
    """The one place a manifest is made: its counts are the parts' sizes."""
    train, val, test = tuple(train), tuple(val), tuple(test)
    manifest = DatasetManifest(dataset_id, role, anchor, cutoff_ts, (len(train), len(val), len(test)), seed)
    return Dataset(manifest, train, val, test)


def split_developer(
    instances: list[CompletionInstance], test_size: int = DEFAULT_TEST_SIZE
) -> SplitAssignment:
    """Time-ordered split: newest ``test_size`` instances become the
    test set, the rest splits 90/10 by recency into train/val, then
    train duplicates of any held-out instance are removed.
    """
    ordered = sorted(instances, key=order_key)
    if len(ordered) < test_size + 1:
        raise TooFewInstances(
            f"{len(ordered)} instances; need at least {test_size + 1}"
        )
    test = ordered[-test_size:]
    rest = ordered[:-test_size]
    n_train = math.floor(TRAIN_FRACTION * len(rest))
    train = rest[:n_train]
    val = rest[n_train:]
    train = dedup(train, val + test)
    return SplitAssignment(tuple(train), tuple(val), tuple(test))


def eligible(
    split: SplitAssignment,
    min_train: int = DEFAULT_MIN_TRAIN,
    test_size: int = DEFAULT_TEST_SIZE,
) -> bool:
    """Dataset viability: enough training data and the exact test size."""
    return len(split.train) >= min_train and len(split.test) == test_size


def developer_dataset(author: str, split: SplitAssignment, seed: int) -> Dataset:
    """A developer's split as a dataset; its cutoff is the newest training change."""
    cutoff_ts = max(i.timestamp for i in split.train)
    return _dataset(
        f"dev-{author}", ROLE_DEVELOPER, author, cutoff_ts, seed, split.train, split.val, split.test
    )


def build_org_dataset(
    all_dev_instances: dict[str, list[CompletionInstance]],
    anchor: str,
    anchor_split: SplitAssignment,
    seed: int,
    test_size: int = DEFAULT_TEST_SIZE,
    min_train: int = DEFAULT_MIN_TRAIN,
) -> Dataset:
    """Union all developers' instances up to the cutoff of the anchor's
    split, scrub the anchor's held-out duplicates, and split 90/10 by
    recency.
    """
    if anchor not in all_dev_instances:
        raise AnchorIneligible(f"unknown anchor {anchor!r}")
    if not eligible(anchor_split, min_train, test_size):
        raise AnchorIneligible(f"anchor {anchor!r} has no eligible split")

    holdout = list(anchor_split.val) + list(anchor_split.test)
    min_holdout_ts = min(i.timestamp for i in holdout)
    # the cutoff is the anchor's newest training change; when that ties
    # with the first held-out change, step back one second so training
    # data stays strictly older than evaluation data
    cutoff_ts = min(max(i.timestamp for i in anchor_split.train), min_holdout_ts - 1)

    pool: list[CompletionInstance] = []
    for instances in all_dev_instances.values():
        for inst in instances:
            if inst.timestamp <= cutoff_ts:
                pool.append(inst)
    pool = dedup(pool, holdout)

    seen: set[str] = set()
    unique: list[CompletionInstance] = []
    for inst in sorted(pool, key=order_key):
        if inst.instance_id not in seen:
            seen.add(inst.instance_id)
            unique.append(inst)

    n_train = math.floor(TRAIN_FRACTION * len(unique))
    train, val = unique[:n_train], unique[n_train:]
    return _dataset(f"org-{anchor}", ROLE_ORGANIZATION, anchor, cutoff_ts, seed, train, val)


def _seeded_sample(
    pool: list[CompletionInstance], target_size: int, seed: int
) -> list[CompletionInstance]:
    ordered = sorted(pool, key=lambda i: i.instance_id)
    rng = random.Random(seed)
    sample = rng.sample(ordered, target_size)
    return sorted(sample, key=order_key)


def build_org_subset(org: Dataset, target_size: int, seed: int) -> Dataset:
    """Uniform seeded sample of the organization train set, without
    replacement, under the organization dataset's anchor and cutoff."""
    if target_size > len(org.train):
        raise TargetTooLarge(f"target {target_size} > pool {len(org.train)}")
    anchor = org.manifest.anchor_developer
    sample = _seeded_sample(list(org.train), target_size, seed)
    return _dataset(f"orgsub-{anchor}", ROLE_ORG_SUBSET, anchor, org.manifest.cutoff_ts, seed, sample)


def build_baseline_plus(
    generic_pool: list[CompletionInstance],
    anchor: str,
    target_size: int,
    first_test_ts: int,
    seed: int,
) -> Dataset:
    """Seeded sample from the generic pool restricted to instances
    strictly older than the anchor's first test timestamp, its cutoff.
    """
    pool = [i for i in generic_pool if i.timestamp < first_test_ts]
    if target_size > len(pool):
        raise TargetTooLarge(f"target {target_size} > eligible pool {len(pool)}")
    sample = _seeded_sample(pool, target_size, seed)
    return _dataset(f"bplus-{anchor}", ROLE_BASELINE_PLUS, anchor, first_test_ts, seed, sample)


# unanchored roles: the dataset id and the name of the split's shuffle seed
_UNANCHORED = {
    ROLE_GENERIC_FINETUNE: ("generic", "generic-split"),
    ROLE_PRETRAIN: ("pretrain", "pretrain-val-split"),
}


def build_unanchored(role: str, items: Sequence, seed: int) -> Dataset:
    """The generic fine-tuning or pre-training dataset: ``items`` in a
    seeded shuffle, split 90/10 into train and val."""
    dataset_id, shuffle_name = _UNANCHORED[role]
    ordered = sorted(items, key=lambda i: i.instance_id)
    rng_for(seed, shuffle_name).shuffle(ordered)
    n_train = int(TRAIN_FRACTION * len(ordered))
    return _dataset(dataset_id, role, None, None, seed, ordered[:n_train], ordered[n_train:])


def cap_methods_per_repo(
    methods_by_repo: dict[str, list],
    cap: int = DEFAULT_METHODS_PER_REPO,
    seed: int = 0,
) -> dict[str, list]:
    """Per-repo uniform sample when a repository exceeds the cap."""
    out: dict[str, list] = {}
    for repo in sorted(methods_by_repo):
        items = methods_by_repo[repo]
        if len(items) <= cap:
            out[repo] = list(items)
            continue
        rng = random.Random(derive_seed(seed, "cap-methods", repo))
        idx = sorted(rng.sample(range(len(items)), cap))
        out[repo] = [items[i] for i in idx]
    return out


@dataclass(frozen=True, slots=True)
class MlmInstance:
    instance_id: str
    masked_text: str
    targets: tuple[str, ...]
    signature: str = ""

    def to_record(self) -> dict:
        return {
            "id": self.instance_id,
            "masked_text": self.masked_text,
            "targets": list(self.targets),
            "signature": self.signature,
        }


def mlm_pretrain_instances(method: MethodUnit, rng: random.Random) -> MlmInstance | None:
    """Mask 15% of a method's tokens (ceiling) with indexed sentinels;
    None when its text already holds one, which would make the masked
    text ambiguous."""
    if MLM_SENTINEL in method.text:
        return None
    texts = method.texts
    k = math.ceil(MLM_MASK_RATE * len(texts))
    positions = sorted(rng.sample(range(len(texts)), k))

    pieces: list[str] = []
    targets: list[str] = []
    cursor = 0
    for i, pos in enumerate(positions):
        start = method.offsets[pos]
        pieces.append(method.text[cursor:start])
        pieces.append(f"{MLM_SENTINEL}{i}>")
        targets.append(texts[pos])
        cursor = start + len(texts[pos])
    pieces.append(method.text[cursor:])
    masked_text = "".join(pieces)

    h = hashlib.sha256()
    h.update(masked_text.encode("utf-8"))
    for t in targets:
        h.update(b"\x00")
        h.update(t.encode("utf-8"))
    return MlmInstance(h.hexdigest()[:20], masked_text, tuple(targets), method.signature)


@dataclass(frozen=True, slots=True)
class Assembled:
    """What ``assemble`` writes: the datasets in index order and notes on
    skipped datasets."""

    datasets: list[Dataset]
    notes: list[str]
    eligible_developers: int
    selected_developers: list[str]


def build_datasets(
    instances: list[CompletionInstance],
    generic_methods: list[dict] | None,
    caps: Caps,
    seed: int,
) -> Assembled:
    """Every dataset family from the mined instances and, unless
    ``generic_methods`` is None, the mined generic method records.

    Eligible developers are ranked by instance count, then author id;
    the first ``caps.top_developers`` each get a developer, organization
    and org-subset dataset, in that order. The generic, pre-training and
    baseline+ datasets follow. Reads and writes no file.
    """
    by_author: dict[str, list[CompletionInstance]] = defaultdict(list)
    for inst in instances:
        by_author[inst.author_id].append(inst)

    splits: dict[str, SplitAssignment] = {}
    for author in sorted(by_author):
        try:
            split = split_developer(by_author[author], caps.test_size)
        except TooFewInstances:
            continue
        if eligible(split, caps.min_train, caps.test_size):
            splits[author] = split

    ranked = sorted(splits, key=lambda a: (-len(by_author[a]), a))
    selected = ranked[: caps.top_developers]
    selected_instances = {a: by_author[a] for a in selected}

    datasets: list[Dataset] = []
    notes: list[str] = []
    org_train: dict[str, int] = {}
    for author in selected:
        split = splits[author]
        datasets.append(developer_dataset(author, split, seed))
        org = build_org_dataset(
            selected_instances, author, split,
            seed=derive_seed(seed, "org", author),
            test_size=caps.test_size,
            min_train=caps.min_train,
        )
        org_train[author] = len(org.train)
        datasets.append(org)
        try:
            datasets.append(build_org_subset(org, len(split.train), derive_seed(seed, "orgsub", author)))
        except TargetTooLarge:
            notes.append(f"orgsub-{author}: org train smaller than developer train, skipped")
    if generic_methods is None:
        return Assembled(datasets, notes, len(splits), selected)

    generic_pool, pretrain = _generic_instances(generic_methods, caps.methods_per_repo, seed, splits)
    if generic_pool:
        datasets.append(build_unanchored(ROLE_GENERIC_FINETUNE, generic_pool, seed))
    if pretrain:
        datasets.append(build_unanchored(ROLE_PRETRAIN, pretrain, seed))
    for author in sorted(selected):
        first_test_ts = min(i.timestamp for i in splits[author].test)
        try:
            datasets.append(build_baseline_plus(
                generic_pool, author, org_train[author], first_test_ts, derive_seed(seed, "bplus", author)
            ))
        except TargetTooLarge as exc:
            notes.append(f"bplus-{author}: {exc}")
    return Assembled(datasets, notes, len(splits), selected)


def _generic_instances(
    generic_methods: list[dict], methods_per_repo: int, seed: int, splits: dict[str, SplitAssignment]
) -> tuple[list[CompletionInstance], list[MlmInstance]]:
    """The generic pool, without duplicates of any eligible developer's
    held-out data, and the MLM instances of the pre-training repositories."""
    by_repo: dict[str, list[dict]] = defaultdict(list)
    for rec in generic_methods:
        by_repo[rec["repo"]].append(rec)
    capped = cap_methods_per_repo(dict(by_repo), methods_per_repo, seed)

    repos = sorted(capped)
    shuffled = list(repos)
    rng_for(seed, "pretrain-split").shuffle(shuffled)
    pretrain_repos = set(shuffled[: round(PRETRAIN_REPO_FRACTION * len(shuffled))])

    # generic mask lengths follow the eligible developers' when there are any
    dev_ns = [i.n for split in splits.values() for part in (split.train, split.val, split.test) for i in part]
    dist = MaskLengthDistribution.from_samples(dev_ns) if dev_ns else APACHE_MASK_DISTRIBUTION

    generic_pool: list[CompletionInstance] = []
    pretrain: list[MlmInstance] = []
    for repo in repos:
        for rec in capped[repo]:
            method = method_from_text(rec["text"], rec["name"], rec["signature"])
            if repo in pretrain_repos:
                rng = rng_for(seed, "mlm", repo, rec["sha"], rec["file"], rec["signature"])
                instance = mlm_pretrain_instances(method, rng)
                if instance is not None:
                    pretrain.append(instance)
            else:
                rng = rng_for(seed, "generic", repo, rec["sha"], rec["file"], rec["signature"])
                provenance = Provenance(
                    repo_id=repo, commit_sha=rec["sha"], author_id="generic",
                    timestamp=rec["ts"], file=rec["file"],
                )
                generic_pool.extend(generate_generic(method, dist, rng, provenance))

    holdout = [i for split in splits.values() for i in split.val + split.test]
    return dedup(generic_pool, holdout), pretrain


def audit_temporal_leak(
    datasets: Iterable[Dataset],
    test_size: int = DEFAULT_TEST_SIZE,
    min_train: int = DEFAULT_MIN_TRAIN,
    generic_repo_ids: Collection[str] = (),
) -> list[str]:
    """Check the construction rules of every anchored dataset.

    Each anchored dataset needs its anchor's developer dataset, with a
    test set, among ``datasets``; its training data (train and val for
    an organization dataset) must not duplicate the anchor's val or
    test data up to whitespace, and each part's size must equal its
    manifest count. Per role:

    - developer: exactly ``test_size`` test and at least ``min_train``
      train instances; train no newer than val and test;
    - organization and org-subset: the cutoff and every training
      instance older than the anchor's val and test, no instance after
      the cutoff, and an org-subset is contained in the anchor's
      organization train set;
    - baseline-plus: every instance older than the anchor's first test
      instance and, when ``generic_repo_ids`` is given, from those
      repositories only.

    Returns human-readable violations; empty means clean.
    """
    anchored = [d for d in datasets if d.manifest.anchor_developer]
    devs = {d.manifest.anchor_developer: d for d in anchored if d.manifest.role == ROLE_DEVELOPER}
    org_train_ids = {
        d.manifest.anchor_developer: {i.instance_id for i in d.train}
        for d in anchored
        if d.manifest.role == ROLE_ORGANIZATION
    }
    holdouts: dict[str, _HoldoutIndex] = {}
    problems: list[str] = []
    for ds in anchored:
        name, role, anchor = ds.manifest.dataset_id, ds.manifest.role, ds.manifest.anchor_developer
        for part, count in zip(("train", "val", "test"), ds.manifest.counts):
            size = len(getattr(ds, part))
            if size != count:
                problems.append(f"{name}: {part} has {size} instances, manifest counts {count}")
        dev = devs.get(anchor)
        if dev is None or not dev.test:
            problems.append(f"{name}: anchor {anchor} has no developer test set")
            continue
        holdout = dev.val + dev.test
        min_holdout_ts = min(i.timestamp for i in holdout)
        train = ds.train + ds.val if role == ROLE_ORGANIZATION else ds.train
        # an empty training set breaks no time rule
        max_train_ts = max((i.timestamp for i in train), default=-math.inf)
        if role == ROLE_DEVELOPER:
            if len(ds.test) != test_size:
                problems.append(f"{name}: test size {len(ds.test)} != {test_size}")
            if len(ds.train) < min_train:
                problems.append(f"{name}: train size below minimum")
            if max_train_ts > min_holdout_ts:
                problems.append(f"{name}: train newer than holdout")
        elif role == ROLE_BASELINE_PLUS:
            first_test_ts = min(i.timestamp for i in dev.test)
            if max_train_ts >= first_test_ts:
                problems.append(f"{name}: instance at or after anchor's first test ts")
            if generic_repo_ids and any(i.repo_id not in generic_repo_ids for i in train):
                problems.append(f"{name}: instance from an organization repository")
        else:
            cutoff = ds.manifest.cutoff_ts
            if cutoff is not None:
                if cutoff >= min_holdout_ts:
                    problems.append(f"{name}: cutoff {cutoff} not older than anchor holdout")
                if max_train_ts > cutoff:
                    problems.append(f"{name}: instance newer than cutoff {cutoff}")
            if max_train_ts >= min_holdout_ts:
                problems.append(f"{name}: training data not older than anchor holdout")
            if role == ROLE_ORG_SUBSET and anchor in org_train_ids:
                if not {i.instance_id for i in train} <= org_train_ids[anchor]:
                    problems.append(f"{name}: subset not contained in organization train set")
        if anchor not in holdouts:
            holdouts[anchor] = _HoldoutIndex(holdout)
        if any(i in holdouts[anchor] for i in train):
            problems.append(f"{name}: training data duplicates anchor holdout")
    return problems
