"""Stage orchestration: mine -> assemble -> score -> compare -> insight.

Every stage is deterministic given (inputs, config seed), records a
stamp with the config hash, and is a no-op when re-run with unchanged
inputs. A verify stage audits the temporal-leak guarantees of every
dataset in an output tree.
"""

from __future__ import annotations

import csv
import subprocess
from collections import defaultdict
from pathlib import Path
from typing import Sequence

from . import assembly, insight, masking, metrics, stats
from .config import RepoSpec, RunConfig
from .errors import (
    ConfigHashMismatch,
    DataError,
    EmptyInput,
    MissingStage,
    TargetTooLarge,
    TooFewInstances,
)
from .identity import load_overrides, resolve_identities, top_contributors
from .javalex import lex, significant_tokens
from .javamethods import (
    MethodUnit,
    apply_method_filters,
    map_added_lines,
    parse_methods,
)
from .masking import CompletionInstance, MaskLengthDistribution, Provenance
from .mining import (
    CommitRecord,
    OutlierThreshold,
    added_lines,
    filter_bots,
    filter_outliers,
    read_blob,
    stream_commits,
)
from .seeding import derive_seed, rng_for
from .storage import (
    read_json,
    read_jsonl,
    sha256_file,
    write_json,
    write_jsonl,
)

STAGE_MINE = "mine"
STAGE_ASSEMBLE = "assemble"

PRETRAIN_REPO_FRACTION = 0.4
SPLIT_TRAIN_FRACTION = 0.9


def _stamp_path(cfg: RunConfig, stage: str) -> Path:
    return Path(cfg.out_dir) / "stamps" / f"{stage}.json"


def _head_shas(cfg: RunConfig) -> dict[str, str]:
    shas = {}
    for spec in list(cfg.repos) + list(cfg.generic_repos):
        probe = subprocess.run(
            ["git", "-C", spec.path, "rev-parse", "--verify", "--quiet", f"refs/heads/{spec.branch}"],
            capture_output=True,
            text=True,
        )
        shas[spec.resolved_id()] = probe.stdout.strip() if probe.returncode == 0 else ""
    return shas


def _check_stage_stamp(cfg: RunConfig, stage: str) -> dict:
    path = _stamp_path(cfg, stage)
    if not path.exists():
        raise MissingStage(f"stage {stage!r} has not produced outputs in {cfg.out_dir}")
    stamp = read_json(path)
    if stamp.get("config_hash") != cfg.config_hash():
        raise ConfigHashMismatch(
            f"stage {stage!r} outputs were built under config {stamp.get('config_hash')}, "
            f"current config is {cfg.config_hash()}"
        )
    return stamp


def _stage_up_to_date(cfg: RunConfig, stage: str, inputs: dict[str, str]) -> bool:
    path = _stamp_path(cfg, stage)
    if not path.exists():
        return False
    stamp = read_json(path)
    return stamp.get("config_hash") == cfg.config_hash() and stamp.get("inputs") == inputs


def _write_stamp(cfg: RunConfig, stage: str, inputs: dict[str, str], outputs: dict[str, str]) -> None:
    write_json(_stamp_path(cfg, stage), {
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "inputs": inputs,
        "outputs": outputs,
    })


def _method_record(commit: CommitRecord, file: str, method: MethodUnit) -> dict:
    return {
        "repo": commit.repo_id,
        "sha": commit.sha,
        "ts": commit.timestamp,
        "file": file,
        "name": method.name,
        "signature": method.signature,
        "text": method.text,
    }


def method_from_text(text: str, name: str, signature: str) -> MethodUnit:
    """Rebuild a maskable MethodUnit from stored method source."""
    tokens = tuple(significant_tokens(lex(text)))
    open_idx = next((i for i, t in enumerate(tokens) if t.text == "{"), None)
    body = max(0, len(tokens) - open_idx - 2) if open_idx is not None else 0
    return MethodUnit(
        name=name,
        signature=signature,
        start_line=1,
        end_line=text.count("\n") + 1,
        tokens=tokens,
        body_token_count=body,
        text=text,
    )


def _ingest(specs: tuple[RepoSpec, ...]) -> tuple[list[CommitRecord], dict, OutlierThreshold | None]:
    """The first-parent commits of every spec's branch without bot and
    outlier commits, sorted, with the commit counts after each filter
    and the outlier threshold, which is fitted to this pool alone.
    """
    commits = [c for spec in specs for c in stream_commits(spec.path, spec.branch, spec.resolved_id())]
    funnel = {"total": len(commits)}
    commits = filter_bots(commits)
    funnel["after_bot_filter"] = len(commits)
    threshold = None
    if commits:
        commits, threshold = filter_outliers(commits)
    commits.sort(key=lambda c: (c.repo_id, c.timestamp, c.sha))
    funnel["after_outlier_filter"] = len(commits)
    return commits, funnel, threshold


def _mine_changed_methods(
    commit: CommitRecord,
    repo_path: str,
    counters: dict,
) -> list[tuple[str, MethodUnit, list[int]]]:
    """(file, kept method, added line numbers) triples for one commit."""
    out: list[tuple[str, MethodUnit, list[int]]] = []
    reasons = counters["method_drop_reasons"]
    for file in sorted(commit.changed_java_files):
        child = read_blob(repo_path, commit.sha, file)
        if child is None:
            counters["undecodable_files"] += 1
            continue
        parent = ""
        if commit.first_parent_sha is not None:
            parent = read_blob(repo_path, commit.first_parent_sha, file) or ""
        lines = added_lines(parent, child, file)
        if not lines:
            continue
        methods = parse_methods(child)
        if methods is None:
            counters["unparsable_files"] += 1
            continue
        counters["methods_extracted"] += len(methods)
        kept = []
        for m in methods:
            verdict = apply_method_filters(m)
            if verdict.kept:
                kept.append(m)
            else:
                reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
        counters["methods_kept"] += len(kept)
        for method, line_numbers in map_added_lines(kept, lines):
            out.append((file, method, line_numbers))
    return out


def _mask_commit_methods(
    cfg: RunConfig,
    commit: CommitRecord,
    author_id: str,
    changed: list[tuple[str, MethodUnit, list[int]]],
) -> list[CompletionInstance]:
    instances = []
    for file, method, line_numbers in changed:
        provenance = Provenance(
            repo_id=commit.repo_id,
            commit_sha=commit.sha,
            author_id=author_id,
            timestamp=commit.timestamp,
            file=file,
        )
        for seg in masking.segment(line_numbers, method):
            rng = rng_for(
                cfg.seed, "mask", commit.repo_id, commit.sha, file,
                method.signature, seg.line_numbers[0],
            )
            instance = masking.mask(seg, method, rng, provenance)
            if instance is not None:
                instances.append(instance)
    return instances


def run_mine(cfg: RunConfig) -> dict:
    """Mine configured repositories into commit, identity, instance, and
    generic-method stores plus a filter-attrition run report.
    """
    out_dir = Path(cfg.out_dir)
    inputs = _head_shas(cfg)
    if _stage_up_to_date(cfg, STAGE_MINE, inputs):
        return read_json(out_dir / "run_report.json")

    counters: dict = {
        "undecodable_files": 0,
        "unparsable_files": 0,
        "methods_extracted": 0,
        "methods_kept": 0,
        "method_drop_reasons": {},
    }

    repo_paths = {spec.resolved_id(): spec.path for spec in cfg.repos + cfg.generic_repos}
    commits, funnel, threshold = _ingest(cfg.repos)
    overrides = load_overrides(cfg.identity_overrides) if cfg.identity_overrides else None
    raw_authors = [(c.author_name, c.author_email, c.java_added_lines) for c in commits]
    identities = resolve_identities(raw_authors, overrides)
    pool = top_contributors(identities, cfg.caps.contributor_pool) if identities else []
    pool_ids = {ident.author_id for ident in pool}
    author_of: dict[tuple[str, str], str] = {}
    for ident in identities:
        for alias in ident.aliases:
            author_of[alias] = ident.author_id

    instances: list[CompletionInstance] = []
    skipped_non_pool = 0
    for commit in commits:
        if not commit.changed_java_files:
            continue
        author_id = author_of[(commit.author_name, commit.author_email)]
        if author_id not in pool_ids:
            skipped_non_pool += 1
            continue
        changed = _mine_changed_methods(commit, repo_paths[commit.repo_id], counters)
        instances.extend(_mask_commit_methods(cfg, commit, author_id, changed))
    instances.sort(key=lambda i: (i.repo_id, i.timestamp, i.commit_sha, i.file, i.instance_id))

    gen_commits, gen_funnel, _ = _ingest(cfg.generic_repos)
    generic_methods = [
        _method_record(commit, file, method)
        for commit in gen_commits
        for file, method, _ in _mine_changed_methods(commit, repo_paths[commit.repo_id], counters)
    ]
    generic_methods.sort(key=lambda r: (r["repo"], r["ts"], r["sha"], r["file"], r["signature"]))

    write_jsonl(out_dir / "commits.jsonl", (c.to_record() for c in commits))
    write_jsonl(out_dir / "identities.jsonl", (i.to_record() for i in identities))
    write_jsonl(out_dir / "instances.jsonl", (i.to_record() for i in instances))
    if cfg.generic_repos:
        write_jsonl(out_dir / "generic_methods.jsonl", generic_methods)
    else:  # a leftover from an earlier config must not feed assemble
        (out_dir / "generic_methods.jsonl").unlink(missing_ok=True)

    report = {
        "config_hash": cfg.config_hash(),
        "organization": cfg.organization,
        "commits": funnel,
        "outlier_threshold": None if threshold is None else {
            "q3": threshold.q3, "iqr": threshold.iqr, "cutoff": threshold.cutoff,
        },
        "outlier_scope": "per-organization over all mined commits",
        "identities": {
            "raw_author_rows": len(raw_authors),
            "resolved": len(identities),
            "contributor_pool": len(pool),
            "commits_outside_pool": skipped_non_pool,
        },
        "files": {
            "undecodable": counters["undecodable_files"],
            "unparsable": counters["unparsable_files"],
        },
        "methods": {
            "extracted": counters["methods_extracted"],
            "kept": counters["methods_kept"],
            "dropped_by_reason": dict(sorted(counters["method_drop_reasons"].items())),
        },
        "instances": {"emitted": len(instances)},
        "generic": {
            "total": gen_funnel["total"],
            "kept": gen_funnel["after_outlier_filter"],
            "methods": len(generic_methods),
        },
    }
    write_json(out_dir / "run_report.json", report)

    outputs = {
        name: sha256_file(out_dir / name)
        for name in ("commits.jsonl", "identities.jsonl", "instances.jsonl", "run_report.json")
    }
    if cfg.generic_repos:
        outputs["generic_methods.jsonl"] = sha256_file(out_dir / "generic_methods.jsonl")
    _write_stamp(cfg, STAGE_MINE, inputs, outputs)
    return report


def _load_instances(path: Path) -> list[CompletionInstance]:
    return [CompletionInstance.from_record(rec) for rec in read_jsonl(path)]


def _load_part(out_dir: Path, manifest_record: dict, part: str) -> list[CompletionInstance]:
    """One part (train, val or test) of the dataset an ``index.json``
    entry lists."""
    return _load_instances(out_dir / manifest_record["path"] / f"{part}.jsonl")


def _write_dataset(out_dir: Path, manifest: assembly.DatasetManifest, **parts: Sequence) -> dict:
    """Write each part as ``<name>.jsonl`` and the manifest into the
    dataset's directory; returns its ``index.json`` entry."""
    dataset_dir = out_dir / "datasets" / manifest.dataset_id
    files = {}
    for name, part in parts.items():
        path = dataset_dir / f"{name}.jsonl"
        write_jsonl(path, (i.to_record() for i in part))
        files[path.name] = sha256_file(path)
    write_json(dataset_dir / "manifest.json", manifest.to_record())
    files["manifest.json"] = sha256_file(dataset_dir / "manifest.json")
    return {"path": str(dataset_dir.relative_to(out_dir)), "files": files, **manifest.to_record()}


def run_assemble(cfg: RunConfig) -> dict:
    """Build developer, organization, org-subset, baseline+, generic,
    and pre-training datasets from the mined stores.
    """
    out_dir = Path(cfg.out_dir)
    mine_stamp = _check_stage_stamp(cfg, STAGE_MINE)
    inputs = {
        "instances": mine_stamp["outputs"].get("instances.jsonl", ""),
        "generic_methods": mine_stamp["outputs"].get("generic_methods.jsonl", ""),
    }
    if _stage_up_to_date(cfg, STAGE_ASSEMBLE, inputs) and (out_dir / "index.json").exists():
        return read_json(out_dir / "index.json")

    instances = _load_instances(out_dir / "instances.jsonl")
    by_author: dict[str, list[CompletionInstance]] = defaultdict(list)
    for inst in instances:
        by_author[inst.author_id].append(inst)

    caps = cfg.caps
    splits: dict[str, assembly.SplitAssignment] = {}
    for author in sorted(by_author):
        try:
            split = assembly.split_developer(by_author[author], caps.test_size)
        except TooFewInstances:
            continue
        if assembly.eligible(split, caps.min_train, caps.test_size):
            splits[author] = split

    ranked = sorted(splits, key=lambda a: (-len(by_author[a]), a))
    selected = ranked[: caps.top_developers]
    selected_instances = {a: by_author[a] for a in selected}

    manifests: list[dict] = []
    notes: list[str] = []
    org_sets: dict[str, assembly.Dataset] = {}

    for author in selected:
        split = splits[author]
        dev = assembly.developer_dataset(author, split, cfg.seed)
        manifests.append(_write_dataset(out_dir, dev.manifest, train=dev.train, val=dev.val, test=dev.test))

        org = assembly.build_org_dataset(
            selected_instances, author,
            seed=derive_seed(cfg.seed, "org", author),
            test_size=caps.test_size,
            min_train=caps.min_train,
            anchor_split=split,
        )
        org_sets[author] = org
        manifests.append(_write_dataset(out_dir, org.manifest, train=org.train, val=org.val, test=()))

        target = len(split.train)
        if target <= len(org.train):
            subset_seed = derive_seed(cfg.seed, "orgsub", author)
            subset = assembly.build_org_subset(list(org.train), target, subset_seed)
            manifest = assembly.DatasetManifest(
                dataset_id=f"orgsub-{author}",
                role=assembly.ROLE_ORG_SUBSET,
                anchor_developer=author,
                cutoff_ts=org.manifest.cutoff_ts,
                counts=(len(subset), 0, 0),
                seed=subset_seed,
            )
            manifests.append(_write_dataset(out_dir, manifest, train=subset, val=(), test=()))
        else:
            notes.append(f"orgsub-{author}: org train smaller than developer train, skipped")

    if inputs["generic_methods"]:
        _assemble_generic(cfg, out_dir, selected_instances, splits, org_sets, manifests, notes)
    else:  # a leftover from an earlier config must not feed insight
        (out_dir / "generic_pool.jsonl").unlink(missing_ok=True)

    index = {
        "config_hash": cfg.config_hash(),
        "organization": cfg.organization,
        "eligible_developers": len(splits),
        "selected_developers": selected,
        "manifests": manifests,
        "notes": notes,
    }
    write_json(out_dir / "index.json", index)
    outputs = {"index.json": sha256_file(out_dir / "index.json")}
    _write_stamp(cfg, STAGE_ASSEMBLE, inputs, outputs)
    return index


def _assemble_generic(
    cfg: RunConfig,
    out_dir: Path,
    selected_instances: dict[str, list[CompletionInstance]],
    splits: dict[str, assembly.SplitAssignment],
    org_sets: dict[str, assembly.Dataset],
    manifests: list[dict],
    notes: list[str],
) -> None:
    records = list(read_jsonl(out_dir / "generic_methods.jsonl"))
    by_repo: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        by_repo[rec["repo"]].append(rec)
    capped = assembly.cap_methods_per_repo(dict(by_repo), cfg.caps.methods_per_repo, cfg.seed)

    repos = sorted(capped)
    shuffled = list(repos)
    rng_for(cfg.seed, "pretrain-split").shuffle(shuffled)
    n_pretrain = round(PRETRAIN_REPO_FRACTION * len(shuffled))
    pretrain_repos = set(shuffled[:n_pretrain])

    dev_ns = [i.n for split in splits.values() for part in (split.train, split.val, split.test) for i in part]
    if dev_ns:
        dist = MaskLengthDistribution.from_samples(dev_ns)
    else:
        dist = masking.APACHE_MASK_DISTRIBUTION

    holdout = [i for split in splits.values() for i in list(split.val) + list(split.test)]

    generic_pool: list[CompletionInstance] = []
    pretrain_instances: list[assembly.MlmInstance] = []
    for repo in repos:
        for rec in capped[repo]:
            method = method_from_text(rec["text"], rec["name"], rec["signature"])
            if repo in pretrain_repos:
                rng = rng_for(cfg.seed, "mlm", repo, rec["sha"], rec["file"], rec["signature"])
                pretrain_instances.append(assembly.mlm_pretrain_instances(method, rng))
            else:
                rng = rng_for(cfg.seed, "generic", repo, rec["sha"], rec["file"], rec["signature"])
                provenance = Provenance(
                    repo_id=repo, commit_sha=rec["sha"], author_id="generic",
                    timestamp=rec["ts"], file=rec["file"],
                )
                generic_pool.extend(masking.generate_generic(method, dist, rng, provenance))

    generic_pool = assembly.dedup(generic_pool, holdout)
    generic_pool.sort(key=assembly.order_key)
    write_jsonl(out_dir / "generic_pool.jsonl", (i.to_record() for i in generic_pool))

    if generic_pool:
        ordered = sorted(generic_pool, key=lambda i: i.instance_id)
        rng_for(cfg.seed, "generic-split").shuffle(ordered)
        n_train = int(SPLIT_TRAIN_FRACTION * len(ordered))
        manifest = assembly.DatasetManifest(
            dataset_id="generic",
            role=assembly.ROLE_GENERIC_FINETUNE,
            anchor_developer=None,
            cutoff_ts=None,
            counts=(n_train, len(ordered) - n_train, 0),
            seed=cfg.seed,
        )
        manifests.append(_write_dataset(
            out_dir, manifest, train=ordered[:n_train], val=ordered[n_train:], test=()
        ))

    if pretrain_instances:
        ordered_mlm = sorted(pretrain_instances, key=lambda i: i.instance_id)
        rng_for(cfg.seed, "pretrain-val-split").shuffle(ordered_mlm)
        n_train = int(SPLIT_TRAIN_FRACTION * len(ordered_mlm))
        manifest = assembly.DatasetManifest(
            dataset_id="pretrain",
            role=assembly.ROLE_PRETRAIN,
            anchor_developer=None,
            cutoff_ts=None,
            counts=(n_train, len(ordered_mlm) - n_train, 0),
            seed=cfg.seed,
        )
        # a pre-training set has no test part
        manifests.append(_write_dataset(
            out_dir, manifest, train=ordered_mlm[:n_train], val=ordered_mlm[n_train:]
        ))

    for author in sorted(org_sets):
        org = org_sets[author]
        target = len(org.train)
        first_test_ts = min(i.timestamp for i in splits[author].test)
        bplus_seed = derive_seed(cfg.seed, "bplus", author)
        try:
            sample = assembly.build_baseline_plus(generic_pool, target, first_test_ts, bplus_seed)
        except TargetTooLarge as exc:
            notes.append(f"bplus-{author}: {exc}")
            continue
        manifest = assembly.DatasetManifest(
            dataset_id=f"bplus-{author}",
            role=assembly.ROLE_BASELINE_PLUS,
            anchor_developer=author,
            cutoff_ts=first_test_ts,
            counts=(len(sample), 0, 0),
            seed=bplus_seed,
        )
        manifests.append(_write_dataset(out_dir, manifest, train=sample, val=(), test=()))


def _exclusion_for_dataset(cfg: RunConfig, manifests: dict[str, dict], dataset_id: str) -> set:
    """Trivially shared n-grams from the organization training targets
    paired with this dataset's anchor (falling back to its own train).
    """
    anchor = manifests[dataset_id]["anchor_developer"]
    source = f"org-{anchor}" if anchor and f"org-{anchor}" in manifests else dataset_id
    train = _load_part(Path(cfg.out_dir), manifests[source], "train")
    return metrics.exclusion_corpus_from_targets(
        [i.target for i in train], cfg.crystal_bleu.k, cfg.crystal_bleu.max_order
    )


def run_score(cfg: RunConfig, dataset_id: str, predictions_path: str | Path) -> dict:
    """Score prediction files against one dataset's test split."""
    _check_stage_stamp(cfg, STAGE_ASSEMBLE)
    manifests = {m["dataset_id"]: m for m in read_json(Path(cfg.out_dir) / "index.json")["manifests"]}
    if dataset_id not in manifests:
        raise MissingStage(f"dataset {dataset_id!r} is not in index.json; run assemble first")
    man = manifests[dataset_id]
    test = _load_part(Path(cfg.out_dir), man, "test") if man["counts"]["test"] else []
    if not test:
        raise DataError(f"dataset {dataset_id!r} has no test split to score against")

    by_model: dict[str, list[metrics.PredictionRecord]] = defaultdict(list)
    for rec in read_jsonl(predictions_path):
        pred = metrics.PredictionRecord.from_record(rec)
        by_model[pred.model_id].append(pred)
    if not by_model:
        raise EmptyInput(f"no predictions in {predictions_path}")

    trivial = _exclusion_for_dataset(cfg, manifests, dataset_id)
    reports = metrics.corpus_report(test, dict(by_model), trivial, cfg.crystal_bleu.max_order)

    out = {
        "config_hash": cfg.config_hash(),
        "dataset_id": dataset_id,
        "test_size": len(test),
        "models": {m: r.to_record() for m, r in reports.items()},
        "rows": {m: [row.to_record() for row in r.rows] for m, r in reports.items()},
    }
    reports_dir = Path(cfg.out_dir) / "reports"
    write_json(reports_dir / f"{dataset_id}.score.json", out)
    csv_path = reports_dir / f"{dataset_id}.rows.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "id", "em", "crystal_bleu", "bleu", "degenerate", "missing"])
        for model in sorted(reports):
            for row in reports[model].rows:
                writer.writerow([
                    model, row.instance_id, int(row.em),
                    repr(row.crystal_bleu), repr(row.bleu),
                    int(row.degenerate), int(row.missing),
                ])
    return out


def _rows_from_report(report: dict, model: str | None) -> tuple[str, list[metrics.ScoreRow]]:
    models = sorted(report["rows"])
    if model is None:
        if len(models) != 1:
            raise DataError(f"report has models {models}; pick one explicitly")
        model = models[0]
    if model not in report["rows"]:
        raise DataError(f"model {model!r} not in report (has {models})")
    rows = [
        metrics.ScoreRow(
            instance_id=r["id"], em=r["em"], crystal_bleu=r["crystal_bleu"],
            bleu=r["bleu"], degenerate=r["degenerate"], missing=r["missing"],
        )
        for r in report["rows"][model]
    ]
    return model, rows


def run_compare(
    cfg: RunConfig,
    report_a_path: str | Path,
    report_b_path: str | Path,
    model_a: str | None = None,
    model_b: str | None = None,
) -> dict:
    """Statistically compare two scored models on the same test set."""
    rep_a = read_json(report_a_path)
    rep_b = read_json(report_b_path)
    name_a, rows_a = _rows_from_report(rep_a, model_a)
    name_b, rows_b = _rows_from_report(rep_b, model_b)

    em_result, cb_result = stats.compare_models(rows_a, rows_b)
    outcome = stats.paired_outcome_from_rows(rows_a, rows_b)
    em = em_result.to_record()

    def pct(rows: list[metrics.ScoreRow]) -> float:
        return 100.0 * sum(r.em for r in rows) / len(rows) if rows else 0.0

    def mean_cb(rows: list[metrics.ScoreRow]) -> float:
        return sum(r.crystal_bleu for r in rows) / len(rows) if rows else 0.0

    comparison = {
        "config_hash": cfg.config_hash(),
        "dataset_id": rep_a.get("dataset_id"),
        "model_a": name_a,
        "model_b": name_b,
        "em": {
            "a_percent": pct(rows_a),
            "b_percent": pct(rows_b),
            "delta": pct(rows_a) - pct(rows_b),
            "odds_ratio": em["effect"],
            "counts": {"n11": outcome.n11, "n10": outcome.n10, "n01": outcome.n01, "n00": outcome.n00},
            **em,
        },
        "crystal_bleu": {
            "a_mean": mean_cb(rows_a),
            "b_mean": mean_cb(rows_b),
            "delta": mean_cb(rows_a) - mean_cb(rows_b),
            "abs_effect_size": abs(cb_result.effect),
            "compared_pairs": len(rows_a) - outcome.n11,
            **cb_result.to_record(),
        },
    }
    out_path = Path(cfg.out_dir) / "reports" / f"compare-{name_a}-vs-{name_b}.json"
    write_json(out_path, comparison)
    return comparison


def run_insight(cfg: RunConfig) -> dict:
    """Coverage reports per developer/dataset role plus the cost model."""
    out_dir = Path(cfg.out_dir)
    _check_stage_stamp(cfg, STAGE_ASSEMBLE)
    index = read_json(out_dir / "index.json")

    by_role: dict[str, dict[str, dict]] = defaultdict(dict)
    for man in index["manifests"]:
        if man.get("anchor_developer"):
            by_role[man["role"]][man["anchor_developer"]] = man

    generic_pool_path = out_dir / "generic_pool.jsonl"
    generic_pool = _load_instances(generic_pool_path) if generic_pool_path.exists() else []

    # each distinct method text is lexed once for the whole stage
    memo: dict[str, frozenset[str]] = {}
    generic_vocab = insight.vocabulary_elements(generic_pool, memo)

    coverage: dict[str, dict] = {}
    for author, man in sorted(by_role[assembly.ROLE_DEVELOPER].items()):
        test = _load_part(out_dir, man, "test")
        test_vocab = insight.vocabulary_elements(test, memo)
        trains = [("developer", _load_part(out_dir, man, "train"), None)]
        for role, key in (
            (assembly.ROLE_ORGANIZATION, "organization"),
            (assembly.ROLE_ORG_SUBSET, "org-subset"),
            (assembly.ROLE_BASELINE_PLUS, "baseline-plus"),
        ):
            other = by_role[role].get(author)
            if other:
                train = _load_part(out_dir, other, "train")
                if train:
                    trains.append((key, train, None))
        if generic_pool:
            trains.append(("generic-pool", generic_pool, generic_vocab))
        coverage[author] = {
            key: insight.coverage_report(
                test, train, test_vocab=test_vocab, train_vocab=train_vocab, memo=memo
            ).to_record()
            for key, train, train_vocab in trains
        }

    scenarios = insight.load_scenarios(cfg.scenario_file)
    cost: dict[str, dict] = {}
    max_x = 0
    for name, scenario in sorted(scenarios.items()):
        n_star = insight.breakeven_inferences(scenario)
        weeks = insight.weeks_to_breakeven(n_star, scenario)
        cost[name] = {
            "scenario": scenario.to_record(),
            "breakeven_inferences": n_star,
            "weeks_raw": weeks.raw,
            "weeks": weeks.whole,
        }
        max_x = max(max_x, int(n_star * 1.2))

    insight_dir = out_dir / "insight"
    write_json(insight_dir / "coverage.json", coverage)
    write_json(insight_dir / "cost.json", cost)
    curve_path = insight_dir / "cost_curve.csv"
    with curve_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "inferences", "personalized_small", "generic_large"])
        for name, scenario in sorted(scenarios.items()):
            for point in insight.cost_curve(scenario, max_x):
                writer.writerow([
                    name, point.inferences,
                    repr(point.personalized_small), repr(point.generic_large),
                ])
    return {"coverage": coverage, "cost": cost}


def run_verify(cfg: RunConfig) -> list[str]:
    """Leak audit over an assembled output tree, plus a check that every
    dataset directory on disk is listed in ``index.json``."""
    out_dir = Path(cfg.out_dir)
    _check_stage_stamp(cfg, STAGE_ASSEMBLE)
    index = read_json(out_dir / "index.json")
    anchored = []
    for man in index["manifests"]:
        if man["anchor_developer"]:
            parts = (_load_part(out_dir, man, p) for p in ("train", "val", "test"))
            anchored.append(assembly.Dataset(assembly.DatasetManifest.from_record(man), *map(tuple, parts)))
    violations = assembly.audit_temporal_leak(
        anchored, cfg.caps.test_size, cfg.caps.min_train,
        {spec.resolved_id() for spec in cfg.generic_repos},
    )
    listed = {man["dataset_id"] for man in index["manifests"]}
    violations += [
        f"{path.name}: dataset directory not listed in index.json"
        for path in sorted((out_dir / "datasets").glob("*"))
        if path.name not in listed
    ]
    write_json(out_dir / "verify.json", {"config_hash": cfg.config_hash(), "violations": violations})
    return violations
