"""Stage orchestration: mine -> assemble -> score -> compare -> insight.

Every stage is deterministic given (inputs, config seed), records a
stamp with the config hash, and is a no-op when re-run with unchanged
inputs. A verify stage audits the temporal-leak guarantees of every
dataset in an output tree.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple
from urllib.parse import quote

from . import assembly, insight, masking, metrics, stats
from .config import RepoSpec, RunConfig
from .errors import ConfigHashMismatch, DataError, EmptyInput, MissingStage
from .identity import load_overrides, resolve_identities, top_contributors
from .javamethods import (
    MethodCounts,
    MethodSpan,
    MethodUnit,
    apply_method_filters,
    map_added_lines,
    method_counts,
    # not called here: perfbench traces `assemble`'s re-scan under this name
    method_from_text,
    method_spans,
    method_unit,
)
from .masking import CompletionInstance, Provenance
from .mining import (
    BlobReader,
    CommitRecord,
    OutlierThreshold,
    added_lines,
    filter_bots,
    filter_outliers,
    read_blob,
    resolve_branch,
    stream_commits,
)
from .seeding import rng_for
from .storage import (
    dumps_canonical,
    read_json,
    read_jsonl,
    sha256_file,
    typed,
    write_csv,
    write_json,
    write_jsonl,
)

STAGE_MINE = "mine"
STAGE_ASSEMBLE = "assemble"


def _stamp_path(cfg: RunConfig, stage: str) -> Path:
    return Path(cfg.out_dir) / "stamps" / f"{stage}.json"


def _head_shas(cfg: RunConfig) -> dict[str, str]:
    """The commit each repository's branch points at, by repository id;
    "" for a repository without commits. ``mine`` logs these shas, not
    the branches, so its stamp lists the heads it mined."""
    return {spec.resolved_id(): resolve_branch(spec.path, spec.branch) for spec in cfg.repos + cfg.generic_repos}


@contextmanager
def _reading(path: str | Path, what: str) -> Iterator[None]:
    """Turn a failed read of ``path`` in the block into an error naming it:
    a missing file is a MissingStage, an unreadable, undecodable or
    malformed one a DataError."""
    try:
        yield
    except FileNotFoundError as exc:
        raise MissingStage(f"{what} {path} is missing") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, a row of the wrong shape
        raise DataError(f"cannot read {what} {path}: {exc!r}") from exc


class _Stamp(NamedTuple):
    inputs: dict
    outputs: dict[str, str]  # file name -> the sha256 its writer returned


def _dataset_dir(out_dir: Path, dataset_id: str = "") -> Path:
    """A dataset's directory; without an id, the directory of every dataset."""
    return out_dir / "datasets" / dataset_id


def _assembled_manifests(cfg: RunConfig) -> dict[assembly.DatasetManifest, dict]:
    """``index.json``'s manifests, each with its entry's ``files`` (file
    name -> sha256), once the assemble stamp holds."""
    _check_stage_stamp(cfg, STAGE_ASSEMBLE)
    path = Path(cfg.out_dir) / "index.json"
    with _reading(path, "stage output"):
        return {
            assembly.DatasetManifest.from_record(rec): typed(rec["files"], dict)
            for rec in typed(read_json(path)["manifests"], list)
        }


def _check_stage_stamp(cfg: RunConfig, stage: str) -> _Stamp:
    """The stage's stamp, once it matches the config and every output it lists exists."""
    path = _stamp_path(cfg, stage)
    if not path.exists():
        raise MissingStage(f"stage {stage!r} has not produced outputs in {cfg.out_dir}")
    with _reading(path, "stamp"):
        rec = read_json(path)
        if rec["config_hash"] != cfg.config_hash():
            raise ConfigHashMismatch(
                f"stage {stage!r} outputs were built under config {rec['config_hash']}, "
                f"current config is {cfg.config_hash()}"
            )
        stamp = _Stamp(rec["inputs"], typed(rec["outputs"], dict))
    for name in stamp.outputs:
        if not (Path(cfg.out_dir) / name).exists():
            raise MissingStage(f"stage {stage!r} output {name} is missing from {cfg.out_dir}")
    return stamp


def _unchanged_output(cfg: RunConfig, stage: str, inputs: dict, name: str) -> dict | None:
    """The stage's own output ``name`` when the stamp holds, lists
    ``inputs``, and every output it lists still has the sha256 it lists;
    None when the stage must rebuild."""
    out_dir = Path(cfg.out_dir)
    path = out_dir / name
    try:
        stamp = _check_stage_stamp(cfg, stage)
        with _reading(path, "stage output"):
            data = path.read_bytes()
            # the other outputs too: a no-op that kept an edited one would
            # leave the next stage refusing it
            hashes = {other: sha256_file(out_dir / other) for other in stamp.outputs.keys() - {name}}
    except (DataError, ConfigHashMismatch):
        return None
    hashes[name] = hashlib.sha256(data).hexdigest()
    return json.loads(data) if stamp.inputs == inputs and hashes == stamp.outputs else None


def _replace_json(path: Path, obj) -> None:
    """Write ``obj`` to a temp file beside ``path``, then move it into
    place: a reader sees the old file or the new one, never part of one."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write_json(tmp, obj)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_stamp(cfg: RunConfig, stage: str, inputs: dict[str, str], outputs: dict[str, str]) -> None:
    """The commit point: each stage unlinks its stamp before its first output write."""
    _replace_json(_stamp_path(cfg, stage), {
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "inputs": inputs,
        "outputs": outputs,
    })


def _method_record(commit: CommitRecord, file: str, method: MethodCounts) -> dict:
    return {
        "repo": commit.repo_id,
        "sha": commit.sha,
        "ts": commit.timestamp,
        "file": file,
        "name": method.name,
        "signature": method.signature,
        "text": method.text,
    }


def _ingest(
    specs: tuple[RepoSpec, ...], heads: dict, numstat: bool = True
) -> tuple[list[CommitRecord], dict, OutlierThreshold | None]:
    """The first-parent commits up to each spec's head in ``heads``, without
    bot and outlier commits, sorted, with the commit counts after each
    filter and the outlier threshold, which is fitted to this pool alone;
    ``numstat`` goes to `stream_commits`.
    """
    commits = [
        c for spec in specs for c in stream_commits(spec.path, heads[spec.resolved_id()], spec.resolved_id(), numstat)
    ]
    funnel = {"total": len(commits)}
    commits = filter_bots(commits)
    funnel["after_bot_filter"] = len(commits)
    threshold = None
    if commits:
        commits, threshold = filter_outliers(commits)
    commits.sort(key=lambda c: (c.repo_id, c.timestamp, c.sha))
    funnel["after_outlier_filter"] = len(commits)
    return commits, funnel, threshold


ChangedMethods = list[tuple[str, MethodUnit | MethodCounts, list[int]]]
# `method_unit`, which scans a method's tokens, or `method_counts`, which counts them
MethodReader = Callable[[str, MethodSpan, list[str]], MethodUnit | MethodCounts]

_DROPPED = "dropped:"  # a counts key: the prefix, then a method filter's reason


def _files_read(commit: CommitRecord) -> list[tuple[str, str | None, str]]:
    """(path, parent blob id, child blob id) of each Java file that
    ``commit`` changes, by path. A deleted file is not read: no method of
    it gains a line."""
    pairs = zip(commit.changed_java_files, commit.java_blobs)
    return sorted(((file, parent, child) for file, (parent, child) in pairs if child is not None), key=itemgetter(0))


class _BlobTexts:
    """The texts of one repository's blobs, each read once by id: a text
    is kept only until the last of the reads that ``commits`` make of it
    (see `_files_read`)."""

    def __init__(self, reader: BlobReader, commits: list[CommitRecord]):
        self.reader = reader
        self.uses = Counter(
            blob_id for commit in commits for _, *ids in _files_read(commit) for blob_id in ids if blob_id
        )
        self.kept: dict[str, str | None] = {}

    def text(self, blob_id: str | None) -> str | None:
        """The decoded blob, None when there is none (``blob_id`` None) or
        it is missing or undecodable; spends one counted use."""
        if blob_id is None:
            return None
        self.uses[blob_id] -= 1
        if blob_id in self.kept:
            return self.kept[blob_id] if self.uses[blob_id] > 0 else self.kept.pop(blob_id)
        text = read_blob(self.reader, blob_id)
        if self.uses[blob_id] > 0:
            self.kept[blob_id] = text
        return text


def _mine_changed_methods(
    commit: CommitRecord, blobs: _BlobTexts, headers: dict, counts: Counter, unit: MethodReader
) -> ChangedMethods:
    """(file, kept method, added line numbers) triples for one commit, each
    method read by ``unit``; ``headers`` is `method_spans`'s memo."""
    out: ChangedMethods = []
    for file, parent_id, child_id in _files_read(commit):
        child = blobs.text(child_id)
        parent = blobs.text(parent_id) or ""  # before the check below: this read was counted
        if child is None:
            counts["undecodable_files"] += 1
            continue
        lines = added_lines(parent, child)
        if not lines:
            continue
        spans = method_spans(child, headers)
        if spans is None:
            counts["unparsable_files"] += 1
            continue
        counts["methods_extracted"] += len(spans)
        # a method whose span holds no added line never receives one, so
        # only the others are scanned and filtered
        source_lines = child.split("\n")
        kept = []
        for span in spans:
            at = bisect_left(lines, span.start_line)
            if at == len(lines) or lines[at] > span.end_line:
                continue
            m = unit(child, span, source_lines)
            verdict = apply_method_filters(m)
            if verdict.kept:
                kept.append(m)
            else:
                counts[_DROPPED + verdict.reason] += 1
        counts["methods_kept"] += len(kept)
        out.extend((file, method, line_numbers) for method, line_numbers in map_added_lines(kept, lines))
    return out


def _mine_commits(
    commits: list[CommitRecord], repo_paths: dict[str, str], counts: Counter, unit: MethodReader,
    wanted: Callable[[CommitRecord], bool] = lambda commit: True,
) -> Iterator[tuple[CommitRecord, ChangedMethods]]:
    """Each commit that changes Java files and that ``wanted`` accepts,
    with its changed methods, read by ``unit``. ``counts`` gains this
    pool's file and method attrition, and ``unwanted_commits``.

    Commits are sorted by repository: one blob reader per repository,
    each closed and reaped before the next opens. Each repository's
    loop owns its two memos, so none outlives it: the blob texts that a
    later commit of it still reads, and `method_spans`'s headers.
    """
    for repo_id, repo_commits in groupby(commits, key=attrgetter("repo_id")):
        mined = []
        for commit in repo_commits:
            if not commit.changed_java_files:
                continue
            if not wanted(commit):
                counts["unwanted_commits"] += 1
                continue
            mined.append(commit)
        headers: dict = {}
        with BlobReader(repo_paths[repo_id]) as reader:
            blobs = _BlobTexts(reader, mined)
            for commit in mined:
                yield commit, _mine_changed_methods(commit, blobs, headers, counts, unit)


def _mask_commit_methods(
    cfg: RunConfig, commit: CommitRecord, author_id: str, changed: ChangedMethods
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
    overrides, overrides_sha256 = load_overrides(cfg.identity_overrides) if cfg.identity_overrides else (None, None)
    # the config hash covers the overrides file's path; its content is an input
    inputs = {"heads": _head_shas(cfg), "overrides": cfg.identity_overrides and overrides_sha256}
    report = _unchanged_output(cfg, STAGE_MINE, inputs, "run_report.json")
    if report is not None:
        return report

    repo_paths = {spec.resolved_id(): spec.path for spec in cfg.repos + cfg.generic_repos}
    commits, funnel, threshold = _ingest(cfg.repos, inputs["heads"])
    raw_authors = [(c.author_name, c.author_email, c.java_added_lines) for c in commits]
    identities = resolve_identities(raw_authors, overrides)
    pool = top_contributors(identities, cfg.caps.contributor_pool) if identities else []
    pool_ids = {ident.author_id for ident in pool}
    author_of = {alias: ident.author_id for ident in identities for alias in ident.aliases}

    def author(commit: CommitRecord) -> str:
        return author_of[(commit.author_name, commit.author_email)]

    counts: Counter = Counter()
    # the first instance mined under each id: equal methods of one commit can mask alike
    by_id: dict[str, CompletionInstance] = {}
    for commit, changed in _mine_commits(commits, repo_paths, counts, method_unit, lambda c: author(c) in pool_ids):
        for instance in _mask_commit_methods(cfg, commit, author(commit), changed):
            by_id.setdefault(instance.instance_id, instance)
    instances = sorted(by_id.values(), key=lambda i: (i.repo_id, i.timestamp, i.commit_sha, i.file, i.instance_id))

    # no output reads a generic commit's added-line count, so git counts none
    gen_commits, gen_funnel, _ = _ingest(cfg.generic_repos, inputs["heads"], numstat=False)
    gen_counts: Counter = Counter()
    # a generic method is stored as text: only its token counts are read
    generic_methods = [
        _method_record(commit, file, method)
        for commit, changed in _mine_commits(gen_commits, repo_paths, gen_counts, method_counts)
        for file, method, _ in changed
    ]
    generic_methods.sort(key=lambda r: (r["repo"], r["ts"], r["sha"], r["file"], r["signature"]))
    generic_lines = list(dict.fromkeys(map(dumps_canonical, generic_methods)))  # equal methods, one line

    _stamp_path(cfg, STAGE_MINE).unlink(missing_ok=True)
    stores = {"commits.jsonl": commits, "identities.jsonl": identities, "instances.jsonl": instances}
    outputs = {
        name: write_jsonl(out_dir / name, (dumps_canonical(item.to_record()) for item in items))
        for name, items in stores.items()
    }
    if cfg.generic_repos:
        outputs["generic_methods.jsonl"] = write_jsonl(
            out_dir / "generic_methods.jsonl", generic_lines
        )
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
            "commits_outside_pool": counts["unwanted_commits"],
        },
        "files": {
            "undecodable": counts["undecodable_files"],
            "unparsable": counts["unparsable_files"],
        },
        "methods": {
            "extracted": counts["methods_extracted"],
            "kept": counts["methods_kept"],
            "dropped_by_reason": {
                key.removeprefix(_DROPPED): n for key, n in sorted(counts.items()) if key.startswith(_DROPPED)
            },
        },
        "instances": {"emitted": len(instances)},
        "generic": {
            "total": gen_funnel["total"],
            "kept": gen_funnel["after_outlier_filter"],
            "methods": len(generic_lines),
            "methods_extracted": gen_counts["methods_extracted"],
            "undecodable_files": gen_counts["undecodable_files"],
            "unparsable_files": gen_counts["unparsable_files"],
        },
    }
    outputs["run_report.json"] = write_json(out_dir / "run_report.json", report)
    _write_stamp(cfg, STAGE_MINE, inputs, outputs)
    return report


def _mined_lines(path: Path, sha256: str) -> Iterator[str]:
    """The lines of a ``mine`` output, without their newlines; after the
    last one, a DataError when the file's sha256 is not ``sha256``, the
    one ``mine``'s stamp lists."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for raw in fh:
            digest.update(raw)
            yield raw.rstrip(b"\n").decode("utf-8")
    if digest.hexdigest() != sha256:
        raise DataError(f"stage output {path} is not the file stamps/{STAGE_MINE}.json lists; run mine again")


PartMemo = dict[str, CompletionInstance]  # a part line -> its instance


def _read_part(
    out_dir: Path, manifest: assembly.DatasetManifest, part: str, memo: PartMemo
) -> tuple[bytes, list[CompletionInstance]]:
    """The bytes of one part (train, val or test) of a dataset
    ``index.json`` lists, and its instances. A line missing from ``memo``
    is decoded and added, so a stage that passes one memo to every call
    decodes each distinct line once."""
    path = _dataset_dir(out_dir, manifest.dataset_id) / f"{part}.jsonl"
    instances = []
    with _reading(path, "dataset part"):
        data = path.read_bytes()
        for line in data.decode("utf-8").split("\n"):
            if not line.strip():
                continue
            instance = memo.get(line)
            if instance is None:
                instance = memo[line] = CompletionInstance.from_record(json.loads(line))
            instances.append(instance)
    return data, instances


def _load_part(
    out_dir: Path, manifest: assembly.DatasetManifest, part: str, memo: PartMemo
) -> list[CompletionInstance]:
    """The instances of one part, read as ``_read_part`` reads it."""
    return _read_part(out_dir, manifest, part, memo)[1]


def _manifests_by_role(manifests: Iterable[assembly.DatasetManifest]) -> dict[str, dict]:
    """Manifests by role, then by anchor (None when unanchored)."""
    by_role: dict[str, dict[str | None, assembly.DatasetManifest]] = defaultdict(dict)
    for man in manifests:
        by_role[man.role][man.anchor_developer] = man
    return by_role


def _write_dataset(out_dir: Path, dataset: assembly.Dataset, lines: dict) -> dict:
    """Write each part as ``<name>.jsonl`` and the manifest into the
    dataset's directory; returns its ``index.json`` entry.

    ``lines`` maps an item to its line: an item missing from it is
    encoded once and added, for the datasets written after this one."""

    def line(item) -> str:
        text = lines.get(item)
        if text is None:
            text = lines[item] = dumps_canonical(item.to_record())
        return text

    manifest = dataset.manifest
    dataset_dir = _dataset_dir(out_dir, manifest.dataset_id)
    files = {
        f"{name}.jsonl": write_jsonl(dataset_dir / f"{name}.jsonl", map(line, part))
        for name, part in dataset.parts().items()
    }
    files["manifest.json"] = write_json(dataset_dir / "manifest.json", manifest.to_record())
    return {"files": files, **manifest.to_record()}


def run_assemble(cfg: RunConfig) -> dict:
    """Build developer, organization, org-subset, baseline+, generic,
    and pre-training datasets from the mined stores.
    """
    out_dir = Path(cfg.out_dir)
    mine_stamp = _check_stage_stamp(cfg, STAGE_MINE)
    inputs = {
        "instances": mine_stamp.outputs.get("instances.jsonl", ""),
        "generic_methods": mine_stamp.outputs.get("generic_methods.jsonl", ""),
    }
    index = _unchanged_output(cfg, STAGE_ASSEMBLE, inputs, "index.json")
    if index is not None:
        return index

    # every instance with the line mine wrote for it, which its parts copy
    instances: list[CompletionInstance] = []
    lines: dict = {}
    path = out_dir / "instances.jsonl"
    with _reading(path, "stage output"):
        for line in _mined_lines(path, inputs["instances"]):
            instance = CompletionInstance.from_record(json.loads(line))
            instances.append(instance)
            lines[instance] = line
    generic_methods = None
    if inputs["generic_methods"]:
        path = out_dir / "generic_methods.jsonl"
        with _reading(path, "stage output"):
            generic_methods = [json.loads(line) for line in _mined_lines(path, inputs["generic_methods"])]
    built = assembly.build_datasets(instances, generic_methods, cfg.caps, cfg.seed)

    _stamp_path(cfg, STAGE_ASSEMBLE).unlink(missing_ok=True)
    index = {
        "config_hash": cfg.config_hash(),
        "organization": cfg.organization,
        "eligible_developers": built.eligible_developers,
        "selected_developers": built.selected_developers,
        "manifests": [_write_dataset(out_dir, d, lines) for d in built.datasets],
        "notes": built.notes,
    }
    outputs = {"index.json": write_json(out_dir / "index.json", index)}
    _write_stamp(cfg, STAGE_ASSEMBLE, inputs, outputs)
    return index


def _exclusion_for_dataset(
    cfg: RunConfig, by_role: dict[str, dict], man: assembly.DatasetManifest, memo: PartMemo
) -> set:
    """Trivially shared n-grams from the training targets of the
    organization dataset on the same anchor as ``man``."""
    org = by_role[assembly.ROLE_ORGANIZATION].get(man.anchor_developer)
    if org is None:
        raise DataError(f"index.json lists no organization dataset on the anchor of {man.dataset_id!r}")
    targets = [i.target for i in _load_part(Path(cfg.out_dir), org, "train", memo)]
    return metrics.exclusion_corpus_from_targets(targets, cfg.crystal_bleu.k, cfg.crystal_bleu.max_order)


def _load_predictions(path: str | Path) -> dict[str, list[metrics.PredictionRecord]]:
    """Predictions by model."""
    by_model: dict[str, list[metrics.PredictionRecord]] = defaultdict(list)
    with _reading(path, "predictions"):
        for pred in map(metrics.PredictionRecord.from_record, read_jsonl(path)):
            by_model[pred.model_id].append(pred)
    return dict(by_model)


def run_score(cfg: RunConfig, dataset_id: str, predictions_path: str | Path) -> dict:
    """Score prediction files against one dataset's test split."""
    manifests = _assembled_manifests(cfg)
    man = next((m for m in manifests if m.dataset_id == dataset_id), None)
    if man is None:
        raise MissingStage(f"dataset {dataset_id!r} is not in index.json; run assemble first")
    memo: PartMemo = {}
    # counts: (train, val, test)
    test = _load_part(Path(cfg.out_dir), man, "test", memo) if man.counts[2] else []
    if not test:
        raise DataError(f"dataset {dataset_id!r} has no test split to score against")

    by_model = _load_predictions(predictions_path)
    if not by_model:
        raise EmptyInput(f"no predictions in {predictions_path}")

    trivial = _exclusion_for_dataset(cfg, _manifests_by_role(manifests), man, memo)
    reports = metrics.corpus_report(test, by_model, trivial, cfg.crystal_bleu.max_order)

    out = {
        "config_hash": cfg.config_hash(),
        "dataset_id": dataset_id,
        "test_size": len(test),
        "models": {m: r.to_record() for m, r in reports.items()},
        "rows": {m: [row.to_record() for row in r.rows] for m, r in reports.items()},
    }
    reports_dir = Path(cfg.out_dir) / "reports"
    _replace_json(reports_dir / f"{dataset_id}.score.json", out)
    write_csv(
        reports_dir / f"{dataset_id}.rows.csv",
        ["model", "id", "em", "crystal_bleu", "bleu", "degenerate", "missing"],
        (
            [model, row.instance_id, int(row.em), repr(row.crystal_bleu), repr(row.bleu),
             int(row.degenerate), int(row.missing)]
            for model in sorted(reports)
            for row in reports[model].rows
        ),
    )
    return out


def _score_rows(path: str | Path, model: str | None) -> tuple[str, str, tuple[metrics.ScoreRow, ...]]:
    """A score report's dataset id, the model picked from it and that model's rows."""
    with _reading(path, "score report"):
        report = read_json(path)
        rows = report.get("rows") if isinstance(report, dict) else None
        if not isinstance(rows, dict) or not isinstance(report.get("dataset_id"), str):
            raise DataError(f"{path} is not a score report")
        models = sorted(rows)
        if model is None:
            if len(models) != 1:
                raise DataError(f"{path} has models {models}; pick one explicitly")
            model = models[0]
        if model not in rows:
            raise DataError(f"model {model!r} not in {path} (has {models})")
        return report["dataset_id"], model, tuple(map(metrics.ScoreRow.from_record, rows[model]))


def run_compare(
    cfg: RunConfig,
    report_a_path: str | Path,
    report_b_path: str | Path,
    model_a: str | None = None,
    model_b: str | None = None,
) -> dict:
    """Statistically compare two scored models on the same test set."""
    dataset_id, name_a, rows_a = _score_rows(report_a_path, model_a)
    _, name_b, rows_b = _score_rows(report_b_path, model_b)

    outcome, em_result, cb_result = stats.compare_models(rows_a, rows_b)
    em = em_result.to_record()
    summary_a = metrics.ModelReport.from_rows(name_a, rows_a)
    summary_b = metrics.ModelReport.from_rows(name_b, rows_b)
    comparison = {
        "config_hash": cfg.config_hash(),
        "dataset_id": dataset_id,
        "model_a": name_a,
        "model_b": name_b,
        "em": {
            "a_percent": summary_a.em_percent,
            "b_percent": summary_b.em_percent,
            "delta": summary_a.em_percent - summary_b.em_percent,
            "odds_ratio": em["effect"],
            "counts": {"n11": outcome.n11, "n10": outcome.n10, "n01": outcome.n01, "n00": outcome.n00},
            **em,
        },
        "crystal_bleu": {
            "a_mean": summary_a.mean_crystal_bleu,
            "b_mean": summary_b.mean_crystal_bleu,
            "delta": summary_a.mean_crystal_bleu - summary_b.mean_crystal_bleu,
            "abs_effect_size": abs(cb_result.effect),
            "compared_pairs": len(rows_a) - outcome.n11,
            **cb_result.to_record(),
        },
    }
    # ids come from the reports, so a "/" in one must not name a directory
    dataset, a, b = (quote(name, safe="") for name in (dataset_id, name_a, name_b))
    out_path = Path(cfg.out_dir) / "reports" / f"{dataset}.compare-{a}-vs-{b}.json"
    write_json(out_path, comparison)
    return comparison


def run_insight(cfg: RunConfig) -> dict:
    """Coverage reports per developer/dataset role plus the cost model."""
    out_dir = Path(cfg.out_dir)
    by_role = _manifests_by_role(_assembled_manifests(cfg))
    scenarios = insight.load_scenarios(cfg.scenario_file)
    decoded: PartMemo = {}

    def load(man: assembly.DatasetManifest, part: str) -> list[CompletionInstance]:
        return _load_part(out_dir, man, part, decoded)

    # the generic dataset's train plus val is the whole generic pool
    generic = by_role[assembly.ROLE_GENERIC_FINETUNE].get(None)
    generic_pool = load(generic, "train") + load(generic, "val") if generic else []

    # each distinct method text is lexed once for the whole stage
    memo: dict[str, frozenset[str]] = {}
    generic_vocab = insight.vocabulary_elements(generic_pool, memo)

    coverage: dict[str, dict] = {}
    for author, man in sorted(by_role[assembly.ROLE_DEVELOPER].items()):
        test = load(man, "test")
        test_vocab = insight.vocabulary_elements(test, memo)
        train = load(man, "train")
        trains = [(assembly.ROLE_DEVELOPER, train, insight.vocabulary_elements(train, memo))]
        for role in (assembly.ROLE_ORGANIZATION, assembly.ROLE_ORG_SUBSET, assembly.ROLE_BASELINE_PLUS):
            other = by_role[role].get(author)
            if other:
                train = load(other, "train")
                if train:
                    trains.append((role, train, insight.vocabulary_elements(train, memo)))
        if generic_pool:
            trains.append(("generic-pool", generic_pool, generic_vocab))
        coverage[author] = {
            key: insight.coverage_report(test, train, test_vocab, train_vocab).to_record()
            for key, train, train_vocab in trains
        }

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
    write_csv(
        insight_dir / "cost_curve.csv",
        ["scenario", "inferences", "personalized_small", "generic_large"],
        (
            [name, point.inferences, repr(point.personalized_small), repr(point.generic_large)]
            for name, scenario in sorted(scenarios.items())
            for point in insight.cost_curve(scenario, max_x)
        ),
    )
    return {"coverage": coverage, "cost": cost}


def run_verify(cfg: RunConfig) -> list[str]:
    """Leak audit over an assembled output tree, plus a check that every
    dataset directory on disk is listed in ``index.json``. A missing or
    unreadable part file is a violation, and the audit sees it as empty;
    so is a part whose sha256 is not the one ``index.json`` lists, and
    the audit still sees its content."""
    out_dir = Path(cfg.out_dir)
    manifests = _assembled_manifests(cfg)
    memo: PartMemo = {}
    part_problems: list[str] = []

    def load(man: assembly.DatasetManifest, part: str) -> tuple[CompletionInstance, ...]:
        try:
            data, instances = _read_part(out_dir, man, part, memo)
        except MissingStage:
            part_problems.append(f"{man.dataset_id}: {part}.jsonl missing")
        except DataError as exc:
            part_problems.append(f"{man.dataset_id}: {exc}")
        else:
            if hashlib.sha256(data).hexdigest() != manifests[man].get(f"{part}.jsonl"):
                part_problems.append(f"{man.dataset_id}: {part}.jsonl sha256 differs from index.json")
            return tuple(instances)
        return ()

    anchored = [
        assembly.Dataset(man, *(load(man, part) for part in ("train", "val", "test")))
        for man in manifests
        if man.anchor_developer
    ]
    violations = part_problems + assembly.audit_temporal_leak(
        anchored, cfg.caps.test_size, cfg.caps.min_train,
        {spec.resolved_id() for spec in cfg.generic_repos},
    )
    listed = {_dataset_dir(out_dir, man.dataset_id) for man in manifests}
    violations += [
        f"{path.name}: dataset directory not listed in index.json"
        for path in sorted(_dataset_dir(out_dir).glob("*"))
        if path not in listed
    ]
    write_json(out_dir / "verify.json", {"config_hash": cfg.config_hash(), "violations": violations})
    return violations
