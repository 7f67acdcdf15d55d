from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
from collections import Counter
from pathlib import Path

import pytest

import repotailor
from repotailor import pipeline
from repotailor.assembly import (
    ROLE_BASELINE_PLUS,
    ROLE_DEVELOPER,
    ROLE_GENERIC_FINETUNE,
    ROLE_ORG_SUBSET,
    ROLE_ORGANIZATION,
    MlmInstance,
)
from repotailor.cli import main
from repotailor.config import load_config
from repotailor.errors import ConfigError, ConfigHashMismatch, DataError, MissingStage
from repotailor.insight import coverage_report, vocabulary_elements
from repotailor.masking import CompletionInstance
from repotailor.pipeline import (
    run_assemble,
    run_compare,
    run_insight,
    run_mine,
    run_score,
    run_verify,
)
from repotailor.storage import dumps_canonical, read_json, read_jsonl

from conftest import (
    BASE_TS,
    _method_source,
    build_edge_history,
    build_generic_repo,
    build_org_repo,
    commit_files,
    init_repo,
    write_fixture_config,
)


@pytest.fixture(scope="module")
def fixture_repos(tmp_path_factory):
    base = tmp_path_factory.mktemp("repos")
    org = [build_org_repo(base / f"org{i}", i) for i in range(3)]
    generic = [build_generic_repo(base / f"gen{i}", i) for i in range(3)]
    return org, generic


@pytest.fixture(scope="module")
def mined(fixture_repos, tmp_path_factory):
    org, generic = fixture_repos
    tmp = tmp_path_factory.mktemp("run")
    config_path = write_fixture_config(tmp, tmp / "out", org, generic)
    cfg = load_config(config_path)
    report = run_mine(cfg)
    index = run_assemble(cfg)
    return cfg, config_path, report, index


def test_mine_filters_and_funnel(mined):
    cfg, _, report, _ = mined
    commits = report["commits"]
    assert commits["total"] > commits["after_bot_filter"] > 0
    assert commits["after_bot_filter"] > commits["after_outlier_filter"]
    assert report["outlier_threshold"]["cutoff"] >= report["outlier_threshold"]["q3"]
    assert report["instances"]["emitted"] > 0
    assert report["generic"]["methods"] > 0
    kept_authors = {
        rec["author_name"] for rec in read_jsonl(Path(cfg.out_dir) / "commits.jsonl")
    }
    assert "dependabot[bot]" not in kept_authors


def test_organization_counts_leave_out_the_generic_repositories(mined, fixture_repos, tmp_path):
    _, _, with_generic, _ = mined
    org, _ = fixture_repos
    alone = run_mine(load_config(write_fixture_config(tmp_path, tmp_path / "out", org)))
    assert with_generic["methods"] == alone["methods"]
    assert with_generic["files"] == alone["files"]
    assert with_generic["generic"]["methods_extracted"] >= with_generic["generic"]["methods"] > 0
    assert alone["generic"]["methods_extracted"] == 0


def test_mine_instances_are_well_formed(mined):
    cfg, _, _, _ = mined
    rows = list(read_jsonl(Path(cfg.out_dir) / "instances.jsonl"))
    assert rows
    for rec in rows:
        assert 3 <= rec["n"] <= min(50, rec["N"] - 1)
        assert rec["context"].count("<FILL_ME>") == 1
        assert rec["repo"].startswith("org")
        assert rec["signature"]


def test_assemble_builds_expected_dataset_roles(mined):
    cfg, _, _, index = mined
    roles = {m["role"] for m in index["manifests"]}
    assert {
        ROLE_DEVELOPER, ROLE_ORGANIZATION, "org-subset",
        "baseline-plus", "generic-finetune", "pretrain",
    } <= roles
    assert index["eligible_developers"] == 2
    dev_manifests = [m for m in index["manifests"] if m["role"] == ROLE_DEVELOPER]
    for man in dev_manifests:
        assert man["counts"]["test"] == cfg.caps.test_size
        assert man["counts"]["train"] >= cfg.caps.min_train


def test_org_counts_and_cutoffs(mined):
    cfg, _, _, index = mined
    orgs = [m for m in index["manifests"] if m["role"] == ROLE_ORGANIZATION]
    assert len(orgs) == 2
    for man in orgs:
        assert man["cutoff_ts"] is not None
        assert man["anchor_developer"]


def test_verify_clean_tree(mined):
    cfg, _, _, _ = mined
    assert run_verify(cfg) == []


def test_assemble_is_noop_when_unchanged(mined):
    cfg, _, _, index = mined
    index_path = Path(cfg.out_dir) / "index.json"
    before = index_path.read_bytes()
    again = run_assemble(cfg)
    assert index_path.read_bytes() == before
    assert again["manifests"] == index["manifests"]


def test_mine_is_noop_when_heads_unchanged(mined):
    cfg, _, report, _ = mined
    commits_path = Path(cfg.out_dir) / "commits.jsonl"
    before = commits_path.read_bytes()
    again = run_mine(cfg)
    assert again == report
    assert commits_path.read_bytes() == before


@pytest.mark.parametrize("deleted", ["run_report.json", "instances.jsonl", "index.json"])
def test_a_stage_whose_output_was_deleted_runs_again(fixture_repos, tmp_path, capsys, deleted):
    """Until its stage runs again, the stages that read a deleted output
    exit 3 and name it."""
    org, _ = fixture_repos
    config_path = str(write_fixture_config(tmp_path, tmp_path / "out", org))
    assert main(["mine", "--config", config_path]) == 0
    assert main(["assemble", "--config", config_path]) == 0
    path = tmp_path / "out" / deleted
    before = path.read_bytes()
    path.unlink()
    readers = [["verify"], ["insight"], ["score", "--dataset", "dev-any", "--predictions", str(tmp_path / "p.jsonl")]]
    capsys.readouterr()
    for argv in readers if deleted == "index.json" else [["assemble"]]:
        assert main([argv[0], "--config", config_path, *argv[1:]]) == 3, argv
        assert f"output {deleted} is missing" in capsys.readouterr().err, argv
    assert main(["mine", "--config", config_path]) == 0
    assert main(["assemble", "--config", config_path]) == 0
    assert path.read_bytes() == before


def _future(rows, holdout_row):
    rows[0]["ts"] += 10**9  # an instance from the far future


def _duplicate(rows, holdout_row):
    rows[0]["context"], rows[0]["target"] = holdout_row["context"], holdout_row["target"]


def _respaced_duplicate(rows, holdout_row):
    """The held-out row's context and target, each whitespace run and
    both ends re-spaced: still a duplicate."""
    for key in ("context", "target"):
        rows[0][key] = "\n" + re.sub(r"\s+", " \t\n ", holdout_row[key]) + " "
        assert rows[0][key] != holdout_row[key]


def _org_repo(rows, holdout_row):
    rows[0]["repo"] = "org0"


def _drop_last(rows, holdout_row):
    del rows[-1]


@pytest.mark.parametrize("role, part, plant, expected", [
    pytest.param(ROLE_DEVELOPER, "train", _future, "train newer than holdout", id="developer-future"),
    pytest.param(ROLE_DEVELOPER, "train", _duplicate, "duplicates anchor holdout", id="developer-duplicate"),
    pytest.param(ROLE_DEVELOPER, "train", _respaced_duplicate, "duplicates anchor holdout", id="developer-respaced-duplicate"),
    pytest.param(ROLE_ORGANIZATION, "train", _future, "newer than cutoff", id="organization-future"),
    pytest.param(ROLE_ORGANIZATION, "train", _duplicate, "duplicates anchor holdout", id="organization-duplicate"),
    pytest.param(ROLE_ORGANIZATION, "train", _respaced_duplicate, "duplicates anchor holdout", id="organization-respaced-duplicate"),
    pytest.param(ROLE_ORGANIZATION, "val", _drop_last, "manifest counts", id="organization-val-short"),
    pytest.param(ROLE_ORG_SUBSET, "train", _future, "newer than cutoff", id="org-subset-future"),
    pytest.param(ROLE_ORG_SUBSET, "train", _duplicate, "duplicates anchor holdout", id="org-subset-duplicate"),
    pytest.param(ROLE_ORG_SUBSET, "train", _respaced_duplicate, "duplicates anchor holdout", id="org-subset-respaced-duplicate"),
    pytest.param(ROLE_BASELINE_PLUS, "train", _future, "first test ts", id="baseline-plus-future"),
    pytest.param(ROLE_BASELINE_PLUS, "train", _duplicate, "duplicates anchor holdout", id="baseline-plus-duplicate"),
    pytest.param(ROLE_BASELINE_PLUS, "train", _respaced_duplicate, "duplicates anchor holdout", id="baseline-plus-respaced-duplicate"),
    pytest.param(ROLE_BASELINE_PLUS, "train", _org_repo, "organization repository", id="baseline-plus-org-repo"),
])
def test_verify_flags_planted_leak(mined, tmp_path, role, part, plant, expected):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    man = next(m for m in index["manifests"] if m["role"] == role)
    holdout_row = next(read_jsonl(out / "datasets" / f"dev-{man['anchor_developer']}" / "test.jsonl"))
    part_path = out / "datasets" / man["dataset_id"] / f"{part}.jsonl"
    rows = list(read_jsonl(part_path))
    plant(rows, holdout_row)
    part_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    violations = run_verify(load_config(config_path, out_dir=str(out)))
    assert any(v.startswith(f"{man['dataset_id']}: ") and expected in v for v in violations), violations


def test_verify_reports_a_missing_part(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    man = next(m for m in index["manifests"] if m["role"] == ROLE_ORGANIZATION)
    (out / "datasets" / man["dataset_id"] / "val.jsonl").unlink()
    violations = run_verify(load_config(config_path, out_dir=str(out)))
    assert f"{man['dataset_id']}: val.jsonl missing" in violations
    assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 3
    assert f"violation: {man['dataset_id']}: val.jsonl missing" in capsys.readouterr().err


def _edit_first_row(path: Path, key: str) -> None:
    """Append a space to the string ``key`` of the file's first row,
    which stays one valid, canonically encoded line."""
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    rec = json.loads(first)
    rec[key] += " "
    path.write_text(dumps_canonical(rec) + "\n" + rest, encoding="utf-8")


def test_verify_reports_a_part_edited_after_assemble(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    _edit_first_row(out / "datasets" / dataset_id / "test.jsonl", "target")
    violation = f"{dataset_id}: test.jsonl sha256 differs from index.json"
    assert run_verify(load_config(config_path, out_dir=str(out))) == [violation]
    capsys.readouterr()
    assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 3
    assert f"violation: {violation}" in capsys.readouterr().err


@pytest.mark.parametrize("name, key", [("instances.jsonl", "target"), ("generic_methods.jsonl", "text")])
def test_assemble_refuses_a_mine_output_edited_after_mine(mined, tmp_path, capsys, name, key):
    cfg, config_path, _, _ = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    (out / "stamps" / "assemble.json").unlink()  # or assemble would not read it again
    _edit_first_row(out / name, key)
    capsys.readouterr()
    assert main(["assemble", "--config", str(config_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out / name) in err, err


def _part_lines(out: Path, index: dict, anchored: tuple[str, ...], generic: tuple[str, ...] = ()) -> set[str]:
    """The distinct lines of the ``anchored`` parts of every anchored dataset
    and of the ``generic`` parts of the generic dataset."""
    lines = set()
    for man in index["manifests"]:
        parts = anchored if man["anchor_developer"] else generic if man["role"] == ROLE_GENERIC_FINETUNE else ()
        directory = out / "datasets" / man["dataset_id"]
        for part in parts:
            lines.update((directory / f"{part}.jsonl").read_text(encoding="utf-8").splitlines())
    return lines


def test_assemble_copies_mined_lines_and_encodes_what_it_makes_once(mined, tmp_path, monkeypatch):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    (out / "stamps" / "assemble.json").unlink()
    mined_lines = set((out / "instances.jsonl").read_text(encoding="utf-8").splitlines())
    encoded: Counter = Counter()
    for cls in (CompletionInstance, MlmInstance):
        monkeypatch.setattr(cls, "to_record", lambda item, real=cls.to_record: encoded.update([item]) or real(item))
    assert run_assemble(load_config(config_path, out_dir=str(out)))["manifests"] == index["manifests"]
    assert encoded and max(encoded.values()) == 1
    assert not encoded.keys() & {CompletionInstance.from_record(json.loads(line)) for line in mined_lines}
    anchored = _part_lines(out, index, ("train", "val", "test"))
    from_mine = {line for line in anchored if json.loads(line)["author"] != "generic"}
    assert from_mine and from_mine <= mined_lines


@pytest.mark.parametrize("stage", ["verify", "insight"])
def test_a_stage_decodes_each_distinct_part_line_once(mined, monkeypatch, stage):
    cfg, _, _, index = mined
    out = Path(cfg.out_dir)
    if stage == "verify":
        run, lines = run_verify, _part_lines(out, index, ("train", "val", "test"))
    else:
        run, lines = run_insight, _part_lines(out, index, ("train", "test"), ("train", "val"))
    decoded = []
    real = CompletionInstance.from_record
    counted = classmethod(lambda cls, rec: decoded.append(dumps_canonical(rec)) or real(rec))
    monkeypatch.setattr(CompletionInstance, "from_record", counted)
    run(cfg)
    assert sorted(decoded) == sorted(lines)


def _set_in_first_row(key: str, value):
    """A damage that sets ``key`` of the file's first row to ``value``."""
    def damage(path: Path) -> None:
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(json.dumps({**json.loads(first), key: value}) + "\n" + rest, encoding="utf-8")
    return damage


@pytest.mark.parametrize("damage", [
    pytest.param(Path.unlink, id="missing"),
    pytest.param(lambda part: part.write_text('{"id": ', encoding="utf-8"), id="not-jsonl"),
    pytest.param(_set_in_first_row("ts", "soon"), id="ts-a-string"),
    pytest.param(_set_in_first_row("target", 5), id="target-a-number"),
    pytest.param(_set_in_first_row("n", True), id="n-a-boolean"),
])
def test_a_damaged_dataset_part_is_a_data_error_naming_it(mined, tmp_path, capsys, damage):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    org = next(m for m in index["manifests"] if m["role"] == ROLE_ORGANIZATION)
    dev = next(m for m in index["manifests"]
               if m["role"] == ROLE_DEVELOPER and m["anchor_developer"] == org["anchor_developer"])
    part = out / "datasets" / org["dataset_id"] / "train.jsonl"
    damage(part)
    preds = predictions_for(cfg, dev["dataset_id"], tmp_path / "preds.jsonl")
    capsys.readouterr()
    for argv in (["insight"], ["score", "--dataset", dev["dataset_id"], "--predictions", str(preds)]):
        assert main([argv[0], "--config", str(config_path), "--out", str(out), *argv[1:]]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(part) in err, err
    if damage is not Path.unlink:  # test_verify_reports_a_missing_part covers a missing one
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"violation: {org['dataset_id']}: cannot read dataset part {part}" in err, err


def _truncate(path: Path, keep: int, tail: str = "") -> None:
    path.write_bytes(path.read_bytes()[:keep] + tail.encode())


def _every_manifest(key: str, value):
    """A damage that sets ``key`` of every manifest in index.json to ``value``."""
    def damage(path: Path) -> None:
        index = read_json(path)
        for man in index["manifests"]:
            man[key] = value
        path.write_text(json.dumps(index), encoding="utf-8")
    return damage


READERS = ["score", "insight", "verify"]


@pytest.mark.parametrize("damaged, damage, stages", [
    pytest.param("instances.jsonl", lambda p: _truncate(p, p.stat().st_size, '{"id": '), ["assemble"],
                 id="instances-cut-mid-row"),
    pytest.param("index.json", lambda p: _truncate(p, p.stat().st_size // 2), READERS, id="index-half-written"),
    pytest.param("stamps/mine.json", lambda p: _truncate(p, 10), ["assemble"], id="mine-stamp-cut"),
    pytest.param("index.json", lambda p: p.write_text("{}"), READERS, id="index-without-manifests"),
    pytest.param("index.json", lambda p: p.write_text('{"manifests": [{}]}'), READERS, id="index-empty-manifest"),
    pytest.param("index.json", lambda p: p.write_text("[]"), READERS, id="index-a-list"),
    pytest.param("index.json", lambda p: p.write_text('{"manifests": [1]}'), READERS, id="index-manifest-a-number"),
    pytest.param("index.json", _every_manifest("counts", []), READERS, id="index-counts-a-list"),
    pytest.param("index.json", _every_manifest("dataset_id", 5), READERS, id="index-dataset-id-a-number"),
    pytest.param("stamps/mine.json", lambda p: p.write_text("[]"), ["assemble"], id="mine-stamp-a-list"),
    pytest.param("stamps/assemble.json", lambda p: p.write_text("[]"), READERS, id="assemble-stamp-a-list"),
])
def test_an_unreadable_stage_output_is_a_data_error_naming_it(mined, tmp_path, capsys, damaged, damage, stages):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    if damaged == "instances.jsonl":
        (out / "stamps" / "assemble.json").unlink()  # or assemble would not read it again
    damage(out / damaged)
    dataset = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    extra = {"score": ["--dataset", dataset, "--predictions", str(tmp_path / "preds.jsonl")]}
    capsys.readouterr()
    for stage in stages:
        assert main([stage, "--config", str(config_path), "--out", str(out), *extra.get(stage, [])]) == 3, stage
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(out / damaged) in err, err


def test_a_stage_whose_own_stamp_is_unreadable_rebuilds(mined, tmp_path):
    cfg, config_path, _, _ = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    damages = {"cut": lambda p: _truncate(p, 10), "a-list": lambda p: p.write_text("[]")}
    for name, damage in damages.items():
        for stage in ("mine", "assemble"):
            stamp = out / "stamps" / f"{stage}.json"
            before = stamp.read_bytes()
            damage(stamp)
            assert main([stage, "--config", str(config_path), "--out", str(out)]) == 0, (name, stage)
            assert stamp.read_bytes() == before, (name, stage)


@pytest.mark.parametrize("stage, own", [("mine", "run_report.json"), ("assemble", "index.json")])
def test_a_no_op_stage_whose_own_report_changed_rebuilds(mined, tmp_path, stage, own):
    cfg, config_path, _, _ = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    before = (out / own).read_bytes()
    (out / own).write_text("[]", encoding="utf-8")
    assert main([stage, "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / own).read_bytes() == before


@pytest.mark.parametrize("edited", ["commits.jsonl", "identities.jsonl", "instances.jsonl", "generic_methods.jsonl"])
def test_a_no_op_mine_whose_other_output_changed_rebuilds(mined, tmp_path, capsys, edited):
    """An output edited after mine wrote it makes the next mine rebuild it,
    even with its report unchanged: a no-op would leave assemble refusing
    the edited file after every mine."""
    cfg, config_path, _, _ = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    path = out / edited
    before = path.read_bytes()
    end = before.index(b"\n")
    path.write_bytes(before[:end] + b" " + before[end:])  # still valid JSONL
    (out / "stamps" / "assemble.json").unlink()  # or assemble would not read it again
    argv = ["--config", str(config_path), "--out", str(out)]
    capsys.readouterr()
    if edited in ("instances.jsonl", "generic_methods.jsonl"):
        assert main(["assemble", *argv]) == 3
        assert f"{path} is not the file stamps/mine.json lists; run mine again" in capsys.readouterr().err
    assert main(["mine", *argv]) == 0
    assert path.read_bytes() == before
    assert main(["assemble", *argv]) == 0


def test_editing_the_identity_overrides_reruns_mine(fixture_repos, tmp_path):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    overrides = tmp_path / "overrides.jsonl"
    overrides.write_text("", encoding="utf-8")
    data = json.loads(config_path.read_text())
    data["identity_overrides"] = str(overrides)
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 0
    identities = tmp_path / "out" / "identities.jsonl"
    assert "pinned-by-override" not in identities.read_text(encoding="utf-8")
    row = {"name": "Alice Dev", "email": "alice.dev@example.com", "author_id": "pinned-by-override"}
    overrides.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 0
    assert "pinned-by-override" in identities.read_text(encoding="utf-8")


def test_score_needs_the_organization_dataset_of_its_anchor(mined, tmp_path, capsys):
    """CrystalBLEU's exclusion set comes from the anchor's organization
    dataset; without one in index.json, score refuses to run."""
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    org = next(m for m in index["manifests"] if m["role"] == ROLE_ORGANIZATION)
    dev = next(m for m in index["manifests"]
               if m["role"] == ROLE_DEVELOPER and m["anchor_developer"] == org["anchor_developer"])
    manifests = [m for m in index["manifests"] if m["dataset_id"] != org["dataset_id"]]
    (out / "index.json").write_text(json.dumps({**index, "manifests": manifests}), encoding="utf-8")
    preds = predictions_for(cfg, dev["dataset_id"], tmp_path / "preds.jsonl")
    capsys.readouterr()
    argv = ["score", "--config", str(config_path), "--out", str(out),
            "--dataset", dev["dataset_id"], "--predictions", str(preds)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and dev["dataset_id"] in err, err
    assert not (out / "reports" / f"{dev['dataset_id']}.score.json").exists()


GIT_PROCESSES_PER_REPO = 2  # log of the head its ref file names, and cat-file


def test_mine_starts_a_few_git_processes_per_repository(fixture_repos, tmp_path, monkeypatch, started):
    org, generic = fixture_repos
    cfg = load_config(write_fixture_config(tmp_path, tmp_path / "out", org, generic))
    blob_reads = 0
    read_blob = pipeline.read_blob

    def counted(*args):
        nonlocal blob_reads
        blob_reads += 1
        return read_blob(*args)

    monkeypatch.setattr(pipeline, "read_blob", counted)
    run_mine(cfg)
    git = [p for p in started if p.args[0] == "git"]
    assert any("log" in p.args for p in git)  # subprocess.run is recorded
    assert len(git) <= GIT_PROCESSES_PER_REPO * len(org + generic) < blob_reads
    readers = [p for p in git if "cat-file" in p.args]
    assert len(readers) == len(org + generic)
    assert all(p.returncode is not None for p in readers)
    # no output reads a generic commit's added lines, so git counts them for org repositories only
    numstat = {Path(p.args[2]).name: "--numstat" in p.args for p in git if "log" in p.args}
    assert numstat == {**{path.name: True for path in org}, **{path.name: False for path in generic}}


def test_a_no_op_mine_starts_no_process(fixture_repos, tmp_path, started):
    """Each head is read from its repository's ref file, and every head is
    unchanged, so nothing asks git."""
    org, generic = fixture_repos
    cfg = load_config(write_fixture_config(tmp_path, tmp_path / "out", org, generic))
    report = run_mine(cfg)
    before = len(started)
    assert run_mine(cfg) == report
    assert started[before:] == []


def _blob_ids(repo: Path, names: list[str]) -> list[str | None]:
    """The blob id each ``<sha>:<path>`` names, None where it names none."""
    result = subprocess.run(
        ["git", "-C", str(repo), "cat-file", "--batch-check"],
        input="".join(f"{n}\n" for n in names), capture_output=True, text=True, check=True,
    )
    return [None if line.endswith(" missing") else line.split()[0] for line in result.stdout.splitlines()]


def test_mine_reads_each_blob_once_per_repository(fixture_repos, tmp_path, monkeypatch):
    """`read_blob` runs once per distinct blob id among the (parent, child)
    sides of each repository's mined files, found here by path with git,
    and never for the parent of a file that a commit adds."""
    org, generic = fixture_repos
    org = [*org, build_edge_history(tmp_path / "edge")]
    cfg = load_config(write_fixture_config(tmp_path, tmp_path / "out", org, generic))
    reads: Counter = Counter()
    read_blob = pipeline.read_blob

    def counted(reader, blob_id):
        reads[reader.repo_path.name, blob_id] += 1
        return read_blob(reader, blob_id)

    monkeypatch.setattr(pipeline, "read_blob", counted)
    run_mine(cfg)

    expected: set = set()
    added = 0
    heads = pipeline._head_shas(cfg)
    for specs in (cfg.repos, cfg.generic_repos):
        commits, _, _ = pipeline._ingest(specs, heads)  # every commit is wanted: the pool holds every author
        for commit in commits:
            repo = Path(next(spec.path for spec in specs if spec.resolved_id() == commit.repo_id))
            files = sorted(commit.changed_java_files)
            children = _blob_ids(repo, [f"{commit.sha}:{f}" for f in files])
            parents = []
            if commit.first_parent_sha:
                parents = _blob_ids(repo, [f"{commit.first_parent_sha}:{f}" for f in files])
            added += parents.count(None)
            expected.update((repo.name, blob) for blob in children + parents if blob)
    assert added >= 2  # the edge history adds files after its root commit
    assert reads == Counter(dict.fromkeys(expected, 1))


def test_run_report_counts_unparsable_files_and_commits_outside_the_pool(tmp_path):
    """With a pool of one, the other author's Java commit is outside it; a
    commit without a Java change is neither mined nor counted."""
    repo = init_repo(tmp_path / "pool")
    main_v1 = _method_source("Main", [f"int a{i} = seed + {i};" for i in range(6)])
    main_v2 = _method_source("Main", [f"int a{i} = seed + {i};" for i in range(7)])
    dana, eli = ("Dana Dev", "dana@example.com"), ("Eli Else", "eli@example.com")
    commit_files(repo, {"src/Main.java": main_v1}, "add main", *dana, BASE_TS)
    commit_files(repo, {"src/Broken.java": "class Broken {\n    void m() {\n"}, "add broken", *dana, BASE_TS + 60)
    commit_files(repo, {"README.md": "notes\n"}, "add notes", *dana, BASE_TS + 120)
    edit = commit_files(repo, {"src/Main.java": main_v2}, "edit main", *eli, BASE_TS + 180)
    notes = commit_files(repo, {"README.md": "more notes\n"}, "edit notes", *eli, BASE_TS + 240)
    config_path = write_fixture_config(tmp_path, tmp_path / "out", [repo])
    data = json.loads(config_path.read_text())
    data["caps"]["contributor_pool"] = 1
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 0
    report = read_json(tmp_path / "out" / "run_report.json")
    assert report["commits"]["after_outlier_filter"] == 5
    assert report["identities"]["contributor_pool"] == 1
    assert report["identities"]["commits_outside_pool"] == 1  # the Java edit, not the notes
    assert report["files"] == {"undecodable": 0, "unparsable": 1}
    shas = {rec["sha"] for rec in read_jsonl(tmp_path / "out" / "instances.jsonl")}
    assert shas and not shas & {edit, notes}


def test_mine_of_an_empty_repository_starts_one_git_process(tmp_path, started):
    repo = init_repo(tmp_path / "empty")
    config_path = write_fixture_config(tmp_path, tmp_path / "out", [repo])
    before = len(started)
    assert main(["mine", "--config", str(config_path)]) == 0
    assert [p.args[3] for p in started[before:]] == ["for-each-ref"]
    assert read_json(tmp_path / "out" / "run_report.json")["commits"]["total"] == 0


@pytest.mark.parametrize("entry, named", [
    pytest.param(lambda repo: {"path": str(repo), "branch": "nope", "repo_id": "other"}, "branch 'nope' not found",
                 id="missing-branch"),
    pytest.param(lambda repo: {"path": str(repo.parent / "absent")}, "absent", id="missing-path"),
])
def test_mine_of_a_missing_branch_or_path_exits_3(fixture_repos, tmp_path, capsys, entry, named):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    data = json.loads(config_path.read_text())
    data["repos"].append(entry(org[0]))
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and named in err, err
    assert not (tmp_path / "out" / "commits.jsonl").exists()


def test_mine_logs_the_heads_its_stamp_lists(tmp_path, monkeypatch):
    """A commit made after mine resolved the branch is not mined, and the
    next mine mines it."""
    repo = init_repo(tmp_path / "race")
    commit_files(repo, {"A.java": "class A {}\n"}, "one", "Dana Dev", "dana@example.com", BASE_TS)
    config_path = str(write_fixture_config(tmp_path, tmp_path / "out", [repo]))
    head_shas = pipeline._head_shas
    late = []

    def then_commit(cfg):
        heads = head_shas(cfg)
        if not late:
            late.append(commit_files(
                repo, {"A.java": "class A { int x; }\n"}, "two", "Dana Dev", "dana@example.com", BASE_TS + 60,
            ))
        return heads

    def mine() -> tuple[str, list[str]]:
        """The head mine's stamp lists, and the shas of the mined commits."""
        assert main(["mine", "--config", config_path]) == 0
        stamp = read_json(tmp_path / "out" / "stamps" / "mine.json")
        return stamp["inputs"]["heads"]["race"], [rec["sha"] for rec in read_jsonl(tmp_path / "out" / "commits.jsonl")]

    monkeypatch.setattr(pipeline, "_head_shas", then_commit)
    first, shas = mine()
    assert shas == [first] and late and first != late[0]
    head, shas = mine()
    assert shas == [first, late[0]] and head == late[0]


def test_mine_stamps_the_sha256_of_the_overrides_bytes_it_parsed(fixture_repos, tmp_path, monkeypatch):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    overrides = tmp_path / "overrides.jsonl"
    row = {"name": "Alice Dev", "email": "alice.dev@example.com", "author_id": "pinned-by-override"}
    overrides.write_text(json.dumps(row) + "\n", encoding="utf-8")
    parsed = overrides.read_bytes()
    data = json.loads(config_path.read_text())
    data["identity_overrides"] = str(overrides)
    config_path.write_text(json.dumps(data), encoding="utf-8")
    load_overrides = pipeline.load_overrides

    def then_edit(path):
        loaded = load_overrides(path)
        overrides.write_text("", encoding="utf-8")
        return loaded

    monkeypatch.setattr(pipeline, "load_overrides", then_edit)
    assert main(["mine", "--config", str(config_path)]) == 0
    stamp = read_json(tmp_path / "out" / "stamps" / "mine.json")
    assert stamp["inputs"]["overrides"] == hashlib.sha256(parsed).hexdigest()
    identities = tmp_path / "out" / "identities.jsonl"
    assert "pinned-by-override" in identities.read_text(encoding="utf-8")
    monkeypatch.undo()
    assert main(["mine", "--config", str(config_path)]) == 0  # the edit is seen
    assert "pinned-by-override" not in identities.read_text(encoding="utf-8")


@pytest.mark.parametrize("failing", ["_mask_commit_methods", "_method_record"], ids=["org", "generic"])
def test_mine_reaps_blob_readers_when_it_raises(fixture_repos, tmp_path, monkeypatch, started, failing):
    org, generic = fixture_repos
    cfg = load_config(write_fixture_config(tmp_path, tmp_path / "out", org, generic))

    def fail(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(pipeline, failing, fail)
    with pytest.raises(RuntimeError, match="planted"):
        run_mine(cfg)
    readers = [p for p in started if "cat-file" in p.args]
    assert readers
    assert all(p.returncode is not None for p in readers)


def test_stale_datasets_are_flagged_and_not_scored(fixture_repos, tmp_path):
    org, _ = fixture_repos
    out = tmp_path / "out"
    both = load_config(write_fixture_config(tmp_path, out, org, name="two.json"))
    run_mine(both)
    before = run_assemble(both)
    one_path = write_fixture_config(tmp_path, out, org, name="one.json")
    data = json.loads(one_path.read_text())
    data["caps"]["top_developers"] = 1
    one_path.write_text(json.dumps(data), encoding="utf-8")
    one = load_config(one_path)
    run_mine(one)
    after = run_assemble(one)
    listed = {m["dataset_id"] for m in after["manifests"]}
    stale = sorted({m["dataset_id"] for m in before["manifests"]} - listed)
    assert {s.split("-")[0] for s in stale} == {"dev", "org", "orgsub"}
    assert run_verify(one) == [f"{s}: dataset directory not listed in index.json" for s in stale]
    dev = next(s for s in stale if s.startswith("dev-"))
    with pytest.raises(MissingStage):
        run_score(one, dev, tmp_path / "unused.jsonl")
    code = main([
        "score", "--config", str(one_path), "--dataset", dev,
        "--predictions", str(tmp_path / "unused.jsonl"),
    ])
    assert code == 3


def _fail_writing(real, hit, keep_chars: int):
    """A writer that, for each path ``hit`` accepts, leaves the first
    ``keep_chars`` characters of the file on disk and raises."""

    def write(path, payload):
        if not hit(Path(path)):
            return real(path, payload)
        real(path, payload)
        Path(path).write_text(Path(path).read_text(encoding="utf-8")[:keep_chars], encoding="utf-8")
        raise OSError("disk full")

    return write


def test_assemble_crash_mid_part_unstamps_the_tree(fixture_repos, tmp_path, monkeypatch, capsys):
    """Mine's outputs change, so assemble rebuilds under the same config
    and dies writing a part: the stale stamp must not vouch for the
    half-written tree, and the next assemble rebuilds it."""
    org, _ = fixture_repos
    repos = [shutil.copytree(r, tmp_path / r.name) for r in org]
    config_path = write_fixture_config(tmp_path, tmp_path / "out", repos)
    cfg = load_config(config_path)
    run_mine(cfg)
    index = run_assemble(cfg)
    dev = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    main_java = repos[0] / "src" / "Main.java"
    grown = main_java.read_text().replace("        return", "        int late = seed + scale * 7;\n        return")
    commit_files(
        repos[0], {"src/Main.java": grown}, "late change", "Alice Dev", "alice.dev@example.com", BASE_TS + 10**6
    )
    mine_stamp = tmp_path / "out" / "stamps" / "mine.json"
    instances_before = read_json(mine_stamp)["outputs"]["instances.jsonl"]
    run_mine(cfg)
    assert read_json(mine_stamp)["outputs"]["instances.jsonl"] != instances_before

    with monkeypatch.context() as m:
        part = _fail_writing(pipeline.write_jsonl, lambda p: p.name == "train.jsonl", 40)
        m.setattr(pipeline, "write_jsonl", part)
        with pytest.raises(OSError, match="disk full"):
            run_assemble(cfg)
    assert not (tmp_path / "out" / "stamps" / "assemble.json").exists()
    capsys.readouterr()
    preds = tmp_path / "preds.jsonl"
    for argv in (
        ["verify"], ["insight"], ["score", "--dataset", dev, "--predictions", str(preds)],
    ):
        assert main([argv[0], "--config", str(config_path), *argv[1:]]) == 3
        assert "stage 'assemble' has not produced outputs" in capsys.readouterr().err

    assert main(["assemble", "--config", str(config_path)]) == 0
    assert main(["verify", "--config", str(config_path)]) == 0


@pytest.mark.parametrize("stage", ["mine", "assemble"])
def test_crash_while_stamping_leaves_no_partial_stamp(fixture_repos, tmp_path, monkeypatch, stage):
    org, _ = fixture_repos
    cfg = load_config(write_fixture_config(tmp_path, tmp_path / "out", org))
    if stage == "assemble":
        run_mine(cfg)
    run = run_mine if stage == "mine" else run_assemble
    stamps = tmp_path / "out" / "stamps"
    with monkeypatch.context() as m:
        m.setattr(pipeline, "write_json", _fail_writing(pipeline.write_json, lambda p: p.parent == stamps, 20))
        with pytest.raises(OSError, match="disk full"):
            run(cfg)
    assert sorted(p.name for p in stamps.iterdir()) == (["mine.json"] if stage == "assemble" else [])
    run(cfg)
    assert read_json(stamps / f"{stage}.json")["stage"] == stage


def test_config_hash_mismatch_refuses_stale_stages(mined, tmp_path):
    cfg, config_path, _, _ = mined
    data = json.loads(Path(config_path).read_text())
    data["seed"] = 999  # different config, same out tree
    other = tmp_path / "other.json"
    other.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigHashMismatch):
        run_assemble(load_config(other))


def predictions_for(cfg, dataset_id: str, path: Path) -> Path:
    test_rows = list(read_jsonl(Path(cfg.out_dir) / "datasets" / dataset_id / "test.jsonl"))
    lines = []
    for i, rec in enumerate(test_rows):
        lines.append({"id": rec["id"], "model": "echo", "text": rec["target"]})
        mangled = rec["target"] if i % 2 == 0 else "broken();"
        lines.append({"id": rec["id"], "model": "mangle", "text": mangled})
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    return path


def test_score_and_compare_roundtrip(mined, tmp_path):
    cfg, _, _, index = mined
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    preds = predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl")
    out = run_score(cfg, dataset_id, preds)
    assert out["models"]["echo"]["em_percent"] == 100.0
    assert out["models"]["mangle"]["em_percent"] < 100.0
    assert (Path(cfg.out_dir) / "reports" / f"{dataset_id}.rows.csv").exists()

    report_path = Path(cfg.out_dir) / "reports" / f"{dataset_id}.score.json"
    comparison = run_compare(cfg, report_path, report_path, "echo", "mangle")
    assert comparison["em"]["a_percent"] == 100.0
    assert comparison["em"]["direction"] in ("A", "none")

    same = run_compare(cfg, report_path, report_path, "echo", "echo")
    assert same["em"]["odds_ratio"] == 1.0
    assert same["crystal_bleu"]["effect"] == 0.0
    assert same["em"]["p_value"] == 1.0


def test_assemble_score_and_compare_print_what_they_did(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    preds = predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl")
    common = ["--config", str(config_path), "--out", str(out)]
    capsys.readouterr()
    assert main(["assemble", *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"assembled {len(index['manifests'])} manifests (2 eligible developers)"
    assert lines[1:] == [f"note: {note}" for note in index["notes"]]
    assert main(["score", *common, "--dataset", dataset_id, "--predictions", str(preds)]) == 0
    echo, mangle = capsys.readouterr().out.splitlines()
    assert echo == f"{dataset_id} echo: EM 100.0% CrystalBLEU 1.0000 (missing 0)"
    assert re.fullmatch(rf"{dataset_id} mangle: EM \d+\.\d% CrystalBLEU [01]\.\d{{4}} \(missing 0\)", mangle)
    report = str(out / "reports" / f"{dataset_id}.score.json")
    argv = ["compare", *common, "--report-a", report, "--report-b", report, "--model-a", "echo", "--model-b", "echo"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "EM: 100.0% vs 100.0% (OR 1.0, p 1)",
        "CrystalBLEU: 1.0000 vs 1.0000 (Cliff's delta +0.000, p 1)",
    ]


def test_compare_prints_the_reports_cliffs_delta(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    preds = predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl")
    common = ["--config", str(config_path), "--out", str(out)]
    assert main(["score", *common, "--dataset", dataset_id, "--predictions", str(preds)]) == 0
    report = str(out / "reports" / f"{dataset_id}.score.json")
    capsys.readouterr()
    argv = ["compare", *common, "--report-a", report, "--report-b", report, "--model-a", "mangle", "--model-b", "echo"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()[1]
    cb = read_json(out / "reports" / f"{dataset_id}.compare-mangle-vs-echo.json")["crystal_bleu"]
    # Cliff's delta, not the mean difference the report calls "delta"
    assert f"{cb['effect']:+.3f}" != f"{cb['delta']:+.3f}"
    assert re.fullmatch(r"CrystalBLEU: .* \(Cliff's delta ([-+]\d\.\d{3}), p .*\)", printed)[1] == f"{cb['effect']:+.3f}"


def test_compare_reports_a_bad_report_as_a_data_error(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    run_score(cfg, dataset_id, predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl"))
    good = Path(cfg.out_dir) / "reports" / f"{dataset_id}.score.json"
    truncated = tmp_path / "truncated.score.json"
    truncated.write_text(good.read_text(encoding="utf-8")[:100], encoding="utf-8")
    undecodable = tmp_path / "undecodable.score.json"
    undecodable.write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    for bad in (truncated, tmp_path / "missing.score.json", undecodable, Path(config_path)):
        argv = ["compare", "--config", str(config_path), "--report-a", str(good), "--report-b", str(bad),
                "--model-a", "echo", "--model-b", "echo"]
        assert main(argv) == 3, bad
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err, err


@pytest.mark.parametrize("field, value", [
    ("em", "yes"), ("crystal_bleu", "0.5"), ("crystal_bleu", None), ("bleu", True),
    # json.dumps writes these as NaN, Infinity and -Infinity, which json reads back
    ("crystal_bleu", float("nan")), ("crystal_bleu", float("inf")), ("bleu", float("-inf")),
])
def test_compare_reports_a_wrong_typed_row_as_a_data_error(mined, tmp_path, capsys, field, value):
    cfg, config_path, _, index = mined
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    run_score(cfg, dataset_id, predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl"))
    good = Path(cfg.out_dir) / "reports" / f"{dataset_id}.score.json"
    report = read_json(good)
    report["rows"]["echo"][0][field] = value
    bad = tmp_path / "wrong-typed.score.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    argv = ["compare", "--config", str(config_path), "--report-a", str(good), "--report-b", str(bad),
            "--model-a", "echo", "--model-b", "echo"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err, err


def test_compare_rejects_a_duplicate_instance_id_in_either_report(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    run_score(cfg, dataset_id, predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl"))
    good = Path(cfg.out_dir) / "reports" / f"{dataset_id}.score.json"
    report = read_json(good)
    rows = report["rows"]["echo"]
    rows.append({**rows[0], "em": False, "crystal_bleu": 0.0})
    twice = tmp_path / "twice.score.json"
    twice.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    for a, b in ((good, twice), (twice, good)):
        argv = ["compare", "--config", str(config_path), "--report-a", str(a), "--report-b", str(b),
                "--model-a", "echo", "--model-b", "echo"]
        assert main(argv) == 3, a
        assert capsys.readouterr().err.startswith("data error: ")


def test_compare_means_are_exactly_rounded(mined, tmp_path):
    """compare reports the score summary's means: ten rows of 0.1 average
    to 0.1, which the builtin sum misses before Python 3.12."""
    cfg, config_path, _, _ = mined
    rows = [{"id": f"i{i}", "em": False, "crystal_bleu": 0.1, "bleu": 0.1, "degenerate": False, "missing": False}
            for i in range(10)]
    report = tmp_path / "tenths.score.json"
    report.write_text(json.dumps({"dataset_id": "tenths", "rows": {"m": rows}}), encoding="utf-8")
    comparison = run_compare(load_config(config_path, out_dir=str(tmp_path / "out")), report, report)
    assert (comparison["crystal_bleu"]["a_mean"], comparison["crystal_bleu"]["b_mean"]) == (0.1, 0.1)


def test_score_reports_bad_predictions_as_a_data_error(mined, tmp_path, capsys):
    cfg, config_path, _, index = mined
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    bad = {
        "missing": None,
        "not-json": b'{"id": "x", "model": "m", "text": "t"}\n{"id": ',
        "not-utf8": b"\xff\xfe{",
        "no-id": b'{"model": "m", "text": "t"}\n',
        "no-model": b'{"id": "x", "text": "t"}\n',
        "no-text": b'{"id": "x", "model": "m"}\n',
        "not-an-object": b'["x", "m", "t"]\n',
        "text-not-a-string": b'{"id": "x", "model": "m", "text": 7}\n',
    }
    capsys.readouterr()
    for name, content in bad.items():
        path = tmp_path / f"{name}.jsonl"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(str(path))):
            run_score(cfg, dataset_id, path)
        argv = ["score", "--config", str(config_path), "--dataset", dataset_id, "--predictions", str(path)]
        assert main(argv) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err, err


def test_compare_keeps_one_report_per_dataset(mined, tmp_path):
    cfg, _, _, index = mined
    dev_ids = [m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER]
    assert len(dev_ids) == 2
    reports = Path(cfg.out_dir) / "reports"
    for ds in dev_ids:
        run_score(cfg, ds, predictions_for(cfg, ds, tmp_path / f"{ds}.jsonl"))
        run_compare(cfg, reports / f"{ds}.score.json", reports / f"{ds}.score.json", "echo", "mangle")
    for ds in dev_ids:
        assert read_json(reports / f"{ds}.compare-echo-vs-mangle.json")["dataset_id"] == ds

    # a report without a string dataset id names no file to write
    bad = tmp_path / "no-id.score.json"
    bad.write_text(json.dumps({**read_json(reports / f"{dev_ids[0]}.score.json"), "dataset_id": 7}), encoding="utf-8")
    with pytest.raises(DataError, match="not a score report"):
        run_compare(cfg, bad, reports / f"{dev_ids[0]}.score.json", "echo", "mangle")


def test_compare_encodes_model_ids_in_the_file_name(mined, tmp_path):
    """A model id comes from a predictions file: a "/" in it names no
    directory, so every comparison lands directly in reports/."""
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    cfg = load_config(config_path, out_dir=str(out))
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    models = ["codellama/CodeLlama-7b-hf", "../../escaped"]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"id": rec["id"], "model": model, "text": rec["target"]}) + "\n"
        for rec in read_jsonl(out / "datasets" / dataset_id / "test.jsonl") for model in models
    ), encoding="utf-8")
    run_score(cfg, dataset_id, preds)
    report = out / "reports" / f"{dataset_id}.score.json"
    before = set(tmp_path.rglob("*"))
    for a, b in (models, models[::-1]):
        assert run_compare(cfg, report, report, a, b)["model_a"] == a
    assert set(tmp_path.rglob("*")) - before == {
        out / "reports" / f"{dataset_id}.compare-codellama%2FCodeLlama-7b-hf-vs-..%2F..%2Fescaped.json",
        out / "reports" / f"{dataset_id}.compare-..%2F..%2Fescaped-vs-codellama%2FCodeLlama-7b-hf.json",
    }


def test_score_crash_mid_write_keeps_the_previous_report(mined, tmp_path, monkeypatch):
    cfg, _, _, index = mined
    dataset_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == ROLE_DEVELOPER)
    preds = predictions_for(cfg, dataset_id, tmp_path / "preds.jsonl")
    run_score(cfg, dataset_id, preds)
    reports = Path(cfg.out_dir) / "reports"
    report = reports / f"{dataset_id}.score.json"
    before = report.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(pipeline, "write_json", _fail_writing(pipeline.write_json, lambda p: dataset_id in p.name, 100))
        with pytest.raises(OSError, match="disk full"):
            run_score(cfg, dataset_id, preds)
    assert report.read_bytes() == before
    assert [p.name for p in reports.iterdir() if p.name.startswith(".")] == []


def test_insight_outputs(mined):
    cfg, _, _, _ = mined
    out = run_insight(cfg)
    assert out["cost"]["best"]["weeks"] == 4
    assert out["cost"]["worst"]["weeks"] == 24
    curve = (Path(cfg.out_dir) / "insight" / "cost_curve.csv").read_text(encoding="utf-8")
    assert curve.splitlines()[0] == "scenario,inferences,personalized_small,generic_large"
    assert any(line.startswith("worst,") for line in curve.splitlines()[1:])
    assert (Path(cfg.out_dir) / "insight" / "coverage.json").exists()
    coverage = read_json(Path(cfg.out_dir) / "insight" / "coverage.json")
    some_dev = next(iter(coverage.values()))
    assert "developer" in some_dev and "organization" in some_dev
    for role_report in some_dev.values():
        assert 0.0 <= role_report["signature_coverage"] <= 1.0
        assert 0.0 <= role_report["vocab_coverage"] <= 1.0


def _load(out: Path, man: dict, *parts: str) -> list[CompletionInstance]:
    directory = out / "datasets" / man["dataset_id"]
    return [CompletionInstance.from_record(rec) for part in parts for rec in read_jsonl(directory / f"{part}.jsonl")]


def test_insight_generic_pool_is_the_generic_datasets_train_and_val(mined):
    cfg, _, _, index = mined
    out = Path(cfg.out_dir)
    devs = {m["anchor_developer"]: m for m in index["manifests"] if m["role"] == ROLE_DEVELOPER}
    generic = next(m for m in index["manifests"] if m["role"] == ROLE_GENERIC_FINETUNE)
    pool = _load(out, generic, "train", "val")
    assert pool
    coverage = run_insight(cfg)["coverage"]
    assert coverage
    for author, per_role in coverage.items():
        test = _load(out, devs[author], "test")
        vocabs = (vocabulary_elements(test, {}), vocabulary_elements(pool, {}))
        assert per_role["generic-pool"] == coverage_report(test, pool, *vocabs).to_record()
    assert not (out / "generic_pool.jsonl").exists()


def test_insight_lexes_each_distinct_method_text_once(mined, monkeypatch):
    from repotailor import insight
    from repotailor.insight import reconstruct_method_text

    cfg, _, _, index = mined
    out = Path(cfg.out_dir)
    parts = []
    for man in index["manifests"]:
        directory = out / "datasets" / man["dataset_id"]
        if man["anchor_developer"]:
            parts += [directory / "train.jsonl", directory / "test.jsonl"]
        elif man["role"] == ROLE_GENERIC_FINETUNE:
            parts += [directory / "train.jsonl", directory / "val.jsonl"]
    texts = {
        reconstruct_method_text(CompletionInstance.from_record(rec))
        for path in parts for rec in read_jsonl(path)
    }
    calls = []
    real_scan = insight.vocabulary
    monkeypatch.setattr(insight, "vocabulary", lambda text: calls.append(text) or real_scan(text))
    coverage = run_insight(cfg)["coverage"]
    assert "generic-pool" in next(iter(coverage.values()))
    assert 0 < len(calls) <= len(texts)
    assert len(set(calls)) == len(calls)


def test_generic_inputs_from_an_earlier_config_are_not_reused(fixture_repos, tmp_path):
    org, generic = fixture_repos
    out = tmp_path / "out"
    with_generic = load_config(write_fixture_config(tmp_path, out, org, generic[:1], name="gen.json"))
    run_mine(with_generic)
    before = run_assemble(with_generic)
    assert (out / "generic_methods.jsonl").exists() and (out / "datasets" / "generic" / "train.jsonl").exists()
    generic_ids = {
        m["dataset_id"] for m in before["manifests"]
        if m["dataset_id"] in ("generic", "pretrain") or m["dataset_id"].startswith("bplus-")
    }
    assert "generic" in generic_ids

    without = load_config(write_fixture_config(tmp_path, out, org, name="org.json"))
    run_mine(without)
    after = run_assemble(without)
    assert not (out / "generic_methods.jsonl").exists()
    assert "generic" not in {m["dataset_id"] for m in after["manifests"]}
    assert {m["role"] for m in after["manifests"]} == {ROLE_DEVELOPER, ROLE_ORGANIZATION, ROLE_ORG_SUBSET}
    for per_role in run_insight(without)["coverage"].values():
        assert "generic-pool" not in per_role and "baseline-plus" not in per_role
    # the directories the earlier config built are flagged, not used
    assert run_verify(without) == [
        f"{d}: dataset directory not listed in index.json" for d in sorted(generic_ids)
    ]


def test_assemble_ineligible_only_yields_zero_manifests(fixture_repos, tmp_path):
    org, _ = fixture_repos
    config_path = write_fixture_config(
        tmp_path, tmp_path / "out", org, min_train=10_000, name="strict.json"
    )
    cfg = load_config(config_path)
    run_mine(cfg)
    index = run_assemble(cfg)
    assert index["manifests"] == []
    assert index["eligible_developers"] == 0


def test_cli_exit_codes(fixture_repos, tmp_path, capsys):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "cli-out", org, name="cli.json")
    assert main(["mine", "--config", str(config_path)]) == 0
    assert main(["assemble", "--config", str(config_path)]) == 0
    assert main(["verify", "--config", str(config_path)]) == 0
    # data error: dataset does not exist
    code = main([
        "score", "--config", str(config_path),
        "--dataset", "dev-nope", "--predictions", str(tmp_path / "none.jsonl"),
    ])
    assert code == 3
    # config error: unreadable config
    assert main(["mine", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"organization": "x", "repos": [], "seed": 1, "out_dir": "o"}')
    with pytest.raises(ConfigError):
        load_config(bad)
    worse = tmp_path / "worse.json"
    worse.write_text('{"organization": "x"}')
    with pytest.raises(ConfigError):
        load_config(worse)


@pytest.mark.parametrize("key, value, named", [
    pytest.param("caps", {"test_size": "5"}, "caps.test_size", id="cap-not-int"),
    pytest.param("caps", [1], "caps", id="caps-not-object"),
    pytest.param("caps", {"test_sise": 5}, "test_sise", id="cap-key-misspelled"),
    pytest.param("crystal_bleu", {"k": "a"}, "crystal_bleu.k", id="knob-not-int"),
    pytest.param("crystal_bleu", {"max_order": 0}, "crystal_bleu.max_order", id="knob-not-positive"),
    pytest.param("repos", [{"path": "/"}], "repo_id", id="repo-id-empty"),
    pytest.param("seed", "abc", "seed", id="seed-not-int"),
    pytest.param("seed", True, "seed", id="seed-bool"),
    pytest.param("seed", 7.0, "seed", id="seed-float"),
    pytest.param("repos", lambda repos: [{**repos[0], "repo_id": 7}], "repo_id", id="repo_id-not-str"),
    pytest.param("repos", lambda repos: [{**repos[0], "branch": ["main"]}], "branch", id="branch-not-str"),
    pytest.param("out_dir", "", "out_dir", id="out_dir-empty"),
    pytest.param("out_dir", 123, "out_dir", id="out_dir-not-str"),
    pytest.param("organization", "", "organization", id="organization-empty"),
    pytest.param("organization", ["x"], "organization", id="organization-not-str"),
    pytest.param("generic-repos", [], "generic-repos", id="key-misspelled"),
    pytest.param("repos", lambda repos: [{**repos[0], "brnach": "dev"}], "brnach", id="repo-key-misspelled"),
    pytest.param("repos", {"path": "/clones/org0"}, "repos must be a list", id="repos-not-list"),
    pytest.param("repos", [{"branch": "main"}], "'path'", id="repo-without-path"),
    pytest.param("repos", lambda repos: repos + repos, "unique", id="repo-ids-duplicate"),
    pytest.param(None, ["organization"], "JSON object", id="config-not-object"),
])
def test_bad_config_values_exit_2(fixture_repos, tmp_path, monkeypatch, capsys, key, value, named):
    monkeypatch.chdir(tmp_path)  # where an empty out_dir would put the tree
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    data = json.loads(config_path.read_text())
    if key is None:  # the whole config
        data = value
    else:
        data[key] = value(data[key]) if callable(value) else value
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err, err
    assert not (tmp_path / "commits.jsonl").exists()


def _scenario_without_small_cost() -> str:
    scenario = json.loads((Path(repotailor.__file__).parent / "data" / "scenario.json").read_text())
    del scenario["inference_cost_small"]
    return json.dumps(scenario)


@pytest.mark.parametrize("key, content, stages", [
    pytest.param("identity_overrides", None, ["mine"], id="overrides-missing"),
    pytest.param(
        "identity_overrides", '{"name": "Alice Dev", "email": "alice.dev@example.com"}\n', ["mine"],
        id="override-without-author-id",
    ),
    pytest.param("scenario_file", None, ["mine", "assemble", "insight"], id="scenario-missing"),
    pytest.param(
        "scenario_file", _scenario_without_small_cost(), ["mine", "assemble", "insight"],
        id="scenario-without-small-cost",
    ),
])
def test_bad_override_and_scenario_files_exit_2(fixture_repos, tmp_path, capsys, key, content, stages):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    data = json.loads(config_path.read_text())
    data[key] = str(tmp_path / f"{key}.json")
    if content is not None:
        Path(data[key]).write_text(content, encoding="utf-8")
    config_path.write_text(json.dumps(data), encoding="utf-8")
    for stage in stages[:-1]:
        assert main([stage, "--config", str(config_path)]) == 0
    assert main([stages[-1], "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and data[key] in err


@pytest.mark.parametrize("key", ["developers", "weekly_rate", "training_cost_best", "inference_cost_small"])
@pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
def test_out_of_range_scenario_values_exit_2(fixture_repos, tmp_path, capsys, key, value):
    scenario = json.loads((Path(repotailor.__file__).parent / "data" / "scenario.json").read_text())
    scenario[key] = value
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")  # NaN and Infinity as JSON reads them
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    data = json.loads(config_path.read_text())
    data["scenario_file"] = str(scenario_path)
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 0
    assert main(["assemble", "--config", str(config_path)]) == 0
    rejected = value != 0 or key in ("developers", "weekly_rate")  # a cost may be 0
    assert main(["insight", "--config", str(config_path)]) == (2 if rejected else 0)
    err = capsys.readouterr().err
    assert ("config error" in err and key in err) == rejected, err


def test_config_hash_is_pinned(tmp_path):
    # the hash keys every stage stamp; moving it invalidates existing outputs
    config_path = write_fixture_config(
        tmp_path, Path("/runs/out"),
        [Path(f"/clones/org{i}") for i in range(3)],
        [Path(f"/clones/gen{i}") for i in range(3)],
    )
    assert load_config(config_path).config_hash() == "7d8c4de2fc21b61a"
    data = json.loads(config_path.read_text())
    del data["caps"], data["crystal_bleu"]  # every cap and knob at its default
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert load_config(config_path).config_hash() == "15465abd2d7463d0"



SHOP_V1 = """class Shop {
    int price(int base) {
        int total = base * 2 + 1;
        int tax = total / 10 + 3;
        return total + tax + base;
    }

    Runnable task(int seed) {
        Runnable r = new Runnable() {
            public void run() { tick(); }
        };
        int x = seed + 1 + 2 + 3;
        return r;
    }

    void testShop() {
        price(1);
    }

    int weight(int base) {
        int heavy = base * 7 + 11;
        int light = heavy / 3 - 2;
        return heavy + light;
    }
}
"""
# edits `task` only: one line of its own, and the line of the anonymous
# class's `run`, which the filters drop (too short), so it falls to `task`
SHOP_V2 = SHOP_V1.replace("run() { tick(); }", "run() { tock(); }").replace(
    "        int x = seed + 1 + 2 + 3;\n", "        int x = seed + 1 + 2 + 3;\n        int y = x * 4 + seed;\n"
)


def _mine_changed_methods_by_parse_methods(commit, blobs, headers, counts, unit):
    """`mine`'s method step as it was when every method of a changed file
    was lexed, whatever ``unit`` asks: parse_methods ->
    apply_method_filters -> map_added_lines."""
    from repotailor.javamethods import apply_method_filters, map_added_lines, parse_methods
    from repotailor.mining import added_lines

    out = []
    for file, (parent_id, child_id) in sorted(zip(commit.changed_java_files, commit.java_blobs)):
        child = blobs.text(child_id)
        parent = blobs.text(parent_id) or ""
        lines = added_lines(parent, child)
        if not lines:
            continue
        methods = parse_methods(child)
        counts["methods_extracted"] += len(methods)
        kept = []
        for m in methods:
            verdict = apply_method_filters(m)
            if verdict.kept:
                kept.append(m)
            else:
                counts["dropped:" + verdict.reason] += 1
        counts["methods_kept"] += len(kept)
        out.extend((file, method, line_numbers) for method, line_numbers in map_added_lines(kept, lines))
    return out


def test_mine_lexes_only_methods_that_gain_a_line(tmp_path, monkeypatch):
    """A commit that edits one method of a multi-method file lexes no body
    of the others, counts only the touched methods as kept or dropped,
    and mines the instances that lexing every method gave. A generic
    repository's methods are filtered on token counts: no body of them
    is lexed, and the same generic methods are mined."""
    from repotailor import javamethods
    from repotailor.javalex import lex, token_offsets
    from repotailor.javamethods import method_spans

    repo = init_repo(tmp_path / "shop")
    commit_files(repo, {"src/Shop.java": SHOP_V1}, "add shop", "Dana Dev", "dana@example.com", BASE_TS)
    edit = commit_files(repo, {"src/Shop.java": SHOP_V2}, "edit task", "Dana Dev", "dana@example.com", BASE_TS + 3600)
    stock_v1, stock_v2 = (v.replace("Shop", "Stock") for v in (SHOP_V1, SHOP_V2))
    generic = init_repo(tmp_path / "stock")
    commit_files(generic, {"src/Stock.java": stock_v1}, "add stock", "Gus Gen", "gus@example.com", BASE_TS)
    commit_files(generic, {"src/Stock.java": stock_v2}, "edit task", "Gus Gen", "gus@example.com", BASE_TS + 3600)

    ranges = []  # what `lex` and `token_offsets` read

    def recording(source, start=0, end=None, line=1):
        ranges.append((source, start, len(source) if end is None else end))
        return lex(source, start, end, line)

    def recording_offsets(source, start=0, end=None):
        ranges.append((source, start, len(source) if end is None else end))
        return token_offsets(source, start, end)

    monkeypatch.setattr(javamethods, "lex", recording)
    monkeypatch.setattr(javamethods, "token_offsets", recording_offsets)
    out = tmp_path / "out"
    assert main(["mine", "--config", str(write_fixture_config(tmp_path, out, [repo], [generic]))]) == 0
    monkeypatch.undo()

    methods = read_json(out / "run_report.json")["methods"]
    # the five spans of each version; kept and dropped: every method of
    # the added file, then `task` and its anonymous `run`
    assert methods == {"extracted": 10, "kept": 4, "dropped_by_reason": {"test-name": 1, "too-short": 2}}

    untouched = [s for s in method_spans(SHOP_V2, {}) if s.name in ("price", "testShop", "weight")]
    assert len(untouched) == 3
    lexed = [(start, end) for source, start, end in ranges if source == SHOP_V2]
    assert lexed
    for span in untouched:
        assert all(end <= span.open + 1 or start >= span.close for start, end in lexed), span
    assert any(source == stock_v1 for source, _, _ in ranges)  # its headers; stock_v2's hit the memo
    for src in (stock_v1, stock_v2):
        lexed = [(start, end) for source, start, end in ranges if source == src]
        for span in method_spans(src, {}):
            assert all(end != span.close + 1 for start, end in lexed), span

    # one instance per edited line of `task`, the line of `run` included
    rows = read_jsonl(out / "instances.jsonl")
    assert [r["signature"] for r in rows if r["sha"] == edit] == ["task(int)", "task(int)"]
    # the kept methods of the added file, then `task`
    generic_rows = read_jsonl(out / "generic_methods.jsonl")
    assert [r["signature"] for r in generic_rows] == ["price(int)", "task(int)", "weight(int)", "task(int)"]

    monkeypatch.setattr(pipeline, "_mine_changed_methods", _mine_changed_methods_by_parse_methods)
    chain_out = tmp_path / "chain"
    config = write_fixture_config(tmp_path, chain_out, [repo], [generic], name="chain.json")
    assert main(["mine", "--config", str(config)]) == 0
    for name in ("instances.jsonl", "generic_methods.jsonl"):
        assert (out / name).read_bytes() == (chain_out / name).read_bytes()
    chain_methods = read_json(chain_out / "run_report.json")["methods"]
    assert chain_methods["extracted"] == 10 and chain_methods["kept"] == 6
