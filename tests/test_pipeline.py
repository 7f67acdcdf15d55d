from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repotailor.assembly import (
    ROLE_BASELINE_PLUS,
    ROLE_DEVELOPER,
    ROLE_ORG_SUBSET,
    ROLE_ORGANIZATION,
)
from repotailor.cli import main
from repotailor.config import load_config
from repotailor.errors import ConfigError, ConfigHashMismatch, MissingStage
from repotailor.pipeline import (
    run_assemble,
    run_compare,
    run_insight,
    run_mine,
    run_score,
    run_verify,
)
from repotailor.storage import read_json, read_jsonl

from conftest import build_generic_repo, build_org_repo, write_fixture_config


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


def _future(row, holdout_row):
    row["ts"] += 10**9  # an instance from the far future


def _duplicate(row, holdout_row):
    row["context"], row["target"] = holdout_row["context"], holdout_row["target"]


def _org_repo(row, holdout_row):
    row["repo"] = "org0"


@pytest.mark.parametrize("role, plant, expected", [
    pytest.param(ROLE_DEVELOPER, _future, "train newer than holdout", id="developer-future"),
    pytest.param(ROLE_DEVELOPER, _duplicate, "duplicates anchor holdout", id="developer-duplicate"),
    pytest.param(ROLE_ORGANIZATION, _future, "newer than cutoff", id="organization-future"),
    pytest.param(ROLE_ORGANIZATION, _duplicate, "duplicates anchor holdout", id="organization-duplicate"),
    pytest.param(ROLE_ORG_SUBSET, _future, "newer than cutoff", id="org-subset-future"),
    pytest.param(ROLE_ORG_SUBSET, _duplicate, "duplicates anchor holdout", id="org-subset-duplicate"),
    pytest.param(ROLE_BASELINE_PLUS, _future, "first test ts", id="baseline-plus-future"),
    pytest.param(ROLE_BASELINE_PLUS, _duplicate, "duplicates anchor holdout", id="baseline-plus-duplicate"),
    pytest.param(ROLE_BASELINE_PLUS, _org_repo, "organization repository", id="baseline-plus-org-repo"),
])
def test_verify_flags_planted_leak(mined, tmp_path, role, plant, expected):
    cfg, config_path, _, index = mined
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    man = next(m for m in index["manifests"] if m["role"] == role)
    holdout_row = next(read_jsonl(out / "datasets" / f"dev-{man['anchor_developer']}" / "test.jsonl"))
    train_path = out / man["path"] / "train.jsonl"
    rows = list(read_jsonl(train_path))
    plant(rows[0], holdout_row)
    train_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    violations = run_verify(load_config(config_path, out_dir=str(out)))
    assert any(v.startswith(f"{man['dataset_id']}: ") and expected in v for v in violations), violations


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


def test_insight_lexes_each_distinct_method_text_once(mined, monkeypatch):
    from repotailor import insight
    from repotailor.insight import reconstruct_method_text
    from repotailor.masking import CompletionInstance

    cfg, _, _, index = mined
    out = Path(cfg.out_dir)
    parts = [out / "generic_pool.jsonl"]
    for man in index["manifests"]:
        if man["anchor_developer"]:
            parts += [out / man["path"] / "train.jsonl", out / man["path"] / "test.jsonl"]
    texts = {
        reconstruct_method_text(CompletionInstance.from_record(rec))
        for path in parts for rec in read_jsonl(path)
    }
    calls = []
    real_lex = insight.lex
    monkeypatch.setattr(insight, "lex", lambda text: calls.append(text) or real_lex(text))
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
    assert (out / "generic_methods.jsonl").exists() and (out / "generic_pool.jsonl").exists()
    generic_ids = {
        m["dataset_id"] for m in before["manifests"]
        if m["dataset_id"] in ("generic", "pretrain") or m["dataset_id"].startswith("bplus-")
    }
    assert "generic" in generic_ids

    without = load_config(write_fixture_config(tmp_path, out, org, name="org.json"))
    run_mine(without)
    after = run_assemble(without)
    assert not (out / "generic_methods.jsonl").exists()
    assert not (out / "generic_pool.jsonl").exists()
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


def test_cli_run_stage_alias(fixture_repos, tmp_path, capsys):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "alias-out", org, name="alias.json")
    assert main(["run", "--config", str(config_path), "--stage", "mine"]) == 0
    out = capsys.readouterr().out
    assert "mined" in out


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"organization": "x", "repos": [], "seed": 1, "out_dir": "o"}')
    with pytest.raises(ConfigError):
        load_config(bad)
    worse = tmp_path / "worse.json"
    worse.write_text('{"organization": "x"}')
    with pytest.raises(ConfigError):
        load_config(worse)


@pytest.mark.parametrize("key, value", [
    pytest.param("caps", {"test_size": "5"}, id="cap-not-int"),
    pytest.param("caps", [1], id="caps-not-object"),
    pytest.param("caps", {"test_sise": 5}, id="cap-key-misspelled"),
    pytest.param("crystal_bleu", {"k": "a"}, id="knob-not-int"),
    pytest.param("crystal_bleu", {"max_order": 0}, id="knob-not-positive"),
    pytest.param("repos", [{"path": "/"}], id="repo-id-empty"),
    pytest.param("seed", "abc", id="seed-not-int"),
    pytest.param("seed", True, id="seed-bool"),
    pytest.param("seed", 7.0, id="seed-float"),
])
def test_bad_config_values_exit_2(fixture_repos, tmp_path, capsys, key, value):
    org, _ = fixture_repos
    config_path = write_fixture_config(tmp_path, tmp_path / "out", org)
    data = json.loads(config_path.read_text())
    data[key] = value
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mine", "--config", str(config_path)]) == 2
    assert "config error" in capsys.readouterr().err


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
