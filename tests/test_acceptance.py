"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with ``pytest -s tests/test_acceptance.py``
to see them).
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from itertools import chain
from pathlib import Path

import pytest

from repotailor.assembly import (
    audit_temporal_leak,
    build_org_dataset,
    developer_dataset,
    eligible,
    order_key,
    split_developer,
)
from repotailor.config import load_config
from repotailor.errors import TooFewInstances
from repotailor.insight import breakeven_inferences, load_scenarios, weeks_to_breakeven
from repotailor.masking import (
    APACHE_MASK_DISTRIBUTION,
    BLOCK,
    ISOLATED_LINE,
    generate_generic,
    mask,
    segment,
)
from repotailor.metrics import count_ngrams, score_pair
from repotailor.pipeline import run_assemble, run_compare, run_insight, run_mine, run_score, run_verify
from repotailor.stats import (
    PairedOutcome,
    cliffs_delta_paired,
    mcnemar,
    wilcoxon_signed_rank,
)
from repotailor.storage import read_jsonl

from conftest import (
    build_generic_repo,
    build_org_repo,
    make_instance,
    method_of,
    random_method,
    write_fixture_config,
)
from oracles import bleu_oracle, cliffs_delta_oracle, wilcoxon_enumeration_oracle

BASE_TS = 1_600_000_000


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(criterion: int, label: str, timer: _Timer, budget: float) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS ({timer.elapsed:.2f}s / budget {budget:.0f}s): {label}")
    assert timer.elapsed < budget


def test_criterion_01_segmentation_golden():
    source = "class C {\n    void build() {\n" + "\n".join(
        f"        int v{i} = {i} + {i};" if i != 6 else ""
        for i in range(3, 15)
    ) + "\n    }\n}"
    with _Timer() as t:
        m = method_of(source)
        segments = segment([4, 5, 6, 7, 8, 14], m)
        assert [(s.kind, s.line_numbers) for s in segments] == [
            (BLOCK, (4, 5, 6, 7)),
            (BLOCK, (8,)),
            (ISOLATED_LINE, (14,)),
        ]
    _report(1, "running-example segmentation [4-7], [8], [14]", t, 1.0)


def test_criterion_02_masking_bounds_property():
    rng = random.Random(0xFEED)
    with _Timer() as t:
        checked = 0
        for _ in range(10_000):
            m = random_method(rng)
            body_lines = list(range(m.start_line + 1, m.end_line))
            added = sorted(rng.sample(body_lines, min(len(body_lines), rng.randint(1, 5))))
            for seg in segment(added, m):
                inst = mask(seg, m, rng)
                if inst is not None:
                    assert 3 <= inst.n <= min(50, inst.N - 1)
                    checked += 1
        assert checked > 5_000

        # interval collapse: N=4 always forces n=3
        src = "class C {\n    void f() {\n        int q = 1;\n        a = b;\n    }\n}"
        m = method_of(src)
        seg = segment([4], m)[0]
        for seed in range(500):
            inst = mask(seg, m, random.Random(seed))
            assert inst.n == 3 and inst.N == 4
    _report(2, f"mask bounds hold on {checked} fuzzed instances; N=4 -> n=3", t, 30.0)


def test_criterion_03_temporal_leak_audit():
    rng = random.Random(0xACE)
    with _Timer() as t:
        audited = 0
        for _ in range(1_000):
            devs = {}
            for d in range(rng.randint(2, 4)):
                author = f"dev{d}"
                devs[author] = [
                    make_instance(author, ts=BASE_TS + rng.randint(0, 400), tag=str(i))
                    for i in range(rng.randint(15, 45))
                ]
            anchor = "dev0"
            try:
                split = split_developer(devs[anchor], test_size=5)
            except TooFewInstances:
                continue
            if not eligible(split, min_train=8, test_size=5):
                continue
            org = build_org_dataset(sorted(chain(*devs.values()), key=order_key), anchor, split, seed=11)
            assert audit_temporal_leak([developer_dataset(anchor, split, 11), org], 5, 8) == []
            cutoff = org.manifest.cutoff_ts
            holdout_ts = min(i.timestamp for i in list(split.val) + list(split.test))
            train_ts = [i.timestamp for i in list(org.train) + list(org.val)]
            assert cutoff < holdout_ts
            if train_ts:
                assert max(train_ts) <= cutoff < holdout_ts
            holdout_keys = {(" ".join(i.context.split()), i.target) for i in list(split.val) + list(split.test)}
            assert all(
                (" ".join(i.context.split()), i.target) not in holdout_keys
                for i in list(org.train) + list(org.val)
            )
            audited += 1
        assert audited >= 800
    _report(3, f"temporal-leak audit clean on {audited} fuzzed histories", t, 60.0)


def test_criterion_04_split_arithmetic():
    def series(count):
        return [make_instance("d", ts=BASE_TS + i, tag=str(i)) for i in range(count)]

    with _Timer() as t:
        big = split_developer(series(5_500))
        assert (len(big.train), len(big.val), len(big.test)) == (4_500, 500, 500)
        small = split_developer(series(1_501))
        assert (len(small.train), len(small.val), len(small.test)) == (900, 101, 500)
        at_999 = split_developer(series(1_611))
        assert len(at_999.train) == 999 and not eligible(at_999)
        at_1000 = split_developer(series(1_612))
        assert len(at_1000.train) == 1_000 and eligible(at_1000)
    _report(4, "5500 -> (4500/500/500); 1501 -> (900/101/500); eligibility edge 999/1000", t, 1.0)


def test_criterion_05_crystal_bleu_oracle():
    def crystal_bleu(cand, ref):  # with no exclusions
        return score_pair(count_ngrams(cand, 4), count_ngrams(ref, 4), len(cand), len(ref), set())[0]

    rng = random.Random(0xB1E0)
    vocab = ["if", "(", ")", "{", "}", "x", "y", "=", "==", ";", "return", "0", "1", "call"]
    with _Timer() as t:
        for _ in range(100):
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            assert crystal_bleu(cand, ref) == pytest.approx(
                bleu_oracle(cand, ref), abs=1e-12
            )
        for _ in range(20):
            same = [rng.choice(vocab) for _ in range(rng.randint(4, 30))]
            assert crystal_bleu(same, same) == 1.0
    _report(5, "empty-exclusion CrystalBLEU == independent BLEU (1e-12); identity = 1.0", t, 10.0)


def test_criterion_06_mcnemar_exact_and_swap():
    rng = random.Random(0xCAFE)
    with _Timer() as t:
        assert mcnemar(PairedOutcome(0, 9, 1, 0)).p_value == 0.021484375
        for _ in range(1_000):
            n10, n01 = rng.randint(0, 50), rng.randint(0, 50)
            fwd = mcnemar(PairedOutcome(0, n10, n01, 0))
            rev = mcnemar(PairedOutcome(0, n01, n10, 0))
            assert fwd.p_value == rev.p_value
            if n10 > 0 and n01 > 0:
                assert rev.effect == pytest.approx(1.0 / fwd.effect)
    _report(6, "exact p(9,1) = 0.021484375; OR swap-antisymmetry on 1000 outcomes", t, 10.0)


def test_criterion_07_wilcoxon_exact_and_approx():
    rng = random.Random(0xD1CE)
    with _Timer() as t:
        a = [2.0, 3.0, 4.0, 5.0, 6.0]
        b = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert wilcoxon_signed_rank(a, b).p_value == 0.0625
        for _ in range(20):
            xs = [rng.random() for _ in range(20)]
            ys = [rng.random() for _ in range(20)]
            approx = wilcoxon_signed_rank(xs, ys, method="approx").p_value
            exact = wilcoxon_enumeration_oracle(xs, ys)
            assert abs(approx - exact) < 0.01
    _report(7, "exact p(5 positive) = 0.0625; approx within 0.01 of enumeration at 20 pairs", t, 30.0)


def test_criterion_08_cliffs_delta_brute_force():
    rng = random.Random(0xDE1)
    with _Timer() as t:
        for _ in range(1_000):
            m = rng.randint(1, 40)
            a = [rng.random() for _ in range(m)]
            b = [a[i] if rng.random() < 0.1 else rng.random() for i in range(m)]
            delta = cliffs_delta_paired(a, b)
            assert delta == pytest.approx(cliffs_delta_oracle(a, b), abs=1e-15)
            assert cliffs_delta_paired(b, a) == pytest.approx(-delta, abs=1e-15)
    _report(8, "paired delta == brute-force count and antisymmetric on 1000 vectors", t, 10.0)


def test_criterion_09_generic_distribution_mirroring():
    rng = random.Random(0x9E9E)

    def synthetic_method():
        lines = []
        for i in range(rng.randint(6, 14)):
            terms = " + ".join(f"arg{rng.randint(0, 9)}" for _ in range(rng.randint(3, 9)))
            lines.append(f"        int v{i} = {terms} * {rng.randint(1, 100)};")
        src = "class G {\n    int work(int a, int b) {\n" + "\n".join(lines) + \
              "\n        return a;\n    }\n}"
        return method_of(src)

    with _Timer() as t:
        ns = []
        while len(ns) < 10_000:
            m = synthetic_method()
            ns.extend(i.n for i in generate_generic(m, APACHE_MASK_DISTRIBUTION, rng))
        mean = statistics.mean(ns)
        median = statistics.median(ns)
        assert 10.0 <= mean <= 12.0, mean
        assert 7.0 <= median <= 9.0, median
        assert min(ns) >= 3
    _report(9, f"10k generic instances: mean(n) = {mean:.2f} in [10,12], median = {median} in [7,9]", t, 60.0)


def test_criterion_10_cost_model_reproduction():
    with _Timer() as t:
        scenarios = load_scenarios()
        best, worst = scenarios["best"], scenarios["worst"]
        n_best = breakeven_inferences(best)
        n_worst = breakeven_inferences(worst)
        assert n_best == pytest.approx(44_948, rel=0.01)
        assert n_worst == pytest.approx(272_824, rel=0.01)
        assert weeks_to_breakeven(n_best, best).whole == 4
        assert weeks_to_breakeven(n_worst, worst).whole == 24
    _report(10, f"breakeven {n_best:.0f} / {n_worst:.0f} inferences; 4 / 24 weeks at 10 devs", t, 1.0)


@pytest.fixture(scope="module")
def e2e_repos(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc-repos")
    org = [build_org_repo(base / f"org{i}", i) for i in range(3)]
    generic = [build_generic_repo(base / f"gen{i}", i) for i in range(3)]
    return org, generic


def _full_run(tmp_path: Path, org, generic, out_name: str, seed: int) -> Path:
    out_dir = tmp_path / out_name
    config_path = write_fixture_config(tmp_path, out_dir, org, generic, seed=seed, name=f"{out_name}.json")
    cfg = load_config(config_path)
    run_mine(cfg)
    index = run_assemble(cfg)
    dev_id = next(m["dataset_id"] for m in index["manifests"] if m["role"] == "developer")
    test_rows = list(read_jsonl(out_dir / "datasets" / dev_id / "test.jsonl"))
    preds_path = tmp_path / f"{out_name}-preds.jsonl"
    lines = []
    for i, rec in enumerate(test_rows):
        lines.append({"id": rec["id"], "model": "echo", "text": rec["target"]})
        lines.append({"id": rec["id"], "model": "alt", "text": rec["target"] if i % 2 else "x();"})
    preds_path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    run_score(cfg, dev_id, preds_path)
    report = out_dir / "reports" / f"{dev_id}.score.json"
    run_compare(cfg, report, report, "echo", "alt")
    run_insight(cfg)
    assert run_verify(cfg) == []
    return out_dir


def _tree_digest(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_11_report_surfaces_em_percent(e2e_repos, tmp_path):
    org, generic = e2e_repos
    with _Timer() as t:
        out_dir = _full_run(tmp_path, org, generic, "em-run", seed=7)
        score_files = list((out_dir / "reports").glob("*.score.json"))
        assert score_files
        report = json.loads(score_files[0].read_text(encoding="utf-8"))
        for model_record in report["models"].values():
            assert "em_percent" in model_record
            assert 0.0 <= model_record["em_percent"] <= 100.0
    _report(11, "score reports expose corpus EM% per model for external baselines", t, 120.0)


def test_criterion_12_end_to_end_determinism(e2e_repos, tmp_path):
    org, generic = e2e_repos
    with _Timer() as t:
        first = _full_run(tmp_path, org, generic, "det-a", seed=42)
        second = _full_run(tmp_path, org, generic, "det-b", seed=42)
        digest_a = _tree_digest(first)
        digest_b = _tree_digest(second)
        assert digest_a.keys() == digest_b.keys()
        for rel in digest_a:
            assert digest_a[rel] == digest_b[rel], f"{rel} differs between runs"
    _report(12, f"two full runs produce byte-identical trees ({len(digest_a)} files)", t, 120.0)


# sha256 over the seed-42 fixture run's tree; a change to any output file
# (a refactor that was meant to keep outputs) changes it
PINNED_TREE_SHA256 = "7609ec2b76d2531a4348f0b11c3ce4acc89d88927b29d1a3f142f50505f13b42"


def test_full_run_tree_is_pinned(e2e_repos, tmp_path):
    org, generic = e2e_repos
    out_dir = _full_run(tmp_path, org, generic, "pinned", seed=42)
    # the config hash covers absolute repo paths, so it varies with the
    # checkout location; stamps also hash files that hold it
    config_hash = load_config(tmp_path / "pinned.json").config_hash().encode()
    h = hashlib.sha256()
    for rel, data in _tree_digest(out_dir).items():
        if rel.startswith("stamps/"):
            continue
        h.update(rel.encode("utf-8") + b"\0")
        h.update(data.replace(config_hash, b"<config-hash>") + b"\0")
    assert h.hexdigest() == PINNED_TREE_SHA256
