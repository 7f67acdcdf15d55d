"""Run with: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from generator import Spec, generate  # noqa: E402

TINY = Spec(
    org_repos=2, commits_per_repo=12, files_per_repo=5, files_per_commit=(1, 3),
    methods_per_file=2, statements=5, methods_per_edit=(1, 2), lines_per_edit=(1, 3),
    humans=4, heavy=2, heavy_share=0.9, bot_commits=2, outlier_commits=1,
    non_ascii_files=1, generic_repos=1, generic_commits=4,
    caps={"top_developers": 2, "test_size": 3, "min_train": 8},
)


def _shas(repo: Path) -> list[str]:
    out = subprocess.run(["git", "-C", str(repo), "rev-list", "main"],
                         check=True, capture_output=True, text=True)
    return out.stdout.split()


def test_same_seed_same_commits_and_manifest(tmp_path):
    _, first = generate(TINY, 7, tmp_path / "a", "tiny")
    _, second = generate(TINY, 7, tmp_path / "b", "tiny")
    assert first == second
    for repo in first["repos"]:
        assert _shas(tmp_path / "a" / "repos" / repo) == _shas(tmp_path / "b" / "repos" / repo)


def test_other_seed_other_commits(tmp_path):
    _, first = generate(TINY, 7, tmp_path / "a", "tiny")
    _, other = generate(TINY, 8, tmp_path / "b", "tiny")
    assert first["repos"]["org-0"]["head"] != other["repos"]["org-0"]["head"]


def test_manifest_counts_what_was_written(tmp_path):
    _, man = generate(TINY, 3, tmp_path / "w", "tiny")
    per_repo = TINY.commits_per_repo + TINY.bot_commits + TINY.outlier_commits
    assert man["commits"] == TINY.org_repos * per_repo
    assert man["bot_commits"] == TINY.org_repos * TINY.bot_commits
    assert sum(h["commits"] for h in man["humans"]) == TINY.org_repos * TINY.commits_per_repo
    assert 0 < man["non_ascii_versions"] < man["java_versions_expected"] < man["java_versions_written"]
    for repo in man["repos"]:
        assert len(_shas(tmp_path / "w" / "repos" / repo)) == per_repo
