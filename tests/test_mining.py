from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repotailor
from repotailor import pipeline
from repotailor.cli import main
from repotailor.config import load_config
from repotailor.errors import BranchMissing, EmptyInput, RepoUnreadable
from repotailor.mining import (
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
from repotailor.pipeline import run_mine

from conftest import (
    BASE_TS,
    build_edge_history,
    build_generic_repo,
    build_org_repo,
    commit_files,
    init_repo,
    run_git,
    write_fixture_config,
)
from oracles import q3_iqr_oracle, reference_inserted, reference_mine_commits, reference_resolve_branch


def make_commit(author="alice", email="a@x.com", files=1, ts=BASE_TS, sha="0" * 40):
    return CommitRecord(
        repo_id="r",
        sha=sha,
        author_name=author,
        author_email=email,
        timestamp=ts,
        first_parent_sha=None,
        changed_java_files=(),
        files_changed_count=files,
        java_added_lines=0,
        java_blobs=(),
    )


def main_commits(repo) -> list[CommitRecord]:
    return stream_commits(repo, resolve_branch(repo, "main"))


def test_stream_linear_history(tmp_path):
    repo = init_repo(tmp_path / "lin")
    commit_files(repo, {"A.java": "class A {}\n"}, "one", "Alice", "a@x.com", BASE_TS)
    commit_files(repo, {"A.java": "class A { int x; }\n"}, "two", "Alice", "a@x.com", BASE_TS + 60)
    commit_files(repo, {"B.java": "class B {}\n"}, "three", "Bob", "b@y.com", BASE_TS + 120)
    commits = main_commits(repo)
    assert [c.author_name for c in commits] == ["Alice", "Alice", "Bob"]
    assert [c.timestamp for c in commits] == [BASE_TS, BASE_TS + 60, BASE_TS + 120]
    assert commits[0].first_parent_sha is None
    assert commits[1].first_parent_sha == commits[0].sha
    assert commits[0].changed_java_files == ("A.java",)
    assert commits[0].java_added_lines == 1


def test_stream_counts_empty_binary_and_non_java_changes(tmp_path):
    repo = init_repo(tmp_path / "kinds")
    commit_files(repo, {"A.java": "class A {}\nclass B {}\n", "README.md": "a\n"}, "mixed", "Alice", "a@x.com", BASE_TS)
    commit_files(repo, {}, "empty", "Alice", "a@x.com", BASE_TS + 60)
    (repo / "Blob.java").write_bytes(b"\x00\x01not text\x00")  # numstat reports "-" added lines
    commit_files(repo, {"notes.txt": "x\ny\n"}, "binary", "Bob", "b@y.com", BASE_TS + 120)
    commits = main_commits(repo)
    assert [(c.files_changed_count, c.changed_java_files, c.java_added_lines) for c in commits] == [
        (2, ("A.java",), 2),
        (0, (), 0),
        (2, ("Blob.java",), 0),
    ]
    assert [c.first_parent_sha for c in commits[1:]] == [c.sha for c in commits[:-1]]


def test_stream_without_numstat_lists_the_files_numstat_lists(tmp_path):
    """Raw lines alone give the commits that raw and numstat lines give,
    bar the added-line count: through mode-only changes, a typechange to
    a symlink, binary files, a path git quotes and a delete."""
    repo = init_repo(tmp_path / "raw")
    (repo / "b.bin").write_bytes(b"\x00\x01bin")
    (repo / "Blob.java").write_bytes(b"\x00\x01not text")
    sources = {"A.java": "class A {}\n", "L.java": "class L {}\n", "Gone.java": "class G {}\n", "d/Q.java": "class Q {}\n"}
    commit_files(repo, {**sources, "run.sh": "x\n", "Naïve.java": "class N {}\n"}, "root", "Alice", "a@x.com", BASE_TS)
    (repo / "run.sh").chmod(0o755)
    (repo / "d" / "Q.java").chmod(0o755)
    (repo / "L.java").unlink()
    (repo / "L.java").symlink_to("A.java")
    (repo / "b.bin").write_bytes(b"\x00\x02binary")
    (repo / "Gone.java").unlink()
    commit_files(repo, {"A.java": "class A { }\n", "Naïve.java": "class N { int x; }\n"}, "kinds", "Alice", "a@x.com",
                 BASE_TS + 60)
    head = resolve_branch(repo, "main")
    with_numstat, without = stream_commits(repo, head), stream_commits(repo, head, numstat=False)
    assert [c.java_added_lines for c in with_numstat] == [4, 2]
    assert [c.java_added_lines for c in without] == [None, None]
    assert [replace(c, java_added_lines=None) for c in with_numstat] == without
    assert [(c.files_changed_count, c.changed_java_files) for c in without] == [
        (8, ("A.java", "Blob.java", "Gone.java", "L.java", "d/Q.java")),
        (7, ("A.java", "Gone.java", "L.java", "d/Q.java")),
    ]


def test_stream_merge_commit_follows_first_parent(tmp_path):
    repo = init_repo(tmp_path / "merge")
    commit_files(repo, {"A.java": "class A {}\n"}, "base", "Alice", "a@x.com", BASE_TS)
    commit_files(repo, {"A.java": "class A { int x; }\n"}, "mainline", "Alice", "a@x.com", BASE_TS + 60)
    main_head = run_git(repo, "rev-parse", "HEAD").strip()
    run_git(repo, "checkout", "-q", "-b", "side", "HEAD~1")
    side_sha = commit_files(repo, {"B.java": "class B {}\n"}, "side work", "Bob", "b@y.com", BASE_TS + 90)
    run_git(repo, "checkout", "-q", "main")
    date = f"{BASE_TS + 120} +0000"
    run_git(
        repo, "merge", "-q", "--no-ff", "-m", "merge side", "side",
        env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date},
    )
    commits = main_commits(repo)
    shas = [c.sha for c in commits]
    assert side_sha not in shas  # side branch commits excluded from the chain
    assert len(commits) == 3
    merge = commits[-1]
    assert merge.first_parent_sha == main_head
    assert merge.changed_java_files == ("B.java",)  # diffed vs first parent


# Two methods swapped and one added: Myers and histogram diffs count
# different added lines for this edit
SWAP_BEFORE = """class A {
    void f() {
        x();
        y();
    }

    void g() {
        x();
        y();
    }
}
"""
SWAP_AFTER = """class A {
    void g() {
        x();
        y();
    }

    void f() {
        x();
        y();
    }

    void h() {
        z();
    }
}
"""


def test_mine_counts_added_lines_by_myers_whatever_the_configured_diff_algorithm(tmp_path):
    """`diff.algorithm` in a repository's config changes what `git log
    --numstat` counts on an ambiguous edit, not what `mine` writes."""
    repo = init_repo(tmp_path / "swap")
    commit_files(repo, {"A.java": SWAP_BEFORE}, "one", "Alice", "a@x.com", BASE_TS)
    commit_files(repo, {"A.java": SWAP_AFTER}, "two", "Alice", "a@x.com", BASE_TS + 60)

    def added(algorithm: str) -> int:
        numstat = run_git(repo, "-c", f"diff.algorithm={algorithm}", "log", "-1", "--numstat", "--format=")
        return int(numstat.split()[0])

    def mined(name: str) -> bytes:
        out = tmp_path / name
        run_mine(load_config(write_fixture_config(tmp_path, out, [repo], name=f"{name}.json")))
        return (out / "commits.jsonl").read_bytes()

    assert added("histogram") != added("myers")
    default = mined("default")
    assert json.loads(default.splitlines()[-1])["java_added"] == added("myers")
    run_git(repo, "config", "diff.algorithm", "histogram")
    assert mined("histogram") == default


def test_stream_empty_repository(tmp_path):
    repo = init_repo(tmp_path / "empty")
    assert resolve_branch(repo, "main") == ""
    assert stream_commits(repo, "") == []


def test_stream_missing_branch(tmp_path):
    repo = init_repo(tmp_path / "mb")
    commit_files(repo, {"A.java": "class A {}\n"}, "one", "Alice", "a@x.com", BASE_TS)
    with pytest.raises(BranchMissing):
        resolve_branch(repo, "nope")


def test_stream_unreadable_repo(tmp_path):
    with pytest.raises(RepoUnreadable):
        resolve_branch(tmp_path / "missing", "main")
    with pytest.raises(RepoUnreadable):
        stream_commits(tmp_path / "missing", "0" * 40)


def _committed(repo: Path, text: str = "class A {}\n") -> Path:
    commit_files(repo, {"A.java": text}, text, "Alice", "a@x.com", BASE_TS)
    return repo


def _git_version() -> tuple[int, ...]:
    return tuple(int(part) for part in run_git(Path("."), "--version").split()[2].split(".")[:2])


def _loose(tmp_path, monkeypatch):
    return _committed(init_repo(tmp_path / "r")), "main"


def _packed(tmp_path, monkeypatch):
    repo, branch = _loose(tmp_path, monkeypatch)
    run_git(repo, "pack-refs", "--all")
    assert not (repo / ".git" / "refs" / "heads" / "main").exists()
    return repo, branch


def _committed_after_packing(tmp_path, monkeypatch):
    repo, branch = _packed(tmp_path, monkeypatch)
    _committed(repo, "class A { int x; }\n")
    assert run_git(repo, "rev-parse", "main").strip() not in (repo / ".git" / "packed-refs").read_text()
    return repo, branch


def _packed_name_prefix(tmp_path, monkeypatch):
    return _packed(tmp_path, monkeypatch)[0], "mai"


def _sha256_objects(tmp_path, monkeypatch):
    return _committed(init_repo(tmp_path / "r", options=("--object-format=sha256",))), "main"


def _worktree(tmp_path, monkeypatch):
    repo, _ = _loose(tmp_path, monkeypatch)
    run_git(repo, "worktree", "add", "-q", "-b", "side", str(tmp_path / "wt"))
    assert (tmp_path / "wt" / ".git").is_file()
    return tmp_path / "wt", "side"


def _bare(tmp_path, monkeypatch):
    repo, branch = _loose(tmp_path, monkeypatch)
    run_git(tmp_path, "clone", "-q", "--bare", str(repo), str(tmp_path / "bare.git"))
    return tmp_path / "bare.git", branch


def _symbolic(tmp_path, monkeypatch):
    repo, _ = _loose(tmp_path, monkeypatch)
    run_git(repo, "symbolic-ref", "refs/heads/alias", "refs/heads/main")
    return repo, "alias"


def _empty(tmp_path, monkeypatch):
    return init_repo(tmp_path / "r"), "main"


def _missing_branch(tmp_path, monkeypatch):
    return _loose(tmp_path, monkeypatch)[0], "nope"


def _missing_path(tmp_path, monkeypatch):
    return tmp_path / "missing", "main"


def _garbage(tmp_path, monkeypatch):
    """A loose ref file holding garbage over a packed line: git ignores
    the broken ref, packed line and all."""
    repo, _ = _loose(tmp_path, monkeypatch)
    run_git(repo, "branch", "junk")
    run_git(repo, "pack-refs", "--all")
    (repo / ".git" / "refs" / "heads" / "junk").write_text("not an object id\n")
    return repo, "junk"


def _named(branch: str):
    """A repository with branches ``main`` and ``a/b``, whose .git holds a
    plain object id wherever ``branch`` could read one: ORIG_HEAD,
    refs/HEAD, a dot-leading ref file and a lock file."""
    def build(tmp_path, monkeypatch):
        repo, _ = _loose(tmp_path, monkeypatch)
        run_git(repo, "branch", "a/b")
        run_git(repo, "reset", "-q", "--hard", "HEAD")  # writes ORIG_HEAD
        git = repo / ".git"
        for stray in ("refs/HEAD", "refs/heads/.hidden", "refs/heads/main.lock"):
            (git / stray).write_text((git / "ORIG_HEAD").read_text())
        return repo, branch
    return build


def _elsewhere(tmp_path, monkeypatch):
    repo, branch = _loose(tmp_path, monkeypatch)
    other = _committed(init_repo(tmp_path / "other"), "class B {}\n")
    monkeypatch.setenv("GIT_DIR", str(other / ".git"))  # git reads the other repository
    return repo, branch


def _reftable(tmp_path, monkeypatch):
    return _committed(init_repo(tmp_path / "r", options=("--ref-format=reftable",))), "main"


def _resolved(resolve, repo, branch):
    try:
        return resolve(repo, branch)
    except (BranchMissing, RepoUnreadable) as exc:
        return type(exc)


SHA = "sha"  # an object id, whichever


@pytest.mark.parametrize("build, answer, spawns", [
    pytest.param(_loose, SHA, 0, id="loose"),
    pytest.param(_packed, SHA, 0, id="packed"),
    pytest.param(_committed_after_packing, SHA, 0, id="committed-after-packing"),
    pytest.param(_packed_name_prefix, BranchMissing, 1, id="packed-name-prefix"),
    pytest.param(_sha256_objects, SHA, 0, id="sha256-objects"),
    pytest.param(_worktree, SHA, 1, id="worktree"),
    pytest.param(_bare, SHA, 1, id="bare"),
    pytest.param(_symbolic, SHA, 1, id="symbolic-ref"),
    pytest.param(_empty, "", 1, id="empty"),
    pytest.param(_missing_branch, BranchMissing, 1, id="missing-branch"),
    pytest.param(_missing_path, RepoUnreadable, 1, id="missing-path"),
    pytest.param(_garbage, BranchMissing, 1, id="garbage-ref-file"),
    pytest.param(_named("../HEAD"), BranchMissing, 1, id="dot-dot-HEAD"),
    pytest.param(_named("../../ORIG_HEAD"), BranchMissing, 1, id="ORIG_HEAD"),
    pytest.param(_named(".hidden"), BranchMissing, 1, id="dot-leading"),
    pytest.param(_named("a//b"), BranchMissing, 1, id="empty-component"),
    pytest.param(_named("main.lock"), BranchMissing, 1, id="lock-suffix"),
    pytest.param(_elsewhere, SHA, 1, id="GIT_DIR"),
    pytest.param(_reftable, SHA, 1, id="reftable", marks=pytest.mark.skipif(
        _git_version() < (2, 45), reason="git init --ref-format=reftable needs git 2.45 or later")),
])
def test_resolve_branch_answers_as_git_for_each_ref(tmp_path, monkeypatch, started, build, answer, spawns):
    """What the ref files answer is what ``git for-each-ref`` answers, and
    every case they cannot answer asks git, once."""
    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.delenv("GIT_COMMON_DIR", raising=False)
    repo, branch = build(tmp_path, monkeypatch)
    before = len(started)
    got = _resolved(resolve_branch, repo, branch)
    assert [p.args[3] for p in started[before:]] == ["for-each-ref"] * spawns
    assert got == _resolved(reference_resolve_branch, repo, branch)
    if answer == SHA:
        assert re.fullmatch(r"[0-9a-f]{40}|[0-9a-f]{64}", got)
    else:
        assert got == answer


def test_filter_bots():
    commits = [
        make_commit("dependabot[bot]"),
        make_commit("GitHub Actions"),
        make_commit("alice"),
        make_commit("BIGithub Person"),  # substring match, case-insensitive
        make_commit("Alice [BOT] Smith"),
    ]
    kept = filter_bots(commits)
    assert [c.author_name for c in kept] == ["alice"]


def test_filter_bots_idempotent():
    commits = [make_commit("alice"), make_commit("bot-like but fine")]
    once = filter_bots(commits)
    assert filter_bots(once) == once


def test_filter_outliers_degenerate():
    commits = [make_commit(files=4, sha=f"{i:040x}") for i in range(6)]
    kept, threshold = filter_outliers(commits)
    assert len(kept) == 6
    assert threshold.iqr == 0.0
    assert threshold.cutoff == 4.0


def test_filter_outliers_derived_case():
    counts = [1, 1, 2, 2, 3, 3, 3, 4, 4, 200]
    commits = [make_commit(files=c, sha=f"{i:040x}") for i, c in enumerate(counts)]
    kept, threshold = filter_outliers(commits)
    q3, iqr = q3_iqr_oracle([float(c) for c in counts])
    assert threshold.q3 == pytest.approx(q3)
    assert threshold.iqr == pytest.approx(iqr)
    assert threshold.cutoff == pytest.approx(q3 + 1.5 * iqr)
    assert [c.files_changed_count for c in kept] == counts[:-1]


def test_filter_outliers_single_commit():
    kept, threshold = filter_outliers([make_commit(files=7)])
    assert len(kept) == 1
    assert threshold.cutoff == 7.0


def test_filter_outliers_quartiles_equal_numpy():
    import numpy as np

    rng = random.Random(1209)
    cases = [[3, 9], [5, 5], [4] * 17, [1, 1000]]
    cases += [[rng.randint(1, rng.choice([5, 60, 5000])) for _ in range(rng.randint(2, 300))] for _ in range(300)]
    for counts in cases:
        commits = [make_commit(files=c, sha=f"{i:040x}") for i, c in enumerate(counts)]
        _, threshold = filter_outliers(commits)
        q1, q3 = np.quantile(np.array(counts, dtype=float), [0.25, 0.75])
        iqr = float(q3 - q1)
        assert threshold == OutlierThreshold(q3=float(q3), iqr=iqr, cutoff=float(q3) + 1.5 * iqr), counts


_NUMPY_PROBE = """
import sys
import repotailor
from repotailor.mining import CommitRecord, filter_outliers
commits = [CommitRecord("r", f"{i:040x}", "a", "a@x", i, None, (), c, 0, ()) for i, c in enumerate([1, 2, 9, 40])]
filter_outliers(commits)
print("numpy" in sys.modules)
"""


def test_import_and_filter_outliers_leave_numpy_unloaded():
    src = str(Path(repotailor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_filter_outliers_empty_raises():
    with pytest.raises(EmptyInput):
        filter_outliers([])


def test_filter_outliers_idempotent_and_safe_below_q3():
    rng = random.Random(5)
    for _ in range(50):
        counts = [rng.randint(1, 30) for _ in range(rng.randint(1, 40))]
        commits = [make_commit(files=c, sha=f"{i:040x}") for i, c in enumerate(counts)]
        kept, threshold = filter_outliers(commits)
        for c in commits:
            if c.files_changed_count <= threshold.q3:
                assert c in kept  # never drops anything at or below Q3
        again, _ = filter_outliers(kept)
        assert again == kept


def test_added_lines_identical_texts():
    assert added_lines("a\nb", "a\nb") == []


def test_added_lines_single_insertion():
    assert added_lines("a\nb", "a\nX\nb") == [2]


def test_added_lines_modification_reported_as_insert():
    assert added_lines("a\nb\nc", "a\nB\nc\nd") == [2, 4]


def test_added_lines_from_empty_parent():
    assert added_lines("", "x\ny\nz") == [1, 2, 3]


def test_added_lines_positions_match_child_fuzz():
    rng = random.Random(17)
    for _ in range(200):
        parent = [rng.choice("abcde") for _ in range(rng.randint(0, 12))]
        child = [rng.choice("abcde") for _ in range(rng.randint(0, 12))]
        parent_text = "\n".join(parent)
        child_text = "\n".join(child)
        result = added_lines(parent_text, child_text)
        assert result == sorted(set(result))
        assert all(1 <= n <= len(child) for n in result)
        assert added_lines(parent_text, parent_text) == []


def _assert_inserts_match_reference(parent_text: str, child_text: str) -> None:
    a = parent_text.split("\n")
    b = child_text.split("\n")
    if a and a[-1] == "":
        a.pop()
    if b and b[-1] == "":
        b.pop()
    got = [n - 1 for n in added_lines(parent_text, child_text)]
    assert got == reference_inserted(a, b), (parent_text, child_text)


def test_added_lines_matches_reference_on_every_small_pair():
    """Every pair of texts of at most five lines, with one line only the
    parent can have and one only the child can have."""
    def texts(alphabet: str) -> list[str]:
        return ["\n".join(t) for size in range(6) for t in itertools.product(alphabet, repeat=size)]

    children = texts("xyQ")
    for parent_text in texts("xyP"):
        for child_text in children:
            _assert_inserts_match_reference(parent_text, child_text)


def test_added_lines_matches_reference_on_random_edits():
    rng = random.Random(23)
    for _ in range(3000):
        pool = [f"line {i}" for i in range(rng.randint(1, 6))]
        parent = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        child = list(parent)
        for _ in range(rng.randint(0, 8)):
            at = rng.randint(0, len(child))
            kind = rng.random()
            if kind < 0.3:  # a line only the child has, maybe repeated
                child[at:at] = ["new"] * rng.randint(1, 3)
            elif kind < 0.6:
                child[at:at] = [rng.choice(pool)]
            elif child:
                del child[min(at, len(child) - 1)]
        if rng.random() < 0.3:  # a line only the parent has, repeated
            for _ in range(rng.randint(1, 3)):
                parent.insert(rng.randint(0, len(parent)), "old")
        ends = ("", "\n")
        _assert_inserts_match_reference("\n".join(parent) + rng.choice(ends), "\n".join(child) + rng.choice(ends))


def test_added_lines_matches_reference_on_empty_sides_and_trailing_newlines():
    texts = ["", "\n", "\n\n", "a", "a\n", "a\n\n", "\na", "a\nb", "a\nb\n", "b\na\n", "a\na\n", "x\na"]
    for parent_text in texts:
        for child_text in texts:
            _assert_inserts_match_reference(parent_text, child_text)
    assert added_lines("x", "x\nx") == [2]  # no suffix trimming


def test_added_lines_matches_reference_on_table_block_rewrite():
    """A block of initializer rows rewritten, as the large-rewrite
    histories do, with a few rows that repeat on both sides."""
    rng = random.Random(5)

    def row() -> str:
        if rng.random() < 0.05:
            return "        {0, 0, 0, 0, 0, 0},"
        return "        {" + ", ".join(str(rng.randrange(100000)) for _ in range(6)) + "},"

    head = ["package p;", "", "class T {", "    static final int[][] TABLE = {"]
    tail = ["    };", "", "    int f(int x) {", "        return x;", "    }", "}"]
    for rows, block in ((40, 10), (300, 120), (600, 600)):
        table = [row() for _ in range(rows)]
        start = rng.randrange(rows - block + 1)
        rewritten = table[:start] + [row() for _ in range(block)] + table[start + block:]
        parent_text = "\n".join(head + table + tail) + "\n"
        child_text = "\n".join(head + rewritten + tail) + "\n"
        _assert_inserts_match_reference(parent_text, child_text)


_DIFF_MEMORY_PROBE = """
import random, resource
from repotailor.mining import added_lines

def status_kb(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field + ":"))

vm_kb = status_kb("VmSize")
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = (vm_kb + 512 * 1024) * 1024  # a diff that grows past this fails fast
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))

every_line = added_lines("\\n".join(f"old {i}" for i in range(5000)), "\\n".join(f"new {i}" for i in range(5000)))
assert len(every_line) == 5000
shared = ["}", "", "    return x;", "    {", "int y = 0;", "// y"]
rng = random.Random(7)
parent, child = ([rng.choice(shared) for _ in range(2000)] for _ in range(2))
assert 0 < len(added_lines("\\n".join(parent), "\\n".join(child))) < 2000
print(status_kb("VmHWM") // 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_added_lines_peak_memory_is_bounded():
    """A 5,000-line rewrite where every line changes, and a 2,000-line
    rewrite drawn from six shared lines, diffed in a child process whose
    peak RSS must stay under 100 MB.

    The peak is the child's ``VmHWM``: its ``ru_maxrss`` would also count
    the test process, whose memory the child held until its ``exec``."""
    src = str(Path(repotailor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _DIFF_MEMORY_PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 100  # MB; importing repotailor alone takes about 33


def _git_show(repo, sha, file):
    """File content at a commit as ``git show <sha>:<path>`` gives it;
    None when git fails or the bytes are not UTF-8."""
    result = subprocess.run(["git", "-C", str(repo), "show", f"{sha}:{file}"], capture_output=True)
    if result.returncode != 0:
        return None
    try:
        return result.stdout.decode("utf-8")
    except UnicodeDecodeError:
        return None


def test_read_blob_matches_git_show_on_fixture_repos(tmp_path):
    repos = [build_org_repo(tmp_path / "org", 0), build_generic_repo(tmp_path / "gen", 0)]
    compared = 0
    for repo in repos:
        with BlobReader(repo) as reader:
            for commit in main_commits(repo):
                for file, (parent_id, child_id) in zip(commit.changed_java_files, commit.java_blobs):
                    assert read_blob(reader, child_id) == _git_show(repo, commit.sha, file)
                    if commit.first_parent_sha is not None:
                        parent = read_blob(reader, parent_id) if parent_id else None
                        assert parent == _git_show(repo, commit.first_parent_sha, file)
                    compared += 1
    assert compared > 25  # the outlier commit alone adds 25 new files


MULTI_BYTE = "class M { String s = \"na\u00efve \u65e5\u672c \U0001f600\"; }\n"
LOOKS_LIKE_HEADER = f"{'ab' * 20} blob 12\n{'cd' * 20}:X.java missing\nclass H {{}}\n"


@pytest.fixture
def edge_repo(tmp_path):
    """Commit 1 adds A.java; commit 2 changes it and adds files with
    edge-case contents, one of them Latin-1 encoded."""
    repo = init_repo(tmp_path / "edge")
    commit_files(repo, {"A.java": "class A {}\n"}, "one", "Alice", "a@x.com", BASE_TS)
    (repo / "Latin.java").write_bytes("class L { String s = \"caf\u00e9\"; }\n".encode("latin-1"))
    commit_files(repo, {
        "A.java": "class A {\n    int f() { return 1; }\n}\n",
        "Empty.java": "",
        "pkg/NoEol.java": "class N {}",
        "Multi.java": MULTI_BYTE,
        "Header.java": LOOKS_LIKE_HEADER,
    }, "two", "Alice", "a@x.com", BASE_TS + 60)
    return repo


def test_read_blob_edge_cases(edge_repo):
    second = main_commits(edge_repo)[1]
    ids = dict(zip(second.changed_java_files, second.java_blobs))
    with BlobReader(edge_repo) as reader:
        assert ids["Empty.java"][0] is None  # absent in the parent
        assert read_blob(reader, "f" * 40) is None  # no such object
        assert read_blob(reader, ids["Latin.java"][1]) is None  # not UTF-8
        assert read_blob(reader, ids["Empty.java"][1]) == ""
        assert read_blob(reader, ids["pkg/NoEol.java"][1]) == "class N {}"
        assert read_blob(reader, ids["Multi.java"][1]) == MULTI_BYTE
        assert read_blob(reader, ids["Header.java"][1]) == LOOKS_LIKE_HEADER
        assert read_blob(reader, ids["A.java"][0]) == "class A {}\n"  # still in step after them
        tree = run_git(edge_repo, "rev-parse", f"{second.sha}:pkg").strip()
        assert read_blob(reader, tree) is None  # a tree, not a blob


def test_undecodable_blob_is_counted(edge_repo, tmp_path):
    cfg = load_config(write_fixture_config(tmp_path, tmp_path / "out", [edge_repo]))
    report = run_mine(cfg)
    assert report["files"]["undecodable"] == 1


def test_deleted_java_file_is_not_read(tmp_path):
    """A Java file that a commit deletes has no blob on its child side: it
    is not read, so it is not counted as undecodable."""
    repos = []
    for name in ("org", "gen"):
        repo = init_repo(tmp_path / name)
        commit_files(repo, {"A.java": "class A {}\n", "Gone.java": "class G {}\n"}, "one", "Alice", "a@x.com", BASE_TS)
        (repo / "Gone.java").unlink()
        commit_files(repo, {"A.java": "class A { int x; }\n"}, "two", "Alice", "a@x.com", BASE_TS + 60)
        repos.append(repo)
    second = main_commits(repos[0])[1]
    gone = run_git(repos[0], "rev-parse", f"{second.first_parent_sha}:Gone.java").strip()
    assert dict(zip(second.changed_java_files, second.java_blobs))["Gone.java"] == (gone, None)
    config_path = write_fixture_config(tmp_path, tmp_path / "out", repos[:1], repos[1:])
    assert main(["mine", "--config", str(config_path)]) == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text(encoding="utf-8"))
    assert report["files"]["undecodable"] == 0
    assert report["generic"]["undecodable_files"] == 0


def test_mine_by_blob_id_equals_mining_by_commit_and_path(tmp_path, monkeypatch):
    """Reading each blob once by id, and each header once, mines what
    reading every file at ``<sha>:<path>`` and lexing every header did."""
    org = build_edge_history(tmp_path / "edge")
    generic = build_edge_history(tmp_path / "edge-gen")
    trees = {}
    for side in ("by-id", "by-path"):
        if side == "by-path":
            monkeypatch.setattr(pipeline, "_mine_commits", reference_mine_commits)
        out = tmp_path / side
        config_path = write_fixture_config(tmp_path, out, [org], [generic], name=f"{side}.json")
        assert main(["mine", "--config", str(config_path)]) == 0
        trees[side] = {name: (out / name).read_bytes()
                       for name in ("instances.jsonl", "generic_methods.jsonl", "run_report.json", "commits.jsonl")}
    assert trees["by-id"] == trees["by-path"]
    report = json.loads(trees["by-id"]["run_report.json"])
    assert report["commits"]["total"] == 10 and report["commits"]["after_outlier_filter"] == 9  # only the bot's goes
    assert report["files"]["undecodable"] == 2 and report["generic"]["undecodable_files"] == 2
    shas = {json.loads(line)["sha"] for line in trees["by-id"]["instances.jsonl"].splitlines()}
    merge = run_git(org, "rev-parse", "HEAD").strip()
    root = run_git(org, "rev-list", "--max-parents=0", "HEAD").strip()
    assert {merge, root} <= shas and len(shas) == 9


def test_reader_whose_child_died_raises(edge_repo):
    (_, blob_id), = main_commits(edge_repo)[0].java_blobs
    with BlobReader(edge_repo) as reader:
        assert read_blob(reader, blob_id) == "class A {}\n"
        reader.process.kill()
        reader.process.wait(timeout=10)
        with pytest.raises(RepoUnreadable):
            read_blob(reader, blob_id)
    assert reader.process.returncode is not None


def test_failing_git_log_is_repo_unreadable(edge_repo, tmp_path, capsys):
    blob = run_git(edge_repo, "rev-parse", "HEAD~1:A.java").strip()
    (edge_repo / ".git" / "objects" / blob[:2] / blob[2:]).unlink()  # numstat cannot diff it
    with pytest.raises(RepoUnreadable, match="git log failed"):
        main_commits(edge_repo)
    config_path = write_fixture_config(tmp_path, tmp_path / "out", [edge_repo])
    assert main(["mine", "--config", str(config_path)]) == 3
    assert "data error" in capsys.readouterr().err


def test_missing_git_is_repo_unreadable(edge_repo, tmp_path, monkeypatch, capsys):
    config_path = write_fixture_config(tmp_path, tmp_path / "out", [edge_repo])
    empty = tmp_path / "no-git"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert main(["mine", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(edge_repo) in err
