"""Commit streaming and commit-level filters.

Commits come from the first-parent chain that ends at a branch head,
resolved once, in an on-disk clone, oldest first, with the blob ids
of each changed Java file's two sides and, when asked for, the lines
each commit adds (from git's Myers diff, whatever diff algorithm git's
config names), both taken against the first parent (the root commit is
diffed against the empty tree). The head is read from the clone's own
ref files, the layout of git's default files backend
(gitrepository-layout(5)): the branch's loose ref file, else its
``packed-refs`` line; git is asked only when they cannot answer, so a
re-run that finds every head unchanged starts no git process. File
contents come from one ``git cat-file --batch`` process per repository
and are read by blob id, so git walks no tree to find them.
Line-level change attribution reports only inserted lines: the same
set as the greedy forward Myers search over the whole texts, found
after trimming the common prefix and dropping the lines that occur on
one side only, with one byte per (d, k) of the search on what is left.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path

from .errors import BranchMissing, EmptyInput, RepoUnreadable

_LOG_HEADER = "\x01"
_FIELD_SEP = "\x00"


@dataclass(frozen=True, slots=True)
class CommitRecord:
    repo_id: str
    sha: str
    author_name: str
    author_email: str
    timestamp: int  # UTC seconds
    first_parent_sha: str | None
    changed_java_files: tuple[str, ...]
    files_changed_count: int
    # numstat additions summed over changed .java files; None when the
    # commit was streamed without them
    java_added_lines: int | None
    # per changed .java file: (blob id in the first parent, blob id here),
    # None on a side where the file does not exist (added or deleted)
    java_blobs: tuple[tuple[str | None, str | None], ...]

    def to_record(self) -> dict:
        return {
            "repo": self.repo_id,
            "sha": self.sha,
            "author_name": self.author_name,
            "author_email": self.author_email,
            "ts": self.timestamp,
            "parent": self.first_parent_sha,
            "java_files": list(self.changed_java_files),
            "files_changed": self.files_changed_count,
            "java_added": self.java_added_lines,
        }


@dataclass(frozen=True, slots=True)
class OutlierThreshold:
    q3: float
    iqr: float
    cutoff: float  # q3 + 1.5 * iqr


def _run_git(repo_path: str | Path, *args: str) -> str:
    try:
        result = subprocess.run(
            ["git", "-C", str(repo_path), *args],
            capture_output=True,
            text=True,
            encoding="utf-8",
            errors="replace",
        )
    except OSError as exc:
        raise RepoUnreadable(f"{repo_path}: git {args[0]}: {exc}") from exc
    if result.returncode != 0:
        raise RepoUnreadable(f"{repo_path}: git {args[0]} failed: {result.stderr.strip()}")
    return result.stdout


# an object id as git's files backend stores it: sha1 or sha256, in
# lower-case hex; a loose ref file holds one and a newline
_OBJECT_ID = rb"[0-9a-f]{40}|[0-9a-f]{64}"
_LOOSE_REF = re.compile(rb"(" + _OBJECT_ID + rb")\n?")
# a branch name that git-check-ref-format(1) refuses, or that would name
# another file than its own ref (.git/HEAD, ORIG_HEAD, a lock file): a
# refused character or sequence, an empty or dot-leading component, a
# ".lock" suffix on a component, or a trailing dot
_NOT_A_REF_FILE = re.compile(r"[\x00-\x20\x7f~^:?*\[\\]|\.\.|@\{|(?:^|/)(?:\.|/|$)|\.lock(?:/|$)|\.$")


def _ref_file_head(git_dir: Path, ref: str) -> str | None:
    """The object id the files backend stores for ``ref`` in ``git_dir``:
    its loose ref file when that exists, else its ``packed-refs`` line;
    None when the one read holds no plain object id or cannot be read."""
    try:
        loose = (git_dir / ref).read_bytes()
    except FileNotFoundError:
        pass
    except OSError:  # a worktree's .git file, a directory in the ref's place
        return None
    else:
        match = _LOOSE_REF.fullmatch(loose)
        return match and match[1].decode()
    try:
        packed = (git_dir / "packed-refs").read_bytes()
    except OSError:
        return None
    line = rb"^(" + _OBJECT_ID + rb") " + re.escape(os.fsencode(ref)) + rb"$"
    match = re.search(line, packed, re.MULTILINE)
    return match and match[1].decode()


def resolve_branch(repo_path: str | Path, branch: str) -> str:
    """The sha ``refs/heads/<branch>`` points at.

    It is read from ``<repo_path>/.git/refs/heads/<branch>`` when that
    file exists, else from the branch's line in ``.git/packed-refs``.
    When neither holds a plain 40- or 64-hex object id, or the name is
    one git refuses or one that could read another file (an empty or
    dot-leading component, a ``.lock`` suffix), or ``GIT_DIR`` or
    ``GIT_COMMON_DIR`` points git elsewhere, one ``git for-each-ref``
    answers instead: so a worktree's ``.git`` file, a bare or reftable
    repository and a symbolic ref resolve through git. "" when the
    repository has no branch at all, as before its first commit. A
    repository without ``branch`` raises `BranchMissing`, one that git
    cannot read `RepoUnreadable`. A head read from the files is not
    checked by git: a repository git would refuse (say, through
    ``safe.directory``) fails only at the first git command that reads
    it."""
    if not (_NOT_A_REF_FILE.search(branch) or "GIT_DIR" in os.environ or "GIT_COMMON_DIR" in os.environ):
        head = _ref_file_head(Path(repo_path) / ".git", f"refs/heads/{branch}")
        if head:
            return head
    out = _run_git(repo_path, "for-each-ref", "--format=%(refname) %(objectname)", "refs/heads")
    heads = dict(line.rsplit(" ", 1) for line in out.splitlines())
    if heads and f"refs/heads/{branch}" not in heads:
        raise BranchMissing(f"branch {branch!r} not found in {repo_path}")
    return heads.get(f"refs/heads/{branch}", "")


def stream_commits(
    repo_path: str | Path, head: str, repo_id: str | None = None, numstat: bool = True
) -> list[CommitRecord]:
    """First-parent chain that ends at commit ``head``, oldest first, with
    the changed files and the blob ids of each changed Java file; none
    when ``head`` is "" (a repository without commits). Only with
    ``numstat`` does git diff each changed file to count the Java lines
    a commit adds; without it ``java_added_lines`` is None."""
    path = Path(repo_path)
    if repo_id is None:
        repo_id = path.name
    if not head:
        return []
    out = _run_git(
        path,
        "log",
        "--first-parent",
        "--reverse",
        "--diff-merges=first-parent",
        "--no-renames",  # keeps raw and numstat paths literal
        "--diff-algorithm=myers",  # numstat counts must not follow diff.algorithm in git's config
        *(["--numstat"] if numstat else []),
        "--raw",  # each side's blob id, so no read walks a tree
        "--no-abbrev",
        # %x01/%x00 expand inside git, keeping NUL out of the argv
        "--format=%x01%H%x00%an%x00%ae%x00%at%x00%P",
        head,
        "--",
    )

    commits: list[CommitRecord] = []
    # a record starts at a line that begins with the header mark: its
    # first line is the header, then come a raw line (":<modes> <parent
    # blob> <child blob> <status>\t<path>") and, with numstat, a numstat
    # line per changed file; both list the same files in the same order
    # and spell a path alike, quoting it when it needs quotes
    for record in ("\n" + out).split("\n" + _LOG_HEADER)[1:]:
        header, *lines = record.split("\n")
        sha, name, email, ts, parents = header.split(_FIELD_SEP)
        blobs = {}
        files: list[tuple[str, int | None]] = []  # (path, lines added) per changed file
        for line in lines:
            if line.startswith(":"):
                meta, path = line.split("\t", 1)
                blobs[path] = tuple(blob if blob.strip("0") else None for blob in meta.split(" ")[2:4])
                if not numstat:
                    files.append((path, None))
            elif len(parts := line.split("\t")) >= 3:
                files.append((parts[2], 0 if parts[0] == "-" else int(parts[0])))
        java = [(path, added) for path, added in files if path.endswith(".java")]
        commits.append(CommitRecord(
            repo_id=repo_id,
            sha=sha,
            author_name=name,
            author_email=email,
            timestamp=int(ts),
            first_parent_sha=parents.split()[0] if parents.strip() else None,
            changed_java_files=tuple(p for p, _ in java),
            files_changed_count=len(files),
            java_added_lines=sum(a for _, a in java) if numstat else None,
            java_blobs=tuple(blobs[p] for p, _ in java),
        ))
    return commits


class BlobReader:
    """One ``git cat-file --batch`` child that serves every blob read of
    one repository.

    Use it as a context manager: leaving the block closes the child's
    input and waits for it to exit, killing it when it does not. A child
    that fails while reading raises `RepoUnreadable`.
    """

    def __init__(self, repo_path: str | Path):
        self.repo_path = Path(repo_path)
        try:
            self.process = subprocess.Popen(
                ["git", "-C", str(repo_path), "cat-file", "--batch"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise RepoUnreadable(f"{repo_path}: git cat-file: {exc}") from exc

    def __enter__(self) -> "BlobReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.process.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()

    def read(self, name: str) -> bytes | None:
        """The contents of object ``name`` (a blob id, or any name git
        resolves, such as ``<sha>:<path>``), or None when it is missing or
        not a blob."""
        proc = self.process
        try:
            proc.stdin.write(os.fsencode(name) + b"\n")
            proc.stdin.flush()
            header = proc.stdout.readline()
            if not header:
                raise EOFError(f"no reply, exit status {proc.poll()}")
            fields = header.split()
            if fields and fields[-1] == b"missing":
                return None
            if len(fields) != 3 or not fields[2].isdigit():
                raise ValueError(f"unexpected header {header!r}")
            size = int(fields[2])
            data = proc.stdout.read(size)
            if len(data) != size or proc.stdout.read(1) != b"\n":
                raise EOFError(f"object cut short, exit status {proc.poll()}")
        except (OSError, EOFError, ValueError) as exc:
            raise RepoUnreadable(f"{self.repo_path}: git cat-file --batch on {name}: {exc}") from exc
        return data if fields[1] == b"blob" else None


def read_blob(reader: BlobReader, blob_id: str) -> str | None:
    """The text of blob ``blob_id``; None for missing or undecodable blobs."""
    data = reader.read(blob_id)
    if data is None:
        return None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def filter_bots(commits: list[CommitRecord]) -> list[CommitRecord]:
    """Drop commits whose author name looks automated; order preserved."""
    kept = []
    for c in commits:
        name = c.author_name.lower()
        if "[bot]" in name or "github" in name:
            continue
        kept.append(c)
    return kept


def filter_outliers(commits: list[CommitRecord]) -> tuple[list[CommitRecord], OutlierThreshold]:
    """Drop commits touching more than Q3 + 1.5*IQR files.

    Quartiles use linear interpolation between order statistics.
    """
    if not commits:
        raise EmptyInput("no commits to filter")
    counts = [c.files_changed_count for c in commits]
    # quantiles needs two points; a lone commit is its own quartiles
    q1, _, q3 = statistics.quantiles(counts * 2 if len(counts) == 1 else counts, method="inclusive")
    iqr = q3 - q1
    threshold = OutlierThreshold(q3=q3, iqr=iqr, cutoff=q3 + 1.5 * iqr)
    kept = [c for c in commits if c.files_changed_count <= threshold.cutoff]
    return kept, threshold


def added_lines(parent_text: str, child_text: str) -> list[int]:
    """1-based child line numbers of the lines a minimal line diff
    classifies as insertions, ascending.

    Modified lines surface as delete+insert; only the insert side is
    reported.

    The result is the inserted set of the greedy forward Myers search
    over the whole texts, but the search sees less: the common prefix
    is trimmed (the d = 0 snake would consume it), a child line that
    occurs nowhere in the parent is inserted in every edit script, and
    a parent line that occurs nowhere in the child is deleted in every
    one, so both are dropped before the search.
    """
    a = parent_text.split("\n")
    b = child_text.split("\n")
    if a and a[-1] == "":
        a.pop()
    if b and b[-1] == "":
        b.pop()
    prefix = 0
    for x, y in zip(a, b):
        if x != y:
            break
        prefix += 1
    a, b = a[prefix:], b[prefix:]
    in_a, in_b = set(a), set(b)
    ids: dict[str, int] = {}
    shared_a = [ids.setdefault(line, len(ids)) for line in a if line in in_b]
    shared_at = [j for j, line in enumerate(b) if line in in_a]
    searched = {shared_at[i] for i in _myers_inserted(shared_a, [ids[b[j]] for j in shared_at])}
    return [prefix + j + 1 for j, line in enumerate(b) if line not in in_a or j in searched]


def _myers_inserted(a: list[int], b: list[int]) -> list[int]:
    """0-based indices of b-lines inserted by the shortest edit script
    that the greedy forward search (Myers 1986) finds.

    Each round d keeps one byte per diagonal k in -d..d: whether the
    furthest d-path on k came down from k + 1 (an insertion) or across
    from k - 1 (a deletion), ties going across. Walking those bytes back
    from the last diagonal gives the path, which is then replayed
    forward with its snakes. Memory is one byte per (d, k) plus one
    list of 2 (n + m) ints.
    """
    n, m = len(a), len(b)
    if m == 0:
        return []

    offset = n + m + 1  # v[offset + k]: furthest x on diagonal k
    v = [0] * (2 * offset + 1)
    trace: list[bytearray] = []
    done = False
    for d in range(n + m + 1):
        down = bytearray(d + 1)
        for i in range(d + 1):
            k = 2 * i - d
            if k == -d or (k != d and v[offset + k - 1] < v[offset + k + 1]):
                x = v[offset + k + 1]
                down[i] = 1
            else:
                x = v[offset + k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[offset + k] = x
            if x >= n and y >= m:
                done = True
                break
        trace.append(down)
        if done:
            break

    steps = bytearray(len(trace))  # steps[d]: round d stepped down
    k = n - m
    for d in range(len(trace) - 1, 0, -1):
        steps[d] = trace[d][(k + d) // 2]
        k += 1 if steps[d] else -1

    inserted: list[int] = []
    x = y = 0
    for d in range(len(trace)):
        if d > 0:
            if steps[d]:
                inserted.append(y)
                y += 1
            else:
                x += 1
        while x < n and y < m and a[x] == b[y]:
            x += 1
            y += 1
    return inserted
