from __future__ import annotations

import random
import subprocess
from pathlib import Path

import pytest

from repotailor.javamethods import MethodUnit, extract_methods
from repotailor.masking import CompletionInstance

BASE_TS = 1_600_000_000  # fixed epoch base so fixture dates never drift


def run_git(repo: Path, *args: str, env: dict | None = None) -> str:
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    result = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        env=full_env,
    )
    assert result.returncode == 0, f"git {args}: {result.stderr}"
    return result.stdout


def run_python(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this checkout's repotailor."""
    import os
    import sys

    import repotailor

    src = str(Path(repotailor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


# A Python expression for a child script: its peak resident set in KB so far (Linux)
PEAK_KB = "int(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))"
HAS_PEAK_KB = Path("/proc/self/status").exists()


def init_repo(path: Path, branch: str = "main", options: tuple[str, ...] = ()) -> Path:
    """A new repository at ``path``; ``options`` go to ``git init``."""
    path.mkdir(parents=True, exist_ok=True)
    run_git(path, "init", "-q", *options, "-b", branch, ".")
    run_git(path, "config", "user.email", "fixture@example.com")
    run_git(path, "config", "user.name", "Fixture")
    run_git(path, "config", "commit.gpgsign", "false")
    return path


def commit_files(
    repo: Path,
    files: dict[str, str],
    message: str,
    author: str,
    email: str,
    ts: int,
) -> str:
    for rel, content in files.items():
        target = repo / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    run_git(repo, "add", "-A")
    date = f"{ts} +0000"
    run_git(
        repo,
        "commit",
        "-q",
        "--allow-empty",
        "-m",
        message,
        "--author",
        f"{author} <{email}>",
        env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date},
    )
    return run_git(repo, "rev-parse", "HEAD").strip()


def method_of(source: str, index: int = 0) -> MethodUnit:
    methods = extract_methods(source)
    assert methods, "fixture source produced no methods"
    return methods[index]


def random_method(rng: random.Random, body_lines: int | None = None) -> MethodUnit:
    """A synthetic Java method with varied line shapes for fuzzing."""
    if body_lines is None:
        body_lines = rng.randint(2, 10)
    lines = []
    for i in range(body_lines):
        shape = rng.random()
        if shape < 0.12:
            lines.append("")  # empty line
        elif shape < 0.22:
            lines.append("        }" if rng.random() < 0.5 else "        ;")
        else:
            terms = " + ".join(f"v{rng.randint(0, 20)}" for _ in range(rng.randint(2, 8)))
            lines.append(f"        int r{i} = {terms} * {rng.randint(1, 99)};")
    # keep braces balanced: stray '}' lines become comment-free filler
    body = []
    for line in lines:
        body.append("        int closer = 0;" if line.strip() == "}" else line)
    src = (
        "class Fuzz {\n"
        "    int compute(int a, int b) {\n" + "\n".join(body) + "\n"
        "        return a + b;\n"
        "    }\n"
        "}"
    )
    return method_of(src)


def make_instance(
    author: str = "dev",
    ts: int = BASE_TS,
    tag: str = "x",
    context: str | None = None,
    target: str | None = None,
    sha: str = "",
    repo: str = "repo",
    signature: str = "m()",
) -> CompletionInstance:
    """A lightweight instance for split/assembly tests."""
    context = context if context is not None else f"ctx {author} {tag} <FILL_ME>"
    target = target if target is not None else f"val_{tag};"
    return CompletionInstance(
        instance_id=f"{author}-{tag}",
        context=context,
        target=target,
        n=3,
        N=5,
        kind="isolated-line",
        repo_id=repo,
        commit_sha=sha or f"{abs(hash((author, tag))):040x}"[:40],
        author_id=author,
        timestamp=ts,
        file="F.java",
        signature=signature,
    )


@pytest.fixture
def started(monkeypatch):
    """Every process started while the test runs. `subprocess.run`
    starts its process through `subprocess.Popen`, so replacing
    `Popen` records both ways of starting one."""
    processes: list[subprocess.Popen] = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            processes.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return processes


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def _method_source(class_name: str, stmts: list[str]) -> str:
    body = "\n".join(f"        {s}" for s in stmts)
    return (
        f"class {class_name} {{\n"
        f"    int work(int seed, int scale) {{\n"
        f"{body}\n"
        f"        return seed * scale;\n"
        f"    }}\n"
        f"}}\n"
    )


def build_org_repo(path: Path, repo_idx: int, rounds: int = 4) -> Path:
    """An organization repo: two developers growing one method, plus a
    bot commit and a many-file outlier commit that the filters drop.
    """
    repo = init_repo(path)
    stmts = [f"int base{repo_idx} = seed + scale + {repo_idx};"]
    commit_files(
        repo, {"src/Main.java": _method_source(f"Main{repo_idx}", stmts)},
        "seed project", "Carol Setup", "carol.setup@example.com", BASE_TS + repo_idx,
    )
    devs = [("Alice Dev", "alice.dev@example.com"), ("Bob Coder", "bob.coder@example.com")]
    ts = BASE_TS + 1000 + repo_idx
    for round_no in range(rounds):
        for d, (name, email) in enumerate(devs):
            new = [
                f"int r{round_no}d{d}a = seed * {round_no + 2} + scale * {d + 3};",
                f"int r{round_no}d{d}b = r{round_no}d{d}a + seed + {repo_idx + 1};",
            ]
            stmts = stmts + new
            ts += 3600
            commit_files(
                repo, {"src/Main.java": _method_source(f"Main{repo_idx}", stmts)},
                f"round {round_no} dev {d}", name, email, ts,
            )
    # bot commit: same kind of change, must be filtered out
    stmts = stmts + ["int botline = seed + scale + 99;"]
    ts += 3600
    commit_files(
        repo, {"src/Main.java": _method_source(f"Main{repo_idx}", stmts)},
        "automated bump", "dependabot[bot]", "bot@example.com", ts,
    )
    # outlier commit: touches far more files than anything else
    ts += 3600
    spam = {f"gen/Spam{i}.java": f"class Spam{i} {{ int f() {{ return {i} + 1 + 2 + 3 + 4; }} }}\n" for i in range(25)}
    commit_files(repo, spam, "mass generated files", "Alice Dev", "alice.dev@example.com", ts)
    return repo


def build_generic_repo(path: Path, repo_idx: int, rounds: int = 8) -> Path:
    """A non-organization repo feeding the generic/baseline+ pools."""
    repo = init_repo(path)
    stmts = [f"int g{repo_idx} = seed + scale + {repo_idx};"]
    commit_files(
        repo, {"src/Gen.java": _method_source(f"Gen{repo_idx}", stmts)},
        "seed", "Gina Generic", "gina.generic@example.com", BASE_TS - 900_000 + repo_idx,
    )
    ts = BASE_TS - 890_000 + repo_idx
    for round_no in range(rounds):
        stmts = stmts + [
            f"int h{round_no}a = seed * {round_no + 2} + {repo_idx};",
            f"int h{round_no}b = h{round_no}a + scale + {round_no};",
        ]
        ts += 3600
        commit_files(
            repo, {"src/Gen.java": _method_source(f"Gen{repo_idx}", stmts)},
            f"generic round {round_no}", "Gina Generic", "gina.generic@example.com", ts,
        )
    return repo


def write_fixture_config(
    tmp_path: Path,
    out_dir: Path,
    org_repos: list[Path],
    generic_repos: list[Path] | None = None,
    seed: int = 20_240_101,
    min_train: int = 5,
    test_size: int = 3,
    name: str = "config.json",
) -> Path:
    import json

    config = {
        "organization": "fixture-org",
        "repos": [{"path": str(p), "branch": "main"} for p in org_repos],
        "generic_repos": [{"path": str(p), "branch": "main"} for p in (generic_repos or [])],
        "seed": seed,
        "out_dir": str(out_dir),
        "caps": {
            "top_developers": 100,
            "contributor_pool": 1000,
            "methods_per_repo": 1500,
            "test_size": test_size,
            "min_train": min_train,
        },
        "crystal_bleu": {"k": 50, "max_order": 4},
    }
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def _two_method_source(class_name: str, stmts: list[str]) -> str:
    body = "\n".join(f"        {s}" for s in stmts)
    return (
        f"class {class_name} {{\n"
        f"    int total(int seed, int scale) {{\n"
        f"        return seed * scale + seed - scale + 1 + 2 + 3;\n"
        f"    }}\n"
        f"    int work(int seed, int scale) {{\n"
        f"{body}\n"
        f"        return seed * scale;\n"
        f"    }}\n"
        f"}}\n"
    )


def _latin_bytes(word: str) -> bytes:
    return (
        "class Latin {\n"
        "    String name(int seed) {\n"
        f"        return \"{word}\" + seed + 1 + 2 + 3 + 4 + 5;\n"
        "    }\n"
        "}\n"
    ).encode("latin-1")


def build_edge_history(path: Path) -> Path:
    """A history with each case that decides which blobs `mine` reads: a
    root commit, a Latin-1 file, a non-ASCII path, one file edited in
    five human commits with a bot commit between the second and the
    third, a file added after the root, and a merge whose first-parent
    diff brings in a side branch's new file and Latin-1 edit."""
    repo = init_repo(path)
    dana, eli = ("Dana Dev", "dana@example.com"), ("Eli Else", "eli@example.com")
    ts = BASE_TS
    stmts = ["int c0 = seed + scale + 7;"]
    (repo / "src").mkdir()
    (repo / "src" / "Latin.java").write_bytes(_latin_bytes("café"))
    commit_files(repo, {"src/Calc.java": _two_method_source("Calc", stmts)}, "root", *dana, ts)
    for edit in range(5):
        if edit == 2:
            stmts = stmts + ["int bot = seed + scale + 99;"]
            ts += 3600
            commit_files(repo, {"src/Calc.java": _two_method_source("Calc", stmts)},
                         "automated bump", "dependabot[bot]", "bot@example.com", ts)
        stmts = stmts + [f"int c{edit + 1}a = seed * {edit + 2} + scale;", f"int c{edit + 1}b = c{edit + 1}a - {edit};"]
        ts += 3600
        # a second file in each edit keeps every commit under the outlier cutoff
        commit_files(repo, {"src/Calc.java": _two_method_source("Calc", stmts), "notes.txt": f"edit {edit}\n"},
                     f"edit {edit}", *(dana if edit % 2 else eli), ts)
    ts += 3600
    commit_files(repo, {
        "src/Added.java": _two_method_source("Added", stmts[:3]),
        "src/Naïve.java": _two_method_source("Naive", stmts[:2]),
    }, "add", *eli, ts)
    run_git(repo, "checkout", "-q", "-b", "side")
    (repo / "src" / "Latin.java").write_bytes(_latin_bytes("naïve"))
    ts += 3600
    commit_files(repo, {"src/Side.java": _two_method_source("Side", stmts[:5])}, "side", *dana, ts)
    run_git(repo, "checkout", "-q", "main")
    ts += 3600
    commit_files(repo, {"src/Added.java": _two_method_source("Added", stmts[:4])}, "edit added", *eli, ts)
    ts += 3600
    date = f"{ts} +0000"
    run_git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side",
            env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date})
    return repo
