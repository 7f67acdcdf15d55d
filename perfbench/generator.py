"""Deterministic synthetic Java histories for the benchmark.

`generate` builds the organization and generic repositories of one
workload, one `git fast-import` stream per repository, so the same
(spec, seed) always gives the same commit SHAs. Next to the
repositories it writes the run config and a manifest of what it
generated (commit and bot counts, human identities, Java file versions,
expected eligible developers), which the benchmark's checks read.

The seed picks names, vocabulary, file choices and edit positions; the
sizes (commits, files per commit, methods and lines per edit, author
shares) and the order of authors and commit kinds come from the spec,
so every seed gives the pipeline about the same amount of work.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BASE_TS = 1_600_000_000
# generic history predates every organization commit, so it can feed
# the baseline-plus pools of every anchor developer
GENERIC_BASE_TS = BASE_TS - 40_000_000

BOT_NAME = "dependabot[bot]"
IMPORT_BOT_NAME = "importer[bot]"

_FIRST = (
    "Alice", "Bruno", "Chiara", "Dmitri", "Elena", "Farid", "Greta", "Hugo",
    "Ines", "Jonas", "Kaori", "Lars", "Maya", "Nils", "Olga", "Pavel",
)
_LAST = (
    "Moreau", "Keller", "Rossi", "Ivanov", "Santos", "Haddad", "Lindqvist",
    "Brandt", "Okafor", "Novak", "Tanaka", "Berg", "Duarte", "Fischer",
)
# identifier parts; none contains "test", which the method filter drops
_WORDS = (
    "account", "buffer", "cache", "delta", "entry", "factor", "gauge",
    "handle", "index", "journal", "kernel", "ledger", "metric", "node",
    "offset", "packet", "quota", "record", "signal", "token", "unit",
    "vector", "window", "yield", "zone", "batch", "cursor", "frame",
    "range", "score", "slot", "tally", "weight", "budget", "limit",
)
_VERBS = ("compute", "merge", "resolve", "update", "collect", "derive", "apply", "scan")
_NON_ASCII_STEMS = ("Naïve", "Größe", "Ça", "Añejo")
GENERIC_METHODS_PER_FILE = 4
OUTLIER_FILES = 30  # files in an outlier commit, far above any workload's Q3 + 1.5 IQR
CRYSTAL_BLEU_K = 50  # n-grams excluded as trivial; small, as the corpora are
_GOLDEN = 0.6180339887498949  # spreads rewrite sizes evenly over their range


class _Deck:
    """Draws distinct items from a shuffled deck, reshuffled when used
    up, so every item comes up about equally often whatever the seed."""

    def __init__(self, rng: random.Random, items: list):
        self.rng = rng
        self.items = items
        self.deck: list = []

    def draw(self, k: int) -> list:
        out: list = []
        while len(out) < k:
            if not self.deck:
                self.deck = list(self.items)
                self.rng.shuffle(self.deck)
            item = self.deck.pop()
            if all(item is not o for o in out):
                out.append(item)
        return out


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's history; sizes are per organization repo."""

    org_repos: int
    commits_per_repo: int  # human, non-outlier commits
    files_per_repo: int
    files_per_commit: tuple[int, int]
    methods_per_file: int
    statements: int  # statements per method
    methods_per_edit: tuple[int, int]
    lines_per_edit: tuple[int, int]  # one contiguous run per edited method
    humans: int
    heavy: int  # developers given most commits; the expected eligible ones
    heavy_share: float
    caps: dict
    bot_commits: int = 0
    outlier_commits: int = 0
    non_ascii_files: int = 0
    table_rows: tuple[int, int] = (0, 0)  # table initializer rows, spread evenly over the files
    rewrite_share: float = 0.0  # share of each author's edits that rewrite a table
    rewrite_rows: tuple[int, int] = (0, 0)
    bot_import: bool = False  # a bot commit adds every file first
    generic_repos: int = 2
    generic_commits: int = 20
    generic_files: int = 8


@dataclass
class _Method:
    name: str
    statements: list[str]


@dataclass
class _File:
    path: str
    package: str
    cls: str
    methods: list[_Method]
    table: list[str]

    def render(self) -> str:
        out = [f"package {self.package};", "", f"public class {self.cls} {{"]
        if self.table:
            out.append("    static final int[][] TABLE = {")
            out.extend(f"        {row}" for row in self.table)
            out.append("    };")
            out.append("")
        for m in self.methods:
            out.append(f"    public int {m.name}(int seed, int scale) {{")
            out.extend(f"        {s}" for s in m.statements)
            out.append("        return seed + scale;")
            out.append("    }")
            out.append("")
        out.append("}")
        return "\n".join(out) + "\n"


class _Writer:
    """Random content for one repository."""

    def __init__(self, rng: random.Random, spec: Spec):
        self.rng = rng
        self.spec = spec
        self.edits: dict[str, int] = defaultdict(int)
        self.rewrites: dict[str, int] = defaultdict(int)
        self.rewritten = 0
        self._picks: dict[str, int] = defaultdict(int)
        self.vocab = [f"{a}{b.capitalize()}" for a, b in zip(
            rng.sample(_WORDS, len(_WORDS)), rng.sample(_WORDS, len(_WORDS))
        )]

    def pick(self, what: str, bounds: tuple[int, int]) -> int:
        """A count in ``bounds``. The n-th pick of ``what`` is the n-th
        point of a golden-ratio sequence, not a draw, so each value comes
        up about equally often, in no period the author order could
        follow, and every seed gets the same counts."""
        self._picks[what] += 1
        lo, hi = bounds
        return lo + int((hi - lo + 1) * ((self._picks[what] * _GOLDEN) % 1.0))

    def statement(self) -> str:
        r = self.rng
        var = f"{r.choice(self.vocab)}{r.randrange(100)}"
        a, b = r.choice(self.vocab), r.choice(self.vocab)
        kind = r.random()
        if kind < 0.6:
            return f"int {var} = {a} * {r.randrange(2, 99)} + {b} - seed;"
        if kind < 0.8:
            return f'String {var} = "{r.choice(_WORDS)}-{r.randrange(1000)}" + {a};'
        return f"long {var} = Math.max({a}, scale) + {r.randrange(1, 9999)}L;"

    def row(self) -> str:
        return "{" + ", ".join(str(self.rng.randrange(100000)) for _ in range(6)) + "},"

    def new_file(self, path: str, package: str, cls: str, n_methods: int, table_rows: int = 0) -> _File:
        r = self.rng
        names = set()
        methods = []
        while len(methods) < n_methods:
            name = f"{r.choice(_VERBS)}{r.choice(_WORDS).capitalize()}{len(methods)}"
            if name in names:
                continue
            names.add(name)
            methods.append(_Method(name, [self.statement() for _ in range(self.spec.statements)]))
        return _File(path, package, cls, methods, [self.row() for _ in range(table_rows)])

    def edit(self, f: _File, who: str) -> None:
        """Rewrite a block of table rows, or a run of lines in some methods.

        Which of an author's edits rewrite the table, and how many rows
        the rewrites take, follow a fixed pattern, not the seed, so every
        seed diffs the same number of lines and gives each author the
        same share of method edits.
        """
        r = self.rng
        self.edits[who] += 1
        if f.table and int(self.edits[who] * self.spec.rewrite_share) > self.rewrites[who]:
            self.rewrites[who] += 1
            self.rewritten += 1
            lo, hi = self.spec.rewrite_rows
            n = min(lo + round((hi - lo) * ((self.rewritten * _GOLDEN) % 1.0)), len(f.table))
            start = r.randrange(len(f.table) - n + 1)
            f.table[start:start + n] = [self.row() for _ in range(n)]
            return
        k = min(self.pick("methods", self.spec.methods_per_edit), len(f.methods))
        for m in r.sample(f.methods, k):
            n = min(self.pick("lines", self.spec.lines_per_edit), len(m.statements))
            start = r.randrange(len(m.statements) - n + 1)
            m.statements[start:start + n] = [self.statement() for _ in range(n)]


def _humans(rng: random.Random, count: int) -> list[dict]:
    pairs = [(f, l) for f in _FIRST for l in _LAST]
    out = []
    for first, last in rng.sample(pairs, count):
        local = f"{first}.{last}".lower()
        out.append({
            # the second alias merges with the first by email local part
            # and by normalized name
            "aliases": [
                [f"{first} {last}", f"{local}@acme.example"],
                [f"{first.lower()} {last.lower()}", f"{local}@users.noreply.example"],
            ],
        })
    return out


def _interleave(counts: list[int]) -> list[int]:
    """Index per slot, ``counts[i]`` slots each, every index spread evenly
    over the sequence: at each slot the index furthest behind its share
    comes next."""
    total = sum(counts)
    done = [0] * len(counts)
    out = []
    for slot in range(1, total + 1):
        k = max(range(len(counts)), key=lambda i: counts[i] * slot / total - done[i])
        done[k] += 1
        out.append(k)
    return out


def _author_plan(spec: Spec, n: int) -> list[int]:
    """Author index per human commit: exact shares in a fixed interleaved
    order, so which commits fall before an anchor's cutoff, and with it
    every dataset's size, does not depend on the seed."""
    light = spec.humans - spec.heavy
    per_heavy = min(round(n * spec.heavy_share / spec.heavy), n // spec.heavy)
    rest = n - per_heavy * spec.heavy
    counts = [per_heavy] * spec.heavy
    counts += [rest // light + (j < rest % light) for j in range(light)] if light else []
    counts[0] += n - sum(counts)
    return _interleave(counts)


def _stream_commit(ts: int, name: str, email: str, message: str, files: list[_File]) -> bytes:
    parts = [
        b"commit refs/heads/main\n",
        f"author {name} <{email}> {ts} +0000\n".encode("utf-8"),
        f"committer {name} <{email}> {ts} +0000\n".encode("utf-8"),
    ]
    msg = message.encode("utf-8")
    parts.append(b"data %d\n%s\n" % (len(msg), msg))
    for f in files:
        body = f.render().encode("utf-8")
        parts.append(b"M 100644 inline " + f.path.encode("utf-8") + b"\n")
        parts.append(b"data %d\n%s\n" % (len(body), body))
    return b"".join(parts)


def _import(path: Path, stream: bytes) -> str:
    """Create a repository at ``path`` from a fast-import stream; returns HEAD."""
    path.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(path)], check=True, capture_output=True)
    subprocess.run(
        ["git", "-C", str(path), "fast-import", "--quiet", "--done"],
        input=stream + b"done\n", check=True, capture_output=True,
    )
    head = subprocess.run(
        ["git", "-C", str(path), "rev-parse", "refs/heads/main"],
        check=True, capture_output=True, text=True,
    )
    return head.stdout.strip()


def _org_repo(rng: random.Random, spec: Spec, idx: int, humans: list[dict]) -> tuple[bytes, dict]:
    w = _Writer(rng, spec)
    package = f"org.acme.mod{idx}"
    base = f"src/main/java/org/acme/mod{idx}"
    stems = list(_NON_ASCII_STEMS)
    files: list[_File] = []
    for i in range(spec.files_per_repo):
        cls = f"{stems[i % len(stems)]}{i}" if i < spec.non_ascii_files else f"{rng.choice(_WORDS).capitalize()}Part{i}"
        lo, hi = spec.table_rows
        rows = lo + (hi - lo) * i // max(1, spec.files_per_repo - 1) if hi else 0
        files.append(w.new_file(f"{base}/{cls}.java", package, cls, spec.methods_per_file, rows))
    non_ascii = {f.path for f in files if not f.path.isascii()}

    kind_names = ("human", "bot", "outlier")
    kinds = [kind_names[k] for k in _interleave([spec.commits_per_repo, spec.bot_commits, spec.outlier_commits])]
    if spec.bot_import:
        kinds.insert(0, "import")
    plan = iter(_author_plan(spec, spec.commits_per_repo))
    deck = _Deck(rng, files)

    created: set[str] = set()
    stream: list[bytes] = []
    stats = {"commits": 0, "bot_commits": 0, "outlier_commits": 0,
             "java_versions_written": 0, "java_versions_expected": 0, "non_ascii_versions": 0}
    per_human = [0] * len(humans)
    for slot, kind in enumerate(kinds):
        ts = BASE_TS + slot * 3600 + idx * 60
        if kind == "import":
            touched = list(files)
            name, email = IMPORT_BOT_NAME, "importer@bots.example"
        elif kind == "outlier":
            touched = [
                w.new_file(f"gen/mod{idx}/Generated{slot}x{j}.java", package, f"Generated{slot}x{j}", 1)
                for j in range(OUTLIER_FILES)
            ]
            name, email = humans[-1]["aliases"][0]
        else:
            if kind == "bot":
                who, (name, email) = "bot", (BOT_NAME, "bot@bots.example")
            else:
                author = next(plan)
                per_human[author] += 1
                who, (name, email) = str(author), rng.choice(humans[author]["aliases"])
            touched = deck.draw(w.pick("files", spec.files_per_commit))
            for f in touched:
                if f.path in created:
                    w.edit(f, who)
        created.update(f.path for f in touched)
        touched.sort(key=lambda f: f.path)
        stream.append(_stream_commit(ts, name, email, f"{kind} change {slot}", touched))
        stats["commits"] += 1
        stats["java_versions_written"] += len(touched)
        if kind in ("bot", "import"):
            stats["bot_commits"] += 1
        elif kind == "outlier":
            stats["outlier_commits"] += 1
        else:
            stats["java_versions_expected"] += len(touched)
            stats["non_ascii_versions"] += sum(f.path in non_ascii for f in touched)
    stats["human_commits"] = per_human
    return b"".join(stream), stats


def _generic_repo(rng: random.Random, spec: Spec, idx: int) -> tuple[bytes, int]:
    w = _Writer(rng, spec)
    package = f"org.generic{idx}"
    files = [
        w.new_file(f"src/org/generic{idx}/Lib{i}.java", package, f"Lib{i}", GENERIC_METHODS_PER_FILE)
        for i in range(spec.generic_files)
    ]
    created: set[str] = set()
    stream = []
    versions = 0
    deck = _Deck(rng, files)
    for slot in range(spec.generic_commits):
        touched = deck.draw(w.pick("files", (1, 2)))
        versions += len(touched)
        for f in touched:
            if f.path in created:
                w.edit(f, "generic")
        created.update(f.path for f in touched)
        touched.sort(key=lambda f: f.path)
        ts = GENERIC_BASE_TS + slot * 3600 + idx * 60
        stream.append(_stream_commit(
            ts, "Gina Generic", "gina.generic@upstream.example", f"generic {slot}", touched,
        ))
    return b"".join(stream), versions


def generate(spec: Spec, seed: int, workdir: Path, name: str) -> tuple[Path, dict]:
    """Build the repositories, config and manifest of one workload.

    ``workdir`` is emptied first. Paths in the config are relative to
    the current directory when ``workdir`` is, so the config hash, and
    with it every output file, does not depend on where the checkout
    lives. Returns (config path, manifest).
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    repos_dir = workdir / "repos"
    rng = random.Random(f"{name}:{seed}")
    humans = _humans(rng, spec.humans)

    manifest: dict = {"workload": name, "seed": seed, "repos": {}, "generic_repos": {}}
    totals = {"commits": 0, "bot_commits": 0, "outlier_commits": 0,
              "java_versions_written": 0, "java_versions_expected": 0, "non_ascii_versions": 0}
    human_commits = [0] * spec.humans
    for i in range(spec.org_repos):
        stream, stats = _org_repo(rng, spec, i, humans)
        head = _import(repos_dir / f"org-{i}", stream)
        for who, n in enumerate(stats.pop("human_commits")):
            human_commits[who] += n
        manifest["repos"][f"org-{i}"] = {"head": head, **stats}
        for key in totals:
            totals[key] += stats[key]
    for i in range(spec.generic_repos):
        stream, versions = _generic_repo(rng, spec, i)
        head = _import(repos_dir / f"generic-{i}", stream)
        manifest["generic_repos"][f"generic-{i}"] = {
            "head": head, "commits": spec.generic_commits, "java_versions": versions,
        }

    for who, human in enumerate(humans):
        human["heavy"] = who < spec.heavy
        human["commits"] = human_commits[who]
    manifest.update(totals)
    manifest["humans"] = humans
    manifest["expected_eligible_developers"] = spec.heavy

    config = {
        "organization": "acme",
        "repos": [{"path": str(repos_dir / r), "branch": "main"} for r in manifest["repos"]],
        "generic_repos": [{"path": str(repos_dir / r), "branch": "main"} for r in manifest["generic_repos"]],
        "seed": seed,
        "out_dir": str(workdir / "out"),
        "caps": spec.caps,
        "crystal_bleu": {"k": CRYSTAL_BLEU_K, "max_order": 4},
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return config_path, manifest
