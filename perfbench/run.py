"""Benchmark of the whole repotailor pipeline on generated git histories.

    python3 perfbench/run.py --workload ingest-small-files --seed 1 --seconds 40 --trace 0

Generates the workload's repositories from the seed, then runs the real
stages in this one process: mine, assemble, score and compare on every
developer dataset, insight, verify, and no-op re-runs of mine and
assemble. It checks the outputs and prints one JSON object as the last
line of standard output.

With ``--trace 0`` it repeats passes, each a set-up over the same paths
and a cold run of every stage, for about ``--seconds`` (at least two
passes) and reports, for each stage, the median of its calls, with the
time spent in this process scaled to a reference host speed measured
in the same run.
With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of the traced one, the share of each stage its
child spans cover, and the tracing overhead; the spans go to
``.bench_work/<workload>.trace.jsonl``.
Metric names and units are those of BENCHMARK.json. All files are
written under ``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from generator import Spec, generate
from predictions import NOISY, ORACLE, write_predictions
from tracer import Tracer, stage_coverage

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, so output trees do not depend on it

MIN_PASSES = 2
SHORT_STAGE_S, MAX_REPEATS = 0.3, 100  # a short stage repeats in a pass until it has taken SHORT_STAGE_S
RERUNS_PER_PASS = 10  # re-runs in a traced pass; one takes a few ms, too little to time once
CRUNCH_STAGES = ("mine", "assemble", "score", "insight", "verify")
# The host's speed is measured by fixed work run before every stage
# call; REFERENCE_S is about its median time on the VM of
# perfbench/README.md.
REFERENCE_S = 0.007
REFERENCE_RECORDS = [{"id": i, "text": "x" * (i % 50), "ids": list(range(i % 20))} for i in range(1000)]

WORKLOADS: dict[str, Spec] = {
    # git process spawns dominate: many commits of 2 to 6 tiny one-method
    # files, a dozen authors with alias pairs, bots, many-file outliers,
    # non-ASCII paths; later stages stay small (2 developers)
    "ingest-small-files": Spec(
        org_repos=3, commits_per_repo=30, files_per_repo=40, files_per_commit=(2, 6),
        methods_per_file=1, statements=6, methods_per_edit=(1, 1), lines_per_edit=(1, 3),
        humans=12, heavy=3, heavy_share=0.6, bot_commits=6, outlier_commits=2,
        non_ascii_files=2, generic_repos=2, generic_commits=10,
        caps={"top_developers": 2, "test_size": 20, "min_train": 45},
    ),
    # lexing and Myers diff dominate: few commits on four files of 1.4k to
    # 2.8k lines; a third of the edits rewrite 300 to 900 rows of a table
    # outside any method, so the diff grows without flooding instances
    "ingest-large-rewrites": Spec(
        org_repos=1, commits_per_repo=6, files_per_repo=4, files_per_commit=(1, 1),
        methods_per_file=24, statements=10, methods_per_edit=(8, 12), lines_per_edit=(3, 6),
        humans=3, heavy=2, heavy_share=0.95, table_rows=(1000, 2400), rewrite_share=0.4,
        rewrite_rows=(300, 900), bot_import=True, generic_repos=2, generic_commits=6,
        generic_files=2, caps={"top_developers": 2, "test_size": 15, "min_train": 10},
    ),
    # insight vocabulary lexing, score exclusion-set rebuilds, assembly and
    # storage dominate: 3 eligible developers, the top 2 with 100-instance
    # test sets, and generic repositories large enough for every dataset
    # family
    "team-evaluation": Spec(
        org_repos=2, commits_per_repo=34, files_per_repo=12, files_per_commit=(2, 2),
        methods_per_file=4, statements=6, methods_per_edit=(2, 3), lines_per_edit=(4, 6),
        humans=6, heavy=3, heavy_share=0.88, bot_commits=2, outlier_commits=1,
        non_ascii_files=1, bot_import=True, generic_repos=4, generic_commits=12, generic_files=8,
        caps={"top_developers": 2, "test_size": 100, "min_train": 30},
    ),
}
# workloads whose generic repositories are large enough for the generic,
# pretrain and every bplus-* dataset; on ingest-small-files the pool is
# too small for baseline-plus, which assemble records in the index's notes
EVERY_DATASET = {"team-evaluation"}


class StageFailed(Exception):
    pass


class Checks:
    """Stage calls and output checks, counted as attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def call(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            self.messages.append(f"{what} raised {exc!r}")
            raise StageFailed(what) from exc


class Clock:
    """Wall seconds and child-process CPU seconds per stage; with a
    tracer, each stage call is also a root span named ``pipeline.<stage>``.

    Each `stage` block is one sample, or adds to the last sample with
    ``more=True``, in `samples` and, for child CPU, `child_samples`;
    `seconds` is the mean of a stage's samples. With
    ``probe``, the reference work runs before each sample, untimed, and
    its times are kept in `reference`.
    """

    def __init__(self, tracer: Tracer | None = None, probe: bool = False) -> None:
        self.tracer = tracer
        self.probe = probe
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.child_samples: dict[str, list[float]] = defaultdict(list)
        self.child_cpu: dict[str, float] = defaultdict(float)
        self.reference: list[float] = []

    @contextmanager
    def stage(self, name: str, more: bool = False):
        if self.probe and not more:
            self.reference.append(_reference_work())
        idx = self.tracer.begin(f"pipeline.{name}") if self.tracer else None
        cpu0 = _child_cpu()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            child = _child_cpu() - cpu0
            if more:
                self.samples[name][-1] += elapsed
                self.child_samples[name][-1] += child
            else:
                self.samples[name].append(elapsed)
                self.child_samples[name].append(child)
            self.child_cpu[name] += child
            if idx is not None:
                self.tracer.end(idx)

    def seconds(self, name: str) -> float:
        return statistics.fmean(self.samples[name])


def _reference_work() -> float:
    """Wall seconds of fixed work of the program's kind: a JSON round
    trip of small records, and a dict of string keys built and sorted."""
    t0 = time.perf_counter()
    json.loads(json.dumps(REFERENCE_RECORDS))
    index = {str(i): i for i in range(7_000)}
    sorted(index, key=lambda k: index[k] % 97)
    return time.perf_counter() - t0


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class Bench:
    def __init__(self, pipeline, load_config, spec: Spec, name: str, seed: int, checks: Checks):
        self.pipeline = pipeline
        self.load_config = load_config
        self.spec = spec
        self.name = name
        self.seed = seed
        self.workdir = WORK / name
        self.preds = self.workdir / "predictions"  # outside out_dir, so not in the digest
        self.checks = checks
        self.cfg = None
        self.manifest: dict = {}
        self.out = Path()

    def setup(self, clock: Clock) -> None:
        """Generate the workload's repositories and load its config, timed
        as the ``setup`` stage. Every pass writes the same paths, so the
        config hash, and with it every output, stays the same."""
        with clock.stage("setup"):
            config_path, manifest = generate(self.spec, self.seed, self.workdir, self.name)
            self.cfg = self.load_config(config_path)
        manifest["mine_input_versions"] = manifest["java_versions_expected"] + sum(
            r["java_versions"] for r in manifest["generic_repos"].values()
        )
        self.manifest = manifest
        self.out = Path(self.cfg.out_dir)

    def cold_pass(self, clock: Clock, once: bool = False) -> tuple[dict, str]:
        """Every stage on an empty output tree; returns (mine report,
        output tree digest).

        mine, assemble and insight run cold, once. The short stages are
        sampled in two stretches, one before insight and one after it,
        so that their calls meet more of the host's ups and downs. With
        ``once``, as in a traced pass, every stage runs once and the
        no-op re-run RERUNS_PER_PASS times.
        """
        p, cfg, man, checks = self.pipeline, self.cfg, self.manifest, self.checks
        for d in (self.out, self.preds):
            if d.exists():
                shutil.rmtree(d)
        with clock.stage("mine"):
            report = checks.call("mine", p.run_mine, cfg)
        checks.check(report["commits"]["total"] == man["commits"],
                     f"commits.total {report['commits']['total']} != generated {man['commits']}")
        expected = man["commits"] - man["bot_commits"]
        checks.check(report["commits"]["after_bot_filter"] == expected,
                     f"commits.after_bot_filter {report['commits']['after_bot_filter']} != {expected}")
        with clock.stage("assemble"):
            index = checks.call("assemble", p.run_assemble, cfg)
        dev_ids = self._datasets(index)

        if once:
            self._score(clock, dev_ids)
        else:
            self._sample_short_stages(clock, index, dev_ids, report)
        with clock.stage("insight"):
            checks.call("insight", p.run_insight, cfg)
        if once:
            self._verify(clock)
            for _ in range(RERUNS_PER_PASS):
                self._rerun(clock, report)
        else:
            self._sample_short_stages(clock, index, dev_ids, report)

        digest = tree_digest(self.out)
        self._rerun(clock, report)
        checks.check(tree_digest(self.out) == digest, "no-op re-run changed the output tree")
        return report, digest

    def _sample_short_stages(self, clock: Clock, index: dict, dev_ids: list[str], report: dict) -> None:
        """Call assemble (rebuilt), the score phase, verify and a no-op
        re-run in turn, each while it has taken less than half of
        SHORT_STAGE_S here (at most MAX_REPEATS rounds). The calls
        rewrite the same files."""
        calls = {
            "assemble": lambda: self._assemble_again(clock, index),
            "score": lambda: self._score(clock, dev_ids),
            "verify": lambda: self._verify(clock),
            "rerun": lambda: self._rerun(clock, report),
        }
        spent = dict.fromkeys(calls, 0.0)
        for _ in range(MAX_REPEATS):
            due = [stage for stage, t in spent.items() if t < SHORT_STAGE_S / 2]
            if not due:
                break
            for stage in due:
                calls[stage]()
                spent[stage] += clock.samples[stage][-1]

    def _assemble_again(self, clock: Clock, index: dict) -> None:
        """Rebuild every dataset; removing the stamp makes assemble run."""
        (self.out / "stamps" / "assemble.json").unlink()
        with clock.stage("assemble"):
            again = self.checks.call("assemble", self.pipeline.run_assemble, self.cfg)
        self.checks.check(again == index, "a rebuild of assemble returned another index")

    def _verify(self, clock: Clock) -> None:
        with clock.stage("verify"):
            violations = self.checks.call("verify", self.pipeline.run_verify, self.cfg)
        self.checks.check(violations == [], f"verify: {violations[:3]}")

    def _rerun(self, clock: Clock, report: dict) -> None:
        """A no-op re-run of mine and assemble on unchanged inputs."""
        p, cfg, checks = self.pipeline, self.cfg, self.checks
        with clock.stage("rerun"):
            again = checks.call("rerun mine", p.run_mine, cfg)
            checks.call("rerun assemble", p.run_assemble, cfg)
        checks.check(again == report, "re-run of mine returned another report")

    def _datasets(self, index: dict) -> list[str]:
        """Check what assemble built and write the prediction files of
        every developer dataset; returns the developer dataset ids."""
        man, checks, test_size = self.manifest, self.checks, self.cfg.caps.test_size
        checks.check(index["eligible_developers"] == man["expected_eligible_developers"],
                     f"eligible developers {index['eligible_developers']} != "
                     f"{man['expected_eligible_developers']}")
        if self.name in EVERY_DATASET:
            wanted = {"generic", "pretrain", *(f"bplus-{a}" for a in index["selected_developers"])}
            missing = wanted - {m["dataset_id"] for m in index["manifests"]}
            checks.check(not missing, f"datasets not assembled: {sorted(missing)}; notes {index['notes']}")
        dev_ids = [m["dataset_id"] for m in index["manifests"] if m["role"] == "developer"]
        checks.check(bool(dev_ids), "no developer dataset assembled")
        for ds in dev_ids:
            rows = _read_jsonl(self.out / "datasets" / ds / "test.jsonl")
            checks.check(len(rows) == test_size, f"{ds}: {len(rows)} test rows != test_size {test_size}")
            write_predictions(rows, self.seed, ds, self.preds / f"{ds}.jsonl")
        return dev_ids

    def _score(self, clock: Clock, dev_ids: list[str]) -> None:
        """score and compare every developer dataset: one sample."""
        p, cfg, checks = self.pipeline, self.cfg, self.checks
        for i, ds in enumerate(dev_ids):
            with clock.stage("score", more=i > 0):
                scored = checks.call(f"score {ds}", p.run_score, cfg, ds, self.preds / f"{ds}.jsonl")
            oracle = scored["models"][ORACLE]
            checks.check(oracle["em_percent"] == 100.0 and oracle["missing"] == 0,
                         f"{ds}: oracle EM {oracle['em_percent']}%, {oracle['missing']} missing")
            report_path = self.out / "reports" / f"{ds}.score.json"
            with clock.stage("score", more=True):
                comparison = checks.call(f"compare {ds}", p.run_compare, cfg,
                                         report_path, report_path, ORACLE, NOISY)
            checks.check(comparison["em"]["direction"] == "A",
                         f"{ds}: oracle vs noisy EM direction {comparison['em']['direction']}")


def _load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def untraced(bench: Bench, seconds: float) -> dict[str, float]:
    passes: list[Clock] = []
    digests: list[str] = []
    start = time.perf_counter()
    last = 0.0
    # a pass starts only if one as long as the last still ends in time,
    # so a run takes about `seconds` on every workload
    while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        clock = Clock(probe=True)
        bench.setup(clock)
        _, digest = bench.cold_pass(clock)
        passes.append(clock)
        digests.append(digest)
        last = time.perf_counter() - t0
        print(f"pass {len(passes)}: " + ", ".join(
            f"{s} {clock.seconds(s):.4f} s" for s in ("setup", *CRUNCH_STAGES, "rerun")), flush=True)
    bench.checks.check(len(set(digests)) == 1, f"output digests differ across passes: {digests}")
    print(f"digest {bench.name} seed {bench.seed}: {digests[0]}")

    # Other work on the host slows calls down in bursts; the median of
    # all of a stage's calls in the run is not moved by a few slow ones.
    mid = {s: statistics.median(t for c in passes for t in c.samples[s])
           for s in ("setup", *CRUNCH_STAGES, "rerun")}
    calls = {s: sum(len(c.samples[s]) for c in passes) for s in mid}
    # The host also runs every stage of a run 20-40% faster or slower
    # than in a run a few minutes away. The time a stage spends in this
    # process is scaled by how much faster the reference work ran in
    # this run than REFERENCE_S, so that it reads as on a host of that
    # speed; the CPU time of git children, which do not follow the
    # reference, and the set-up, mostly git and file-system work, are
    # reported as measured.
    reference = statistics.median(r for c in passes for r in c.reference)
    speed = REFERENCE_S / reference
    at_ref = {
        s: statistics.median(
            (t - child) * speed + child
            for c in passes for t, child in zip(c.samples[s], c.child_samples[s])
        )
        for s in (*CRUNCH_STAGES, "rerun")
    }
    print(f"input: {bench.manifest['mine_input_versions']} Java file versions; passes: {len(passes)}; "
          + ", ".join(f"{s} {v:.4f} s ({calls[s]} calls)" for s, v in mid.items())
          + f"; reference work {reference * 1e3:.3f} ms, stage times scaled by {speed:.3f}")
    return {
        "setup_s": mid["setup"],
        "mine_s": at_ref["mine"],
        "assemble_s": at_ref["assemble"],
        "score_s": at_ref["score"],
        "insight_s": at_ref["insight"],
        "verify_s": at_ref["verify"],
        "pipeline_s": sum(at_ref[s] for s in CRUNCH_STAGES),
        "rerun_s": at_ref["rerun"],
        "mine_files_per_s": bench.manifest["mine_input_versions"] / at_ref["mine"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(bench: Bench, trace_path: Path) -> dict[str, float]:
    from layers import Probe, layer_metrics

    plain = Clock()
    bench.setup(plain)
    _, digest = bench.cold_pass(plain, once=True)

    tracer = Tracer()
    probe = Probe(tracer)
    clock = Clock(tracer)
    probe.install()
    try:
        report_t, digest_t = bench.cold_pass(clock, once=True)
    finally:
        probe.restore()
    bench.checks.check(digest_t == digest, "traced output tree differs from the untraced one")

    seen = sum(len(c["java_files"]) for c in _read_jsonl(bench.out / "commits.jsonl"))
    metrics = layer_metrics(probe, report_t, seen, bench.manifest["java_versions_expected"],
                            clock.child_cpu["mine"])

    name = bench.name
    for stage, (wall, covered) in stage_coverage(tracer.spans).items():
        share = covered / wall if wall else 0.0
        print(f"trace {name} {stage}: {wall:.3f} s, {100 * share:.1f}% covered by child spans")
    untraced_s = sum(plain.seconds(s) for s in CRUNCH_STAGES)
    traced_s = sum(clock.seconds(s) for s in CRUNCH_STAGES)
    print(f"trace {name}: overhead {traced_s - untraced_s:.3f} s "
          f"(pipeline_s traced {traced_s:.3f} s, untraced {untraced_s:.3f} s)")
    tracer.write(trace_path)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repotailor import pipeline
        from repotailor.config import load_config
    except ImportError as exc:
        print(f"cannot import repotailor from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(pipeline.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repotailor was imported from {pipeline.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _load_metric_units()

    checks = Checks()
    bench = Bench(pipeline, load_config, WORKLOADS[args.workload], args.workload, args.seed, checks)
    try:
        if args.trace:
            values, units = traced(bench, WORK / f"{args.workload}.trace.jsonl"), layer_units
        else:
            values, units = untraced(bench, args.seconds), e2e_units
    except StageFailed:
        values, units = {}, {}
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if values and set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
