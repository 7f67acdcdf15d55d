"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans and counters they record.

Layers are the program's modules. A span is named after the layer that
does the work, which is the defining module except for ``token_texts``:
it lives in `javalex` but is the metrics layer's tokenization step.
`subprocess.run` is counted, not spanned, so the time a `git` child
takes stays in the self time of the mining function that waits for it.
"""

from __future__ import annotations

import functools
import os
import subprocess

from repotailor import (
    assembly,
    identity,
    insight,
    javalex,
    javamethods,
    masking,
    metrics,
    mining,
    pipeline,
    stats,
    storage,
)

from tracer import Patch, Tracer, self_times

STAGES = ("mine", "assemble", "score", "insight", "verify", "rerun")


class Probe:
    """Installs the wrappers and keeps what the counters cannot hold."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.vocab_ids: set[str] = set()
        self._patch = Patch(("repotailor",))

    def _lexed(self, tracer, args, kwargs, result) -> None:
        tracer.count("javalex.chars_lexed", len(args[0]))

    def _written(self, tracer, args, kwargs, result) -> None:
        tracer.count("storage.bytes_written", os.path.getsize(args[0]))

    def _masked(self, tracer, args, kwargs, result) -> None:
        if result is not None:
            tracer.count("masking.instances")

    def _vocabulary(self, tracer, args, kwargs, result) -> None:
        instances = args[0]
        tracer.count("insight.instances_lexed", len(instances))
        self.vocab_ids.update(i.instance_id for i in instances)

    def _targets(self) -> list[tuple]:
        return [
            ("mining.stream_commits", mining, "stream_commits", None),
            ("mining.read_blob", mining, "read_blob", None),
            ("mining.added_lines", mining, "added_lines", None),
            ("mining.filter_bots", mining, "filter_bots", None),
            ("mining.filter_outliers", mining, "filter_outliers", None),
            ("javalex.lex", javalex, "lex", self._lexed),
            ("metrics.token_texts", javalex, "token_texts", None),
            ("javamethods.is_parsable", javamethods, "is_parsable", None),
            ("javamethods.extract_methods", javamethods, "extract_methods", None),
            ("javamethods.apply_method_filters", javamethods, "apply_method_filters", None),
            ("javamethods.map_added_lines", javamethods, "map_added_lines", None),
            ("masking.segment", masking, "segment", None),
            ("masking.mask", masking, "mask", self._masked),
            ("masking.generate_generic", masking, "generate_generic", None),
            ("identity.resolve_identities", identity, "resolve_identities", None),
            ("identity.top_contributors", identity, "top_contributors", None),
            ("assembly.split_developer", assembly, "split_developer", None),
            ("assembly.build_org_dataset", assembly, "build_org_dataset", None),
            ("assembly.build_org_subset", assembly, "build_org_subset", None),
            ("assembly.build_baseline_plus", assembly, "build_baseline_plus", None),
            ("assembly.cap_methods_per_repo", assembly, "cap_methods_per_repo", None),
            ("assembly.dedup", assembly, "dedup", None),
            ("assembly.mlm_pretrain_instances", assembly, "mlm_pretrain_instances", None),
            ("pipeline.method_from_text", pipeline, "method_from_text", None),
            ("storage.write_jsonl", storage, "write_jsonl", self._written),
            ("storage.write_json", storage, "write_json", self._written),
            ("storage.read_json", storage, "read_json", None),
            ("storage.sha256_file", storage, "sha256_file", None),
            ("metrics.exclusion_corpus_from_targets", metrics, "exclusion_corpus_from_targets", None),
            ("metrics.corpus_report", metrics, "corpus_report", None),
            ("stats.compare_models", stats, "compare_models", None),
            ("stats.paired_outcome_from_rows", stats, "paired_outcome_from_rows", None),
            ("insight.coverage_report", insight, "coverage_report", None),
            ("insight.vocabulary_elements", insight, "vocabulary_elements", self._vocabulary),
        ]

    def _count_git(self, run):
        tracer = self.tracer

        @functools.wraps(run)
        def counted(*args, **kwargs):
            argv = args[0] if args else kwargs.get("args")
            if argv and argv[0] == "git":
                tracer.count("git.spawns")
            return run(*args, **kwargs)

        return counted

    def install(self) -> None:
        t = self.tracer
        for name, owner, attr, hook in self._targets():
            self._patch.replace(owner, attr, lambda fn, name=name, hook=hook: t.wrap(name, fn, hook))
        self._patch.replace(storage, "read_jsonl", lambda fn: t.wrap_generator("storage.read_jsonl", fn))
        self._patch.replace(subprocess, "run", self._count_git)

    def restore(self) -> None:
        self._patch.restore()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(probe: Probe, report: dict, seen_versions: int, expected_versions: int,
                  mine_child_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; names as in BENCHMARK.json."""
    t = probe.tracer
    self_s, _ = self_times(t.spans)
    c = t.counts
    in_mine = {key: v for (stage, key), v in t.stage_counts.items() if stage == "pipeline.mine"}
    out = {
        "mining.read_blob.calls": c["mining.read_blob.calls"],
        "mining.read_blob.self_s": self_s["mining.read_blob"],
        "mining.git_spawns": in_mine.get("git.spawns", 0),
        "mining.git_child_cpu_s": mine_child_cpu_s,
        "mining.stream_commits.self_s": self_s["mining.stream_commits"],
        "mining.java_paths_seen_ratio": _ratio(seen_versions, expected_versions),
        "mining.added_lines.calls": c["mining.added_lines.calls"],
        "mining.added_lines.self_s": self_s["mining.added_lines"],
        "javalex.lex.calls": c["javalex.lex.calls"],
        "javalex.lex.self_s": self_s["javalex.lex"],
        "javalex.chars_lexed": c["javalex.chars_lexed"],
        "javalex.lex_calls_per_file_version": _ratio(
            in_mine.get("javalex.lex.calls", 0), in_mine.get("mining.added_lines.calls", 0)
        ),
        "javamethods.is_parsable.self_s": self_s["javamethods.is_parsable"],
        "javamethods.extract_methods.self_s": self_s["javamethods.extract_methods"],
        "javamethods.apply_method_filters.self_s": self_s["javamethods.apply_method_filters"],
        "javamethods.map_added_lines.self_s": self_s["javamethods.map_added_lines"],
        "javamethods.kept_ratio": _ratio(report["methods"]["kept"], report["methods"]["extracted"]),
        "masking.segment.self_s": self_s["masking.segment"],
        "masking.mask.calls": c["masking.mask.calls"],
        "masking.mask.self_s": self_s["masking.mask"],
        "masking.mask_yield": _ratio(c["masking.instances"], c["masking.mask.calls"]),
        "masking.generate_generic.self_s": self_s["masking.generate_generic"],
        "identity.resolve_identities.self_s": self_s["identity.resolve_identities"],
        "assembly.split_developer.self_s": self_s["assembly.split_developer"],
        "assembly.build_org_dataset.self_s": self_s["assembly.build_org_dataset"],
        "assembly.dedup.self_s": self_s["assembly.dedup"],
        "assembly.build_baseline_plus.self_s": self_s["assembly.build_baseline_plus"],
        "assembly.mlm_pretrain_instances.self_s": self_s["assembly.mlm_pretrain_instances"],
        "pipeline.method_from_text.calls": c["pipeline.method_from_text.calls"],
        "pipeline.method_from_text.self_s": self_s["pipeline.method_from_text"],
        "storage.write_jsonl.self_s": self_s["storage.write_jsonl"],
        "storage.bytes_written": c["storage.bytes_written"],
        "storage.read_jsonl.self_s": self_s["storage.read_jsonl"],
        "storage.records_read": c["storage.read_jsonl.items"],
        "storage.sha256_file.self_s": self_s["storage.sha256_file"],
        "metrics.exclusion_corpus_from_targets.calls": c["metrics.exclusion_corpus_from_targets.calls"],
        "metrics.exclusion_corpus_from_targets.self_s": self_s["metrics.exclusion_corpus_from_targets"],
        "metrics.corpus_report.self_s": self_s["metrics.corpus_report"],
        "metrics.token_texts.calls": c["metrics.token_texts.calls"],
        "stats.compare_models.self_s": self_s["stats.compare_models"],
        "insight.coverage_report.calls": c["insight.coverage_report.calls"],
        "insight.coverage_report.self_s": self_s["insight.coverage_report"],
        "insight.vocabulary_elements.calls": c["insight.vocabulary_elements.calls"],
        "insight.instances_lexed": _ratio(c["insight.instances_lexed"], len(probe.vocab_ids)),
    }
    for stage in STAGES:
        out[f"pipeline.{stage}.self_s"] = self_s[f"pipeline.{stage}"]
    return out
