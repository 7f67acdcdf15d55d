"""Run with: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import os
import sys
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from tracer import Patch, Tracer, self_times, stage_coverage  # noqa: E402


class FakeClock:
    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


@contextmanager
def span(tracer: Tracer, name: str):
    idx = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(idx)


def test_self_time_of_nested_spans():
    # stage [0, 10] holds a [1, 5] and b [6, 9]; a holds c [2, 4]
    t = Tracer(FakeClock(0, 1, 2, 4, 5, 6, 9, 10))
    with span(t, "stage"):
        with span(t, "a"):
            with span(t, "c"):
                pass
        with span(t, "b"):
            pass
    self_s, covered = self_times(t.spans)
    assert self_s == {"stage": 3.0, "a": 2.0, "c": 2.0, "b": 3.0}
    assert covered == [7.0, 2.0, 0.0, 0.0]
    assert stage_coverage(t.spans) == {"stage": (10.0, 7.0)}


def test_self_times_add_up_over_repeated_names():
    t = Tracer(FakeClock(0, 1, 3, 4, 7, 8))
    with span(t, "stage"):
        for _ in range(2):
            with span(t, "x"):
                pass
    self_s, _ = self_times(t.spans)
    assert self_s["x"] == 5.0
    assert self_s["stage"] == 3.0


def test_wrap_forwards_arguments_and_result():
    t = Tracer()
    seen = []
    marker = object()

    def fn(a, *rest, key=None):
        seen.append((a, rest, key))
        return marker

    hooked = []
    traced = t.wrap("layer.fn", fn, lambda tr, args, kwargs, result: hooked.append((args, kwargs, result)))
    assert traced(1, 2, 3, key="k") is marker
    assert seen == [(1, (2, 3), "k")]
    assert hooked == [((1, 2, 3), {"key": "k"}, marker)]
    assert t.counts["layer.fn.calls"] == 1
    assert traced.__name__ == "fn"


def test_wrap_closes_span_when_the_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("layer.boom", boom)()
    assert t.spans[0][2] is not None
    assert t.stage() is None


def test_wrap_generator_forwards_items_and_counts_them():
    t = Tracer()

    def gen(n, step=1):
        yield from range(0, n, step)

    traced = t.wrap_generator("layer.gen", gen)
    with span(t, "stage"):
        assert list(traced(7, step=2)) == [0, 2, 4, 6]
    assert t.counts["layer.gen.calls"] == 1
    assert t.counts["layer.gen.items"] == 4
    assert t.stage_counts[("stage", "layer.gen.items")] == 4
    # one span per resumption, the last one ends the iteration
    assert [s[0] for s in t.spans].count("layer.gen") == 5
    assert all(s[3] == 0 for s in t.spans[1:])


def test_patch_reaches_every_holder_and_restores():
    owner = types.ModuleType("fakepkg.owner")
    user = types.ModuleType("fakepkg.user")

    def original(x):
        return x + 1

    owner.fn = original
    user.fn_alias = original
    sys.modules.update({"fakepkg.owner": owner, "fakepkg.user": user})
    try:
        t = Tracer()
        patch = Patch(("fakepkg",))
        patch.replace(owner, "fn", lambda fn: t.wrap("owner.fn", fn))
        assert owner.fn is not original and user.fn_alias is owner.fn
        assert user.fn_alias(1) == 2
        assert t.counts["owner.fn.calls"] == 1
        patch.restore()
        assert owner.fn is original and user.fn_alias is original
    finally:
        del sys.modules["fakepkg.owner"], sys.modules["fakepkg.user"]


def test_traced_pass_leaves_the_output_tree_byte_identical(tmp_path, monkeypatch):
    """Every wrapper forwards what it is given and returns what the
    program returned, so tracing cannot change an output file."""
    from test_bench_generator import TINY

    import run
    from layers import Probe
    from repotailor import pipeline
    from repotailor.config import load_config

    monkeypatch.chdir(tmp_path)
    checks = run.Checks()
    bench = run.Bench(pipeline, load_config, TINY, "tiny", 5, checks)
    bench.setup(run.Clock())
    _, plain = bench.cold_pass(run.Clock(), once=True)

    tracer = Tracer()
    probe = Probe(tracer)
    probe.install()
    try:
        _, traced = bench.cold_pass(run.Clock(tracer), once=True)
    finally:
        probe.restore()
    assert traced == plain
    # the repetitions of an untraced pass rewrite the same files
    _, repeated = bench.cold_pass(run.Clock())
    assert repeated == plain
    assert checks.failed == 0, checks.messages
    assert tracer.counts["javalex.lex.calls"] > 0
    assert tracer.counts["storage.read_jsonl.items"] > 0
    assert pipeline.read_blob.__module__ == "repotailor.mining"
    assert os.path.exists(bench.out / "verify.json")
