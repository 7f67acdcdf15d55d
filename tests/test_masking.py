from __future__ import annotations

import random

from repotailor.assembly import mlm_pretrain_instances
from repotailor.javalex import token_texts
from repotailor.javamethods import method_from_text, parse_methods
from repotailor.masking import (
    BLOCK,
    ISOLATED_LINE,
    SENTINEL,
    APACHE_MASK_DISTRIBUTION,
    MaskLengthDistribution,
    Provenance,
    generate_generic,
    mask,
    segment,
)

from conftest import method_of, random_method
from oracles import (
    reference_generate_generic,
    reference_mask,
    reference_mlm_pretrain_instances,
    reference_offset_in_text,
    reference_segment,
    reference_token_method_from_text,
    reference_token_methods,
    unit_of_tokens,
)

RUNNING_EXAMPLE = """class C {
    void build(int a, int b) {
        int t = 0;
        t += a;
        t += b;

        t *= 2;
        t -= 1;
        int u = t;
        int v = u;
        int w = v;
        int x = w;
        int y = x;
        result = a + b;
    }
}"""


def test_running_example_segmentation():
    m = method_of(RUNNING_EXAMPLE)
    segments = segment([4, 5, 6, 7, 8, 14], m)
    assert [(s.kind, s.line_numbers) for s in segments] == [
        (BLOCK, (4, 5, 6, 7)),
        (BLOCK, (8,)),
        (ISOLATED_LINE, (14,)),
    ]
    assert segments[0].counted_line_count == 3


def test_single_line_is_isolated():
    m = method_of(RUNNING_EXAMPLE)
    segments = segment([10], m)
    assert [(s.kind, s.line_numbers) for s in segments] == [(ISOLATED_LINE, (10,))]


def test_six_contiguous_counted_lines_split_three_three():
    m = method_of(RUNNING_EXAMPLE)
    segments = segment([8, 9, 10, 11, 12, 13], m)
    assert [s.line_numbers for s in segments] == [(8, 9, 10), (11, 12, 13)]
    assert all(s.counted_line_count == 3 for s in segments)


def test_segments_partition_input_lines():
    rng = random.Random(3)
    for _ in range(200):
        m = random_method(rng)
        body_lines = list(range(m.start_line + 1, m.end_line))
        if not body_lines:
            continue
        added = sorted(rng.sample(body_lines, rng.randint(1, len(body_lines))))
        segments = segment(added, m)
        covered = [line for s in segments for line in s.line_numbers]
        assert sorted(covered) == added
        assert len(set(covered)) == len(covered)


class FixedLow(random.Random):
    """rng whose randint always returns the lower bound."""

    def randint(self, a, b):  # noqa: A003 - mirrors random.Random
        return a


class FixedHigh(random.Random):
    def randint(self, a, b):
        return b


def test_mask_interval_collapses_at_n4():
    src = "class C {\n    void f() {\n        int q = 1;\n        a = b;\n    }\n}"
    m = method_of(src)
    # line 4 "a = b;" has 4 tokens
    seg = segment([4], m)[0]
    for seed in range(200):
        inst = mask(seg, m, random.Random(seed))
        assert inst is not None
        assert inst.n == 3
        assert inst.N == 4


def test_mask_returns_none_when_too_small():
    src = "class C {\n    void f() {\n        int q = 1;\n        a);\n    }\n}"
    m = method_of(src)
    seg = segment([4], m)[0]  # 3 tokens -> no legal n
    assert mask(seg, m, random.Random(0)) is None


def test_mask_bounds_uniform_over_3_to_50():
    body = "        long total = " + " + ".join(f"f{i}" for i in range(29)) + ";"
    src = "class C {\n    void f() {\n" + body + "\n    }\n}"
    m = method_of(src)
    seg = segment([3], m)[0]
    toks = token_texts(src.split("\n")[2])
    assert len(toks) == 61  # N-1 = 60 caps the draw at 50
    rng = random.Random(42)
    seen = set()
    for _ in range(10_000):
        inst = mask(seg, m, rng)
        seen.add(inst.n)
        assert 3 <= inst.n <= 50
    assert seen == set(range(3, 51))


def test_mask_listing_example():
    src = "class C {\n    void f() {\n        int p = 1;\n        result = a + b;\n    }\n}"
    m = method_of(src)
    seg = segment([4], m)[0]
    inst = mask(seg, m, FixedHigh())  # N=6 -> n=5 masks everything after 'result'
    assert inst.n == 5
    inst4 = None
    for seed in range(500):
        candidate = mask(seg, m, random.Random(seed))
        if candidate.n == 4:
            inst4 = candidate
            break
    assert inst4 is not None
    assert inst4.target == "a + b;"
    # method text starts at the declaration line; file line 4 is text line 3
    assert inst4.context.split("\n")[2] == f"        result = {SENTINEL}"


def test_context_reconstruction_token_exact():
    rng = random.Random(8)
    for _ in range(300):
        m = random_method(rng)
        body_lines = list(range(m.start_line + 1, m.end_line))
        added = sorted(rng.sample(body_lines, min(len(body_lines), rng.randint(1, 4))))
        for seg in segment(added, m):
            inst = mask(seg, m, rng)
            if inst is None:
                continue
            assert inst.context.count(SENTINEL) == 1
            rebuilt = inst.context.replace(SENTINEL, inst.target, 1)
            assert rebuilt == m.text
            assert token_texts(rebuilt) == list(m.texts)
            lines = m.text.split("\n")
            seg_token_texts = [t for line in seg.line_numbers for t in token_texts(lines[line - m.start_line])]
            assert token_texts(inst.target) == seg_token_texts[-inst.n :]


def test_mask_determinism_and_provenance_in_id():
    m = method_of(RUNNING_EXAMPLE)
    seg = segment([14], m)[0]
    prov = Provenance("repo", "a" * 40, "dev", 123, "C.java")
    one = mask(seg, m, random.Random(5), prov)
    two = mask(seg, m, random.Random(5), prov)
    assert one == two
    other = mask(seg, m, random.Random(5), Provenance("repo2", "a" * 40, "dev", 123, "C.java"))
    assert other.instance_id != one.instance_id


def test_generic_single_maskable_line():
    src = "class C {\n    void f() {\n        int total = a + b + c;\n    }\n}"
    m = method_of(src)
    instances = generate_generic(m, APACHE_MASK_DISTRIBUTION, random.Random(5))
    assert len(instances) == 1


def test_generic_degenerate_distribution_pins_n():
    dist = MaskLengthDistribution(mean=3, median=3, min=3, max=3)
    rng = random.Random(1)
    for _ in range(50):
        m = random_method(rng, body_lines=8)
        for inst in generate_generic(m, dist, rng):
            assert inst.n == 3


def test_generic_respects_bounds_and_cap():
    rng = random.Random(2)
    for _ in range(200):
        m = random_method(rng, body_lines=10)
        instances = generate_generic(m, APACHE_MASK_DISTRIBUTION, rng)
        assert len(instances) <= 3
        for inst in instances:
            assert 3 <= inst.n <= min(50, inst.N - 1)
            assert inst.context.count(SENTINEL) == 1


def test_generic_determinism():
    rng_a, rng_b = random.Random(77), random.Random(77)
    m = method_of(RUNNING_EXAMPLE)
    a = generate_generic(m, APACHE_MASK_DISTRIBUTION, rng_a)
    b = generate_generic(m, APACHE_MASK_DISTRIBUTION, rng_b)
    assert a == b


# Lines that masking must place tokens on: text blocks and block comments
# that span lines (and hold braces), one-line comments, strings and chars
# with braces, lines of one token and of none, and non-ASCII identifiers.
_BODY_LINES = [
    "int r = a + b * 2;",
    "x();",
    "",
    "    ",
    "a = b; c = d; e = f;",
    "if (a > 1) { b = a; }",
    "// only a comment {",
    'String t = """\n        one { two\n          three\n        """ + a;',
    "/* a comment\n   } over lines */ int q = a + 1;",
    "int p = 1; /* opens\n   and closes */",
    's = "}" + \'{\' + a;',
    "int größe = ä + 1;",
    "return;",
    "b",
    's = "<MASK_0>" + a;',
]


def _fuzz_class(rng: random.Random) -> str:
    methods = []
    for k in range(rng.randint(1, 3)):
        body = [rng.choice(_BODY_LINES) for _ in range(rng.randint(1, 9))]
        lines = ["    int m%d(int a, int b) {" % k, *("        " + line for line in body), "        return a;", "    }"]
        methods.append("\n".join(lines))
    src = "class Fuzz {\n" + "\n".join(methods) + "\n}\n"
    return src.replace("\n", "\r\n") if rng.random() < 0.3 else src


# stored generic texts: the first line may open a comment, string or text
# block that the whole source closed earlier
_STORED_TEXTS = [
    "     * Don't do this. */ int m(int a) {\n        return a + a + a + a + a + a + a;\n    }",
    '    """; int m(int a) {\n        int b = a + a + 1;\n        return b * b;\n    }',
    "   } over lines */ int m(int a) {\n        /* more\n  */ int b = a + 2;\n        return b + b + b;\n    }",
    "int m() {\r\n    int x = 1 + 2 + 3;\r\n    return x + x;\r\n}",
]

_DISTRIBUTIONS = [APACHE_MASK_DISTRIBUTION, MaskLengthDistribution.from_samples([3, 4, 4, 5, 9, 14, 22])]


def _line_sets(rng: random.Random, first: int, last: int) -> list[list[int]]:
    """Added-line sets over lines ``first..last``: every line, each line
    alone, a run past both ends, and random subsets."""
    lines = list(range(first, last + 1))
    sets = [lines, *([line] for line in lines), list(range(first - 2, last + 3))]
    sets += [sorted(rng.sample(lines, rng.randint(1, len(lines)))) for _ in range(4)]
    return sets


def _assert_masks_as_reference(unit, ref, rng: random.Random) -> int:
    """`unit` masks as the token-tuple reference masks ``ref``; returns
    the number of instances compared."""
    seen = 0
    for added in _line_sets(rng, unit.start_line, unit.end_line):
        segments, expected = segment(added, unit), reference_segment(added, ref)
        offset = reference_offset_in_text(ref)
        assert [
            (s.line_numbers, s.counted_line_count, s.kind, unit.offsets[s.first : s.end], unit.texts[s.first : s.end])
            for s in segments
        ] == [
            (s.line_numbers, s.counted_line_count, s.kind, tuple(map(offset, s.tokens)), tuple(t.text for t in s.tokens))
            for s in expected
        ], (unit.text, added)
        for seg, want in zip(segments, expected):
            seed = rng.random()
            got = mask(seg, unit, random.Random(seed), Provenance("r", "s", "a", 1, "F.java"))
            assert got == reference_mask(want, ref, random.Random(seed), Provenance("r", "s", "a", 1, "F.java"))
            seen += got is not None
    for dist in _DISTRIBUTIONS:
        seed = rng.random()
        got = generate_generic(unit, dist, random.Random(seed), Provenance("g", "s", "generic", 2, "G.java"))
        assert got == reference_generate_generic(ref, dist, random.Random(seed), Provenance("g", "s", "generic", 2, "G.java"))
        seen += len(got)
    seed = rng.random()
    got = mlm_pretrain_instances(unit, random.Random(seed))
    if "<MASK_" in unit.text:
        assert got is None
    else:
        assert got == reference_mlm_pretrain_instances(ref, random.Random(seed)), unit.text
        seen += 1
    return seen


def test_masking_equals_the_token_tuple_reference():
    """Segments, change-based masks, generic masks under two length
    distributions and MLM masks read token offsets to the same instances
    that the token-tuple masking gave, on methods parsed from fixture and
    fuzzed sources (text blocks and comments spanning added lines, CRLF
    lines, non-ASCII identifiers) and on the same methods' stored texts,
    among them texts whose first line starts inside a comment."""
    rng = random.Random(2525)
    sources = [RUNNING_EXAMPLE, RUNNING_EXAMPLE.replace("\n", "\r\n")] + [_fuzz_class(rng) for _ in range(150)]
    methods = texts = instances = 0
    stored = [(text, "m", "m()") for text in _STORED_TEXTS]
    for src in sources:
        units, refs = parse_methods(src), reference_token_methods(src)
        assert units == [unit_of_tokens(ref) for ref in refs], src
        for unit, ref in zip(units, refs):
            instances += _assert_masks_as_reference(unit, ref, rng)
            stored.append((unit.text, unit.name, unit.signature))
        methods += len(units)
    for text, name, signature in stored:
        unit, ref = method_from_text(text, name, signature), reference_token_method_from_text(text, name, signature)
        assert unit == unit_of_tokens(ref), text
        instances += _assert_masks_as_reference(unit, ref, rng)
        texts += 1
    assert methods >= 250 and texts >= 250 and instances >= 5000, (methods, texts, instances)
