from __future__ import annotations

import json
import random

from repotailor.storage import dumps_canonical

# ASCII, quotes and escapes, control characters, non-ASCII in and beyond
# the BMP, lone surrogates, and the line separators JSON leaves raw
_CHARS = ["a", "Z", "0", " ", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t",
          "é", "ß", "中", "\u2028", "\ufeff", "😀", "\ud800", "\udfff"]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(8)))


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(8 if depth < 4 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.choice([0, -1, 2**31, -(2**63), 10**40, rng.randrange(-10**6, 10**6)])
    if kind == 3:
        return rng.choice([0.0, -0.0, 1e-310, 1.5e300, float("nan"), float("inf"), rng.uniform(-1e6, 1e6)])
    if kind in (4, 5):
        return _text(rng)
    if kind == 6:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return _record(rng, depth + 1)


def _record(rng: random.Random, depth: int = 0) -> dict:
    return {_text(rng): _value(rng, depth) for _ in range(rng.randrange(6))}


def test_dumps_canonical_equals_json_dumps():
    rng = random.Random(0x15C0)
    for _ in range(2_500):
        rec = _record(rng)
        assert dumps_canonical(rec) == json.dumps(rec, sort_keys=True, separators=(",", ":"), ensure_ascii=True)

