"""The one memo of the process.

Everything derived from fixed inputs alone is built once and kept here under
(kind, key): the validation report and reduction data of each polytope and
its vertex minors, each module's generators, and everything membership derives
from a kernel module at its decision window, which is built once and is the
key (cleared minimal generators, graded slice spans, Groebner data).  This
module imports nothing from the package, so every layer can use it.
"""

_MEMO: dict = {}
_MEMO_COUNTS: dict = {}  # kind -> [hits, misses]


def memo(kind: str, key, build):
    """The value stored under (kind, key), built by `build()` on first use.
    A `build()` that raises stores nothing."""
    counts = _MEMO_COUNTS.setdefault(kind, [0, 0])
    value = _MEMO.get((kind, key), _MEMO)
    if value is _MEMO:
        counts[1] += 1
        value = _MEMO[kind, key] = build()
    else:
        counts[0] += 1
    return value


def memo_counts() -> dict:
    """kind -> (hits, misses) since the last `clear_caches()`."""
    return {kind: tuple(c) for kind, c in _MEMO_COUNTS.items()}


def clear_caches():
    """Drop every memoized value and reset the hit/miss counts."""
    _MEMO.clear()
    _MEMO_COUNTS.clear()
