"""The one memo of the process, and the values it is keyed by.

Everything derived from fixed inputs alone is built once and kept here under
(kind, key): the polytope of each file text, the validation report and
reduction data of each polytope and its vertex minors, each kernel module,
each module's generators and their report lines, and everything membership
derives from a kernel module at its decision window, which is built once and
is the key (whether the cleared generators generate m^D, with the least-degree
generators there and the minimal ones elsewhere, and their restrictions;
graded slice spans; Groebner data).
This module imports nothing from the package, so every layer can use it.

The keys are file text or `Value`s, alone or in tuples with plain values.  A
`Value` is an immutable record compared and hashed by its fields; every value
type of the library (polytopes, reduction data, modules, subspaces, reports)
is built on it, with `replace` for a changed copy.
"""

from operator import attrgetter

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


def _getter(names):
    """A function from a value to the tuple of its named fields."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda value: (get(value),)


class Value:
    """An immutable record of named fields.

    A subclass declares its fields as annotations, in order, each with an
    optional class-level default; the fields of a base class come first.
    Fields are set by position or keyword, `__post_init__` checks or
    completes them on construction and on `replace`, and none can be assigned
    or deleted afterwards.  Two values are equal when they have the same class
    and equal fields.  The hash is that of the whole field tuple, taken on
    the first `hash()` and kept on the instance: values sit in every memo
    key, and fields such as a `Fraction` are slow to hash."""

    _fields: tuple = ()
    _field_set: frozenset = frozenset()
    _defaults: dict = {}
    _hash = None  # set on the instance by its first hash()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = cls._fields + own
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        # equality reads the fields through a getter held in a closure: the
        # memo compares its keys on every lookup
        key = _getter(cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls._key, cls.__eq__ = staticmethod(key), __eq__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __init__(self, *args, **kwargs):
        # fields are set in order, one at a time, so that instances share one
        # attribute layout and none builds a dict of its own
        fields, set_field = self._fields, object.__setattr__
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[:len(args)]):
                raise TypeError(f"{type(self).__name__} got too many or repeated fields")
            kwargs.update(zip(fields, args))
            if kwargs.keys() != self._field_set:
                kwargs = {**self._defaults, **kwargs}
                if kwargs.keys() != self._field_set:
                    raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}, "
                                    f"got {', '.join(kwargs)}")
            for name in fields:
                set_field(self, name, kwargs[name])
        else:
            for name, value in zip(fields, args):
                set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(value: Value, **changes) -> Value:
    """A copy of `value` with the named fields changed, checked again by its
    `__post_init__`."""
    return type(value)(**{**dict(zip(value._fields, value._key(value))), **changes})
