"""Hash-consing: one object per value.

A hash-consed class keeps one object per value, so equality is identity
and an object hashes by its id (Filliatre and Conchon, "Type-safe
modular hash-consing", ML Workshop 2006).  The level-trees, the Delta,
Gamma and Theta_n operators and the one small value class,
FiniteAbelianGroup, derive from HashConsed and keep their objects in
the one table, intern's.
"""

from __future__ import annotations

import functools


class HashConsed:
    """Base of a hash-consed class: _fields names its fields, its __new__
    returns intern(cls, *fields) and _build checks a new value and sets
    the slots derived from its fields, such as a tree's height.  Equality
    is identity and the hash is id's, both in C; the object is frozen, and
    copy, deepcopy and pickle return it."""

    __slots__ = _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen; cannot change {name!r}")

    __delattr__ = __setattr__

    def _build(self):
        """Check a new value; the default accepts every value."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


@functools.cache
def intern(cls: type[HashConsed], *fields) -> HashConsed:
    """The one object of cls with these fields, which its __new__ returns.
    The cache is the table: a new value is kept only if its _build()
    accepts it, so each value is checked once; a field that cannot be
    hashed, such as a list, raises TypeError."""
    value = object.__new__(cls)
    for name, field in zip(cls._fields, fields):
        object.__setattr__(value, name, field)
    value._build()
    return value
