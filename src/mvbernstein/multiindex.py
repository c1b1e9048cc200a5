"""Multi-index arithmetic, the one-block tables the lattices rest on, and
the package's two memory budgets.

`_simplex_rows` builds a simplex block's lattice, every j with |j| <= n in
lexicographic order, and `_log_binomial_row` the row ln C(n, j), j = 0..n,
that each axis's weights read. `bernstein.model_lattice` is the lattice of
a domain kind, the product of its blocks' lattices. `_check_budget` refuses
a request past MEMORY_BUDGET, and `_table_cache` keeps the package's array
tables within one budget of bytes.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# A request whose working set, as its route estimates it, passes this many
# bytes is refused before it allocates: a model (L (12 d + 8) bytes and
# f's block, see bernstein._check_model), Monte Carlo draws, a quadrature
# grid. Every refusal reads this binding when called (_check_budget).
MEMORY_BUDGET = 2**30

# The array tables the package caches (lattices, contraction plans, weight,
# difference and log-binomial rows, elevation stacks, the oracle's exact
# coefficients, Gauss-Legendre rules) share this many bytes, 16 MiB.
_TABLE_BYTES = MEMORY_BUDGET // 64


class SizeError(ValueError):
    """A request's working set exceeds MEMORY_BUDGET; raised before it is allocated."""


def _check_budget(what: str, args: tuple, *parts: int):
    """Refuse a working set of sum(parts) bytes past MEMORY_BUDGET: a
    SizeError of what.format(*args, *gib), gib each part in GiB to one
    decimal, and the budget. A part is stated as part / 2**30 formats as a
    float, but from the integer, so that no size is too large to state."""
    if sum(parts) > MEMORY_BUDGET:
        gib = []
        for part in parts:
            # part rounded to 53 bits, as float(part) rounds it, then to
            # tenths of a GiB, each half to even
            shift = max(part.bit_length() - 53, 0)
            near = round(Fraction(part, 1 << shift)) << shift
            tenths = round(Fraction(10 * near, 2**30))
            gib.append(f"{tenths // 10:,}.{tenths % 10}")
        raise SizeError(what.format(*args, *gib) + f", past the {MEMORY_BUDGET / 2**30:g} GiB budget")


class _CacheInfo(NamedTuple):
    """One cached function's tables made (misses) and those it holds, with
    their bytes."""

    misses: int
    currsize: int
    nbytes: int


def _arrays(table):
    """The arrays of a table: an array, or tuples of them nested to any depth."""
    if isinstance(table, np.ndarray):
        yield table
    elif isinstance(table, tuple):
        for item in table:
            yield from _arrays(item)


class _TableCache:
    """Tables kept by function and arguments, least recently used out first
    once the bytes of their arrays pass `budget`.

    Every table is made read-only. One larger than the whole budget is
    handed back but not kept. Threads may call at once. A hit takes no
    lock: a lookup and a move to the back are each one atomic step of the
    dict, and a table dropped between the two stays valid for the caller.
    Everything else holds the lock, and reads the dict through a copy of
    its keys, made in one step, so that no hit changes it mid-loop; two
    threads that miss the same table may both make it, and both get the
    one kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._held = OrderedDict()  # (function, args) -> (table, bytes)
        self._lock = threading.Lock()

    def __call__(self, fn):
        """fn cached here, with cache_info(), cache_clear() and __wrapped__."""
        held, lock = self._held, self._lock
        misses = 0

        @functools.wraps(fn)
        def cached(*args):
            nonlocal misses
            key = (fn, args)
            entry = held.get(key)
            if entry is not None:
                try:
                    held.move_to_end(key)
                except KeyError:  # evicted since the lookup
                    pass
                return entry[0]
            with lock:
                misses += 1
            table = fn(*args)
            size = 0
            for arr in _arrays(table):
                arr.setflags(write=False)
                size += arr.nbytes
            if size > self.budget:
                return table
            with lock:
                entry = held.setdefault(key, (table, size))
                if entry[0] is table:
                    self.nbytes += size
                    while self.nbytes > self.budget:
                        self.nbytes -= held.popitem(last=False)[1][1]
            return entry[0]

        def cache_info() -> _CacheInfo:
            with lock:
                sizes = [size for (f, _), (_, size) in list(held.items()) if f is fn]
                return _CacheInfo(misses, len(sizes), sum(sizes))

        def cache_clear():
            nonlocal misses
            with lock:
                for key in list(held):
                    if key[0] is fn:
                        self.nbytes -= held.pop(key)[1]
                misses = 0

        cached.cache_info, cached.cache_clear = cache_info, cache_clear
        return cached


_table_cache = _TableCache(_TABLE_BYTES)


def as_index(entries) -> tuple[int, ...]:
    """Normalize a multi-index to a tuple of non-negative ints, or raise."""
    try:
        items = list(entries)
    except TypeError:
        raise ValueError("multi-index must be a sequence of integers") from None
    if not items:
        raise ValueError("multi-index needs at least one entry")
    out = []
    for e in items:
        ie = _integer(e, "multi-index entry")
        if ie < 0:
            raise ValueError(f"multi-index entry {e} is negative")
        out.append(ie)
    return tuple(out)


def _integer(value, what: str) -> int:
    """value as an int, or a ValueError naming it as `what`: an integral
    float such as 10.0 counts as 10, where 2.5 would be cut to 2. A bool is
    refused, so that True is not taken for 1, and so are NaN and infinities."""
    try:
        if int(value) == value and not isinstance(value, (bool, np.bool_)):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, infinities
        pass
    raise ValueError(f"{what} {value!r} is not an integer")


def _degree(n, least: int = 1) -> int:
    """Normalize a polynomial degree to an int of at least `least`, 1 for a
    model and 0 for a lattice, or raise a ValueError naming the degree."""
    degree = _integer(n, "degree")
    if degree < least:
        raise ValueError(f"degree {n!r} must be {'positive' if least else 'non-negative'}")
    return degree


def _degrees(n_list) -> list[int]:
    """A degree list as model degrees, each normalized by _degree; a single
    number or an empty list is a ValueError."""
    try:
        items = list(n_list)
    except TypeError:
        raise ValueError(f"degree list {n_list!r} is not a sequence of degrees") from None
    if not items:
        raise ValueError("at least one degree is required")
    return [_degree(n) for n in items]


@_table_cache
def _log_binomial_row(n: int) -> np.ndarray:
    """ln C(n, j) for j = 0..n, each the log of the exact integer; read-only.
    One integer is held at a time, and C(n, j) = C(n, n - j) fills the upper
    half, so the row takes O(n) memory besides itself."""
    row = np.empty(n + 1)
    c = 1
    for j in range(n // 2 + 1):
        row[j] = row[n - j] = math.log(c)
        c = c * (n - j) // (j + 1)
    return row


def _simplex_rows(n: int, d: int) -> np.ndarray:
    """The simplex lattice as an int32 (C(n + d, d), d) array, filled one
    column at a time: a prefix with budget p left gets the p + 1 children
    0..p on the next axis, in order, and each child's entry repeats once
    per completion of its prefix on the axes after it, C(p' + r, r) times
    for the budget p' it leaves to r more axes."""
    out = np.empty((math.comb(n + d, d), d), dtype=np.int32)
    budget = np.array([n], dtype=np.int32)
    for a in range(d):
        counts = budget + 1
        starts = np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
        rest = d - 1 - a
        if rest == 0:
            # the last axis's children, one per row of the lattice
            np.subtract(np.arange(out.shape[0], dtype=np.int32), starts, out=out[:, a])
            break
        child = np.arange(starts.size, dtype=np.int32) - starts
        budget = np.repeat(budget, counts) - child
        completions = np.array([math.comb(p + rest, rest) for p in range(n + 1)])
        out[:, a] = np.repeat(child, completions[budget])
    return out
