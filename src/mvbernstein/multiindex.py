"""Multi-index arithmetic and the one-block tables the lattices rest on.

`_simplex_rows` builds a simplex block's lattice, every j with |j| <= n in
lexicographic order, and `_log_binomial_row` the row ln C(n, j), j = 0..n,
that each axis's weights read. `bernstein.model_lattice` is the lattice of
a domain kind, the product of its blocks' lattices.
"""

from __future__ import annotations

import functools
import math

import numpy as np


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
        ie = int(e)
        if ie != e:
            raise ValueError(f"multi-index entry {e!r} is not an integer")
        if ie < 0:
            raise ValueError(f"multi-index entry {e} is negative")
        out.append(ie)
    return tuple(out)


def _degree(n, least: int = 1) -> int:
    """Normalize a polynomial degree to an int of at least `least`, 1 for a
    model and 0 for a lattice, or raise a ValueError naming the degree."""
    if int(n) != n:
        raise ValueError(f"degree {n!r} is not an integer")
    if n < least:
        raise ValueError(f"degree {n!r} must be {'positive' if least else 'non-negative'}")
    return int(n)


def modulus(j) -> int:
    """Sum of the entries of a multi-index."""
    return int(sum(as_index(j)))


# A varying-degree axis of degree N reads the rows 0..N in order; a scan
# longer than the cache evicts each row before its next use. Full, it holds
# ~0.5M floats, a third of the weight table of a scan at N = 1,023.
@functools.lru_cache(maxsize=1024)
def _log_binomial_row(n: int) -> np.ndarray:
    """ln C(n, j) for j = 0..n, each the log of the exact integer; read-only."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    out = np.array([math.log(c) for c in row])
    out.setflags(write=False)
    return out


def _simplex_rows(n: int, d: int) -> np.ndarray:
    """The simplex lattice, built one axis at a time: a row with budget p left
    gets the p + 1 children 0..p on the next axis, in order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([n])
    for _ in range(d):
        counts = budget + 1
        parent = np.repeat(np.arange(budget.size), counts)
        child = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.hstack([rows[parent], child[:, None]])
        budget = budget[parent] - child
    return rows
