"""Multi-index arithmetic, lattice enumeration, and log-scale coefficients."""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np


class LatticeKind(Enum):
    """CUBE bounds every entry by the degree; SIMPLEX bounds the entry sum."""

    CUBE = "cube"
    SIMPLEX = "simplex"


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


def _degree(n) -> int:
    """Normalize a polynomial degree to a positive int, or raise."""
    if int(n) != n:
        raise ValueError(f"degree {n!r} is not an integer")
    if n < 1:
        raise ValueError("degree must be positive")
    return int(n)


def modulus(j) -> int:
    """Sum of the entries of a multi-index."""
    return int(sum(as_index(j)))


def log_factorial(n):
    """ln n!, vectorized over arrays of non-negative integers."""
    arr = np.asarray(n, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("factorial argument must be non-negative")
    out = np.array([math.lgamma(v + 1.0) for v in arr.reshape(-1)]).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


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


def log_multinomial(n: int, j):
    """ln of n! / (j_1! ... j_d! (n - |j|)!).

    Accepts a single multi-index of shape (d,) or a stack of shape (L, d);
    requires |j| <= n. Sums the logs of the sequential binomial factors
    C(n, j_1) C(n - j_1, j_2) ....
    """
    n = int(n)
    if n < 0:
        raise ValueError("degree must be non-negative")
    J = np.asarray(j, dtype=np.int64)
    if J.ndim == 0:
        J = J[None]
    if np.any(J < 0):
        raise ValueError("multi-index entries must be non-negative")
    if np.any(J.sum(axis=-1) > n):
        raise ValueError("multi-index modulus exceeds the degree")
    rows = J.reshape(-1, J.shape[-1])
    out = np.zeros(rows.shape[0])
    rem = np.full(rows.shape[0], n)
    for col in rows.T:
        for r in np.unique(rem):
            at = rem == r
            out[at] += _log_binomial_row(int(r))[col[at]]
        rem -= col
    out = out.reshape(J.shape[:-1])
    return float(out) if out.ndim == 0 else out


def log_binomial(n: int, j):
    """ln of C(n, j) for 0 <= j <= n, vectorized over j."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be non-negative")
    J = np.asarray(j, dtype=np.int64)
    if np.any(J < 0):
        raise ValueError("lower index must be non-negative")
    if np.any(J > n):
        raise ValueError("lower index exceeds the upper index")
    out = _log_binomial_row(n)[J]
    return float(out) if out.ndim == 0 else out


def enumerate_lattice(kind: LatticeKind, n: int, d: int) -> np.ndarray:
    """All admissible indices as an (L, d) int array in lexicographic order."""
    if not isinstance(kind, LatticeKind):
        raise TypeError("kind must be a LatticeKind")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < 0:
        raise ValueError("degree must be non-negative")
    if kind is LatticeKind.CUBE:
        axes = np.meshgrid(*([np.arange(n + 1, dtype=np.int64)] * d), indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, d)
    return _simplex_rows(n, d)


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


def lattice_size(kind: LatticeKind, n: int, d: int) -> int:
    """Closed-form cardinality of the lattice."""
    if kind is LatticeKind.CUBE:
        return (n + 1) ** d
    return math.comb(n + d, d)
