"""Bernstein approximation on products of simplex blocks.

Every domain kind is a product of simplex blocks: the unit cube is d blocks
one axis wide, the unit simplex one block over all d axes, and a mixed kind
a d1-wide block times 1-wide blocks over the remaining axes. A model stores
the samples f(j/n) over the kind's lattice, the lexicographic product of
the block lattices. Evaluation contracts that tensor, one axis per block,
with each block's binomial or multinomial basis weights computed in log
space, with explicit boundary handling (0^0 = 1). Mixed partial derivatives
of the polynomial are evaluated in closed form: per-block forward
differences of f over a degree-reduced lattice, contracted with the reduced
basis. An independent oracle differentiates the basis functions instead,
via repeated product-rule passes over an explicit term expansion, and never
touches the difference path.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .multiindex import (
    LatticeKind,
    as_index,
    enumerate_lattice,
    log_binomial,
    log_multinomial,
)

# Points this far outside the boundary are clamped; farther out is an error.
CLAMP_TOL = 1e-12

# Intermediate arrays in chunked contractions stay below this many floats.
_CHUNK_FLOATS = 4_000_000


class DomainError(ValueError):
    """A point lies outside the model domain by more than the clamp tolerance."""


@dataclass(frozen=True)
class Kind:
    """Domain kind tag; mixed kinds carry the width d1 of the simplex block."""

    name: str
    d1: int | None = None


CUBE = Kind("cube")
SIMPLEX = Kind("simplex")


def mixed(d1: int) -> Kind:
    """Mixed domain: a d1-simplex times a cube over the remaining axes."""
    d1 = int(d1)
    if d1 < 1:
        raise ValueError("the simplex block needs at least one axis")
    return Kind("mixed", d1)


def _check_kind(kind: Kind, d: int):
    if not isinstance(kind, Kind):
        raise TypeError("kind must be a Kind")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if kind.name in ("cube", "simplex"):
        if kind.d1 is not None:
            raise ValueError(f"{kind.name} kind does not take a block width")
    elif kind.name == "mixed":
        if kind.d1 is None or not 1 <= kind.d1 <= d:
            raise ValueError("mixed kind needs 1 <= d1 <= dim")
    else:
        raise ValueError(f"unknown kind {kind.name!r}")


def _blocks(kind: Kind, d: int) -> tuple[tuple[int, ...], ...]:
    """The kind's simplex block widths on d axes, grouped into factors.

    A factor is one simplex block or a run of cube axes, each a 1-wide
    block. Only the Monte Carlo sampler reads the grouping: it draws each
    factor in one call, which keeps every kind's draw stream as it was when
    each kind had its own sampler. This is the one place that turns a Kind
    into structure.
    """
    _check_kind(kind, d)
    if kind.name == "cube":
        return ((1,) * d,)
    if kind.name == "simplex":
        return ((d,),)
    cube_axes = (1,) * (d - kind.d1)
    return ((kind.d1,), cube_axes) if cube_axes else ((kind.d1,),)


def _widths(kind: Kind, d: int) -> tuple[int, ...]:
    """Block widths of the kind in axis order: cube (1,)*d, simplex (d,)."""
    return sum(_blocks(kind, d), ())


def _slices(widths) -> list[slice]:
    """The coordinate axes of each block."""
    ends = itertools.accumulate(widths)
    return [slice(end - w, end) for w, end in zip(widths, ends)]


def _degree(n) -> int:
    n = int(n)
    if n < 1:
        raise ValueError("degree must be positive")
    return n


def _reduced_degrees(widths, order, n: int):
    """Per-block degrees n - |k_b| of the order-k derivative; None if it vanishes."""
    degrees = tuple(n - sum(order[s]) for s in _slices(widths))
    return None if min(degrees) < 0 else degrees


def _prepare_points(x, kind: Kind, d: int):
    """Validate and clamp evaluation points; returns ((m, d) array, single?).

    Each block's coordinate sum may exceed 1 by CLAMP_TOL and is then
    scaled back onto 1.
    """
    widths = _widths(kind, d)
    P = np.asarray(x, dtype=np.float64)
    single = P.ndim == 1
    if single:
        P = P[None, :]
    if P.ndim != 2:
        raise ValueError("points must be a (d,) vector or an (m, d) array")
    if P.shape[1] != d:
        raise ValueError(f"point dimension {P.shape[1]} does not match domain dimension {d}")
    P = P.copy()
    if not np.all(np.isfinite(P)):
        raise DomainError("point has a non-finite coordinate")
    if np.any(P < -CLAMP_TOL):
        raise DomainError(f"coordinate {P.min()} is negative beyond tolerance")
    P[P < 0] = 0.0
    if len(widths) == d:
        sums = P  # a 1-wide block's sum is its coordinate
    else:
        sums = np.add.reduceat(P, [s.start for s in _slices(widths)], axis=1)
    if (sums > 1.0).any():
        if (sums > 1.0 + CLAMP_TOL).any():
            raise DomainError(f"block coordinate sum {sums.max()} exceeds 1 beyond tolerance")
        P /= np.repeat(np.maximum(sums, 1.0), widths, axis=1)
    return P, single


@dataclass(frozen=True)
class BernsteinModel:
    """Sampled values f(j/n) over the lattice of (kind, degree, dim)."""

    kind: Kind
    degree: int
    dim: int
    samples: np.ndarray

    def __post_init__(self):
        _check_kind(self.kind, self.dim)
        _degree(self.degree)
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be a flat array in lattice order")
        expected = model_size(self.kind, self.degree, self.dim)
        if arr.size != expected:
            raise ValueError(f"expected {expected} samples, got {arr.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


@functools.lru_cache(maxsize=64)
def _lattice(n: int, w: int) -> np.ndarray:
    """Lattice of one w-wide simplex block at degree n, read-only, lexicographic."""
    J = enumerate_lattice(LatticeKind.SIMPLEX, n, w)
    J.setflags(write=False)
    return J


def _sizes(widths, degrees) -> tuple[int, ...]:
    """Lattice size of each block at its degree."""
    return tuple(math.comb(deg + w, w) for w, deg in zip(widths, degrees))


def _cross(left, right):
    return np.hstack(
        [np.repeat(left, right.shape[0], axis=0), np.tile(right, (left.shape[0], 1))]
    )


def _product_lattice(widths, n: int) -> np.ndarray:
    lattices = [_lattice(n, w) for w in widths]
    return functools.reduce(_cross, lattices[1:], lattices[0].copy())


def model_size(kind: Kind, n: int, d: int) -> int:
    widths = _widths(kind, d)
    return math.prod(_sizes(widths, (n,) * len(widths)))


def model_lattice(kind: Kind, n: int, d: int) -> np.ndarray:
    """The sample lattice of the kind, lexicographic on full index tuples."""
    return _product_lattice(_widths(kind, d), n)


def _sample_tensor(f, widths, n: int) -> np.ndarray:
    """f at the lattice points j/n, one tensor axis per block."""
    vals = np.asarray(f(_product_lattice(widths, n) / float(n)), dtype=np.float64)
    return vals.reshape(_sizes(widths, (n,) * len(widths)))


def build_model(f, kind: Kind, n: int, d: int) -> BernsteinModel:
    """Sample f over the lattice points j/n in canonical order.

    If one call of f on the whole (L, d) batch fails, a RuntimeWarning
    names the failure and f is called once per lattice point instead.
    """
    n = _degree(n)
    lattice = model_lattice(kind, n, d)
    pts = lattice / float(n)
    try:
        vals = np.asarray(f(pts), dtype=np.float64)
        if vals.shape != (lattice.shape[0],):
            raise ValueError("batch evaluator returned a wrong shape")
    except Exception as err:
        warnings.warn(
            f"batch evaluation of f failed ({type(err).__name__}: {err}); "
            f"sampling {lattice.shape[0]} lattice points one at a time",
            RuntimeWarning,
            stacklevel=2,
        )
        vals = _sample_pointwise(f, pts, lattice)
    return BernsteinModel(kind=kind, degree=n, dim=int(d), samples=vals)


def _sample_pointwise(f, pts, lattice):
    out = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        try:
            out[i] = float(f(p))
        except Exception as err:
            idx = tuple(int(v) for v in lattice[i])
            raise RuntimeError(f"evaluator failed at lattice index {idx}") from err
    return out


# ---------------------------------------------------------------------------
# basis weights and the block contraction


def _axis_weights(degree: int, xs: np.ndarray) -> np.ndarray:
    """Rows of C(degree, j) x^j (1-x)^(degree-j) for x in xs, 0^0 = 1."""
    j = np.arange(degree + 1)
    w = np.zeros((xs.size, degree + 1))
    inner = (xs > 0.0) & (xs < 1.0)
    if np.any(inner):
        xi = xs[inner]
        logw = log_binomial(degree, j) + j * np.log(xi)[:, None]
        logw += (degree - j) * np.log1p(-xi)[:, None]
        w[inner] = np.exp(logw)
    w[xs == 0.0, 0] = 1.0
    w[xs == 1.0, degree] = 1.0
    return w


def _simplex_weights(degree: int, J: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Multinomial basis weights over lattice J at points P, boundary exact.

    Factors with a zero base and positive exponent kill the term; zero
    exponents contribute nothing even on the boundary.
    """
    mod = J.sum(axis=1)
    rem = degree - mod
    logc = np.atleast_1d(log_multinomial(degree, J))
    s = P.sum(axis=1)
    r = np.maximum(1.0 - s, 0.0)
    lx = np.where(P > 0.0, np.log(np.where(P > 0.0, P, 1.0)), 0.0)
    lr = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)), 0.0)
    logw = lx @ J.T + np.outer(lr, rem) + logc[None, :]
    w = np.exp(logw)
    # masking is only needed for boundary points, which most batches lack
    if np.any(P <= 0.0):
        dead = ((P <= 0.0).astype(np.float64) @ (J > 0).T.astype(np.float64)) > 0.0
        w[dead] = 0.0
    if np.any(r <= 0.0):
        w[np.outer(r <= 0.0, rem > 0)] = 0.0
    return w


def _basis_weights(degree: int, Pb: np.ndarray) -> np.ndarray:
    """Basis weights of one block at its coordinates Pb; a 1-wide block
    takes the binomial route, whose log1p keeps the cube's accuracy near 1."""
    if Pb.shape[1] == 1:
        return _axis_weights(degree, Pb[:, 0])
    return _simplex_weights(degree, _lattice(degree, Pb.shape[1]), Pb)


def _contract(coef: np.ndarray, P: np.ndarray, widths, weigh) -> np.ndarray:
    """Values at points P of coefficients laid out as one tensor axis per block.

    weigh(b, Pb) returns block b's (points, L_b) weights at the block's
    coordinates Pb. Points go in chunks, with the weights computed per
    chunk, so that no intermediate array exceeds _CHUNK_FLOATS.
    """
    sizes = coef.shape
    cols = _slices(widths)
    m = P.shape[0]
    step = max(1, _CHUNK_FLOATS // max(coef.size // sizes[0], *sizes))
    out = np.empty(m)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        t = weigh(0, P[lo:hi, cols[0]]) @ coef.reshape(sizes[0], -1)
        for b in range(1, len(sizes)):
            t = t.reshape(hi - lo, sizes[b], -1)
            t = np.einsum("pj,pjr->pr", weigh(b, P[lo:hi, cols[b]]), t)
        out[lo:hi] = t.reshape(-1)
    return out


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model: BernsteinModel, x):
    """Value of the model's Bernstein polynomial at x, a (d,) point or (m, d) batch."""
    n, d = model.degree, model.dim
    widths = _widths(model.kind, d)
    P, single = _prepare_points(x, model.kind, d)
    coef = model.samples.reshape(_sizes(widths, (n,) * len(widths)))
    out = _contract(coef, P, widths, lambda b, Pb: _basis_weights(n, Pb))
    return float(out[0]) if single else out


def eval_cube(model: BernsteinModel, x):
    """Tensor-product Bernstein value at x in the unit cube."""
    if model.kind != CUBE:
        raise ValueError("model kind is not cube")
    return evaluate(model, x)


def eval_simplex(model: BernsteinModel, x):
    """Multinomial Bernstein value at x in the unit simplex."""
    if model.kind != SIMPLEX:
        raise ValueError("model kind is not simplex")
    return evaluate(model, x)


def eval_mixed(model: BernsteinModel, x):
    """Value of the simplex-times-cube form at x in the mixed domain."""
    if model.kind in (CUBE, SIMPLEX):
        raise ValueError("model kind is not mixed")
    return evaluate(model, x)


# ---------------------------------------------------------------------------
# closed-form derivatives


def _falling(n: int, k: int) -> float:
    out = 1.0
    for m in range(k):
        out *= n - m
    return out


def _block_diff(T: np.ndarray, axis: int, n: int, order) -> np.ndarray:
    """Order-k_b forward differences of the block whose lattice lies along `axis`.

    They replace the block's degree-n lattice by its degree n - |k_b|
    lattice. A wider block scatters its axis into a dense (n+1)^w box: no
    stencil leaves the lattice, because |j| + |k_b| <= n.
    """
    if sum(order) == 0:
        return T
    if len(order) == 1:
        return np.diff(T, n=order[0], axis=axis)
    w = len(order)
    rest = np.moveaxis(T, axis, 0)
    box = np.full((n + 1,) * w + rest.shape[1:], np.nan)
    box[tuple(_lattice(n, w).T)] = rest
    for i, k in enumerate(order):
        box = np.diff(box, n=k, axis=i)
    delta = box[tuple(_lattice(n - sum(order), w).T)]
    if not np.all(np.isfinite(delta)):
        raise RuntimeError("difference stencil left the sample lattice")
    return np.moveaxis(delta, 0, axis)


def _differences(f, widths, order, n: int):
    """Per-block differences of the samples of f, and prod_b n(n-1)...(n-|k_b|+1)."""
    T = _sample_tensor(f, widths, n)
    prefactor = 1.0
    for axis, cols in enumerate(_slices(widths)):
        T = _block_diff(T, axis, n, order[cols])
        prefactor *= _falling(n, sum(order[cols]))
    return T, prefactor


def derivative(kind: Kind, f, k, n: int, x):
    """Mixed partial of order k of the kind's polynomial of f, evaluated at x.

    Block b's degree drops to n - |k_b|: the sum runs over the reduced
    lattice, of the step-1/n mixed difference of f at j/n against the basis
    of the reduced degrees, scaled by n(n-1)...(n-|k_b|+1) per block. Every
    difference stencil stays inside the domain because |j_b| + |k_b| <= n
    in each block. Orders with |k_b| > n in some block give 0.
    """
    order = as_index(k)
    n = _degree(n)
    d = len(order)
    widths = _widths(kind, d)
    P, single = _prepare_points(x, kind, d)
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        out = np.zeros(P.shape[0])
    else:
        coef, prefactor = _differences(f, widths, order, n)
        out = prefactor * _contract(
            coef, P, widths, lambda b, Pb: _basis_weights(degrees[b], Pb)
        )
    return float(out[0]) if single else out


def deriv_cube(f, k, n: int, x):
    """Mixed partial of the cube-form polynomial of f, evaluated at x."""
    return derivative(CUBE, f, k, n, x)


def deriv_simplex(f, k, n: int, x):
    """Mixed partial of the simplex-form polynomial of f, evaluated at x."""
    return derivative(SIMPLEX, f, k, n, x)


def deriv_mixed(f, k, n: int, x, d1: int):
    """Mixed partial of the simplex-times-cube polynomial (experimental).

    The polynomial identity is exact; uniform convergence of these
    derivatives carries no guarantee here and is only explored by the
    verification harness.
    """
    return derivative(mixed(d1), f, k, n, x)


# ---------------------------------------------------------------------------
# differentiated-basis oracle


@functools.lru_cache(maxsize=32)
def _exact_multinomial_simplex(n: int, d: int) -> np.ndarray:
    # integer-exact coefficients keep the oracle's terms correct to one
    # rounding each; the log-space route would cap agreement near 1e-14
    J = _lattice(n, d)
    out = np.empty(J.shape[0])
    for i, row in enumerate(J):
        rem = n
        c = 1
        for v in row:
            c *= math.comb(rem, int(v))
            rem -= int(v)
        out[i] = float(c)
    out.setflags(write=False)
    return out


def _safe_pow(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """base[:, None] ** exps with negative exponents mapped to 0.

    Negative exponents only occur where the accompanying coefficient is an
    exact zero, so zeroing them keeps products finite without changing sums.
    """
    e = np.clip(exps, 0, None).astype(np.float64)
    out = base[:, None] ** e[None, :]
    out[:, exps < 0] = 0.0
    return out


def _simplex_deriv_weights(n: int, order, P: np.ndarray) -> np.ndarray:
    """Differentiated degree-n multinomial basis of one block at points P.

    Terms are tracked as (per-axis power drops, barycentric-factor drop)
    groups with per-lattice coefficient vectors; each product-rule pass
    splits a group into a power-rule image and a chain-rule image. For a
    1-wide block this is the product-rule expansion of the binomial basis
    in x and 1 - x.
    """
    d = P.shape[1]
    J = _lattice(n, d)
    mod = J.sum(axis=1)
    groups = {((0,) * d, 0): _exact_multinomial_simplex(n, d).copy()}
    for ax, k in enumerate(order):
        for _ in range(k):
            nxt = {}
            for (drops, t), c in groups.items():
                bumped = list(drops)
                bumped[ax] += 1
                power = (tuple(bumped), t)
                nxt[power] = nxt.get(power, 0.0) + c * (J[:, ax] - drops[ax])
                nxt[(drops, t + 1)] = nxt.get((drops, t + 1), 0.0) - c * (n - mod - t)
            groups = nxt
    s = P.sum(axis=1)
    r = np.maximum(1.0 - s, 0.0)
    out = np.zeros((P.shape[0], J.shape[0]))
    for (drops, t), c in groups.items():
        term = _safe_pow(r, n - mod - t)
        for ax in range(d):
            term *= _safe_pow(P[:, ax], J[:, ax] - drops[ax])
        out += c * term
    return out


def oracle_deriv(f, kind: Kind, k, n: int, x):
    """Derivative of the same polynomial via differentiated basis functions.

    Independent of the difference-based path: it consumes the original
    samples f(j/n) on the full lattice and analytic derivatives of each
    block's basis. Intended as a cross-check, not as the production
    evaluator.
    """
    order = as_index(k)
    n = _degree(n)
    d = len(order)
    widths = _widths(kind, d)
    P, single = _prepare_points(x, kind, d)
    if _reduced_degrees(widths, order, n) is None:
        out = np.zeros(P.shape[0])
    else:
        orders = [order[cols] for cols in _slices(widths)]
        out = _contract(
            _sample_tensor(f, widths, n),
            P,
            widths,
            lambda b, Pb: _simplex_deriv_weights(n, orders[b], Pb),
        )
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# separable grid paths (tensor-product grids on the cube)


def _grid_contract(coef: np.ndarray, mats) -> np.ndarray:
    """Contract axis i of coef with the rows of mats[i], for any dimension."""
    d = coef.ndim
    operands = [coef, list(range(d))]
    for i, W in enumerate(mats):
        operands += [W, [d + i, i]]
    return np.einsum(*operands, list(range(d, 2 * d)), optimize=True)


def eval_cube_grid(model: BernsteinModel, axes) -> np.ndarray:
    """Evaluate a cube model over a tensor-product grid, one array per axis.

    Returns the value tensor indexed like meshgrid(*axes, indexing="ij").
    Far cheaper than pointwise evaluation on full grids.
    """
    if model.kind != CUBE:
        raise ValueError("model kind is not cube")
    n, d = model.degree, model.dim
    cols = _grid_axes(axes, d)
    coef = model.samples.reshape((n + 1,) * d)
    return _grid_contract(coef, [_axis_weights(n, c) for c in cols])


def deriv_cube_grid(f, k, n: int, axes) -> np.ndarray:
    """Closed-form cube derivative over a tensor-product grid."""
    order = as_index(k)
    n = _degree(n)
    d = len(order)
    widths = _widths(CUBE, d)
    cols = _grid_axes(axes, d)
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return np.zeros(tuple(c.size for c in cols))
    coef, prefactor = _differences(f, widths, order, n)
    mats = [_axis_weights(deg, c) for deg, c in zip(degrees, cols)]
    return prefactor * _grid_contract(coef, mats)


def _grid_axes(axes, d):
    cols = [np.asarray(a, dtype=np.float64) for a in axes]
    if len(cols) != d:
        raise ValueError("one coordinate array per axis is required")
    out = []
    for c in cols:
        c2, _ = _prepare_points(c[:, None], CUBE, 1)
        out.append(c2[:, 0])
    return out


# ---------------------------------------------------------------------------
# serialization


def dump_model(model: BernsteinModel) -> str:
    """Text form: header "kind n d [d1 d2]", then one sample per line."""
    head = f"{model.kind.name} {model.degree} {model.dim}"
    if model.kind.name == "mixed":
        head += f" {model.kind.d1} {model.dim - model.kind.d1}"
    lines = [head]
    lines.extend(format(v, ".17g") for v in model.samples)
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> BernsteinModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty model text")
    head = lines[0].split()
    if head[0] in ("cube", "simplex"):
        if len(head) != 3:
            raise ValueError("header must be 'kind n d'")
        kind = CUBE if head[0] == "cube" else SIMPLEX
        n, d = int(head[1]), int(head[2])
    elif head[0] == "mixed":
        if len(head) != 5:
            raise ValueError("mixed header must be 'mixed n d d1 d2'")
        n, d, d1, d2 = (int(v) for v in head[1:])
        if d1 + d2 != d:
            raise ValueError("mixed header blocks do not sum to the dimension")
        kind = mixed(d1)
    else:
        raise ValueError(f"unknown kind {head[0]!r} in model header")
    samples = np.array([float(v) for v in lines[1:]])
    return BernsteinModel(kind=kind, degree=n, dim=d, samples=samples)


def save_model(model: BernsteinModel, path):
    with open(path, "w", encoding="utf8") as fh:
        fh.write(dump_model(model))


def load_model(path) -> BernsteinModel:
    with open(path, "r", encoding="utf8") as fh:
        return parse_model(fh.read())
