"""Exhaustive fiber counting over prime fields, vectorized with numpy.

The source projective space is enumerated once (canonical representatives:
first nonzero coordinate = 1), every coordinate polynomial is evaluated on
the whole point cloud, images are normalized the same way, and a sort-based
census gives every fiber size at once.  Degree conclusions are never drawn
from these counts -- they corroborate the exact P^1 computations and the
generic-fiber claims at desk scale.

Each normalized image row of m coordinates is keyed by one int64 in mixed
radix p, sum(v_i * p^(m-1-i)), whenever p^m < 2^63 (every P^1 census, and
the six-coordinate P^3(F_101) census); the keys sort in lexicographic row
order, so one int64 sort counts every fiber.  Wider rows fall back to a
structured view of the row, compared field by field.

Guards, each raising FiberError before anything is allocated:
the source P^k(F_p) may have at most MAX_POINTS points; a product of two
residues must fit in int64, i.e. (p-1)^2 < 2^63; and the modulus of a
census must be prime (normalization uses Fermat inverses).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .poly import Poly
from .scalars import GF, QQ, is_prime, rational_to_fp

# Largest source P^k(F_p) a census enumerates: P^3(F_p) up to p = 251.
MAX_POINTS = 2**24


class FiberError(ValueError):
    pass


def _point_count(k: int, p: int) -> int:
    """|P^k(F_p)| = (p^(k+1) - 1)/(p - 1), checked against MAX_POINTS."""
    if k < 0 or k > 3:
        raise FiberError("source dimension out of the supported range 0..3")
    if p < 2:
        raise FiberError(f"modulus must be a prime, got {p}")
    n = (p ** (k + 1) - 1) // (p - 1)
    if n > MAX_POINTS:
        raise FiberError(f"P^{k}(F_{p}) has {n} points, more than "
                         f"MAX_POINTS = {MAX_POINTS}")
    return n


def _check_products(p: int) -> None:
    """Residues are multiplied in int64: (p-1)^2 must not wrap."""
    if (p - 1) ** 2 >= 2**63:
        raise FiberError(f"modulus {p} is too large: products of residues "
                         "overflow int64 once (p-1)^2 >= 2^63")


def _int_terms(poly: Poly, p: int):
    """Terms as (exponent tuple, int coefficient mod p)."""
    out = []
    for e, c in poly.terms.items():
        if poly.ring == QQ:
            v = rational_to_fp(c, p).val
        elif poly.ring == GF(p):
            v = c.val
        else:
            raise FiberError(f"polynomial ring {poly.ring} does not match "
                             f"prime {p}")
        if v:
            out.append((e, v))
    return out


def projective_points(k: int, p: int) -> np.ndarray:
    """All points of P^k(F_p), one canonical representative per row.

    Stratified by position of the first nonzero coordinate; the count is
    (p^(k+1) - 1) / (p - 1), at most MAX_POINTS.
    """
    _point_count(k, p)
    blocks = []
    for lead in range(k + 1):
        free = k - lead
        n = p**free
        block = np.zeros((n, k + 1), dtype=np.int64)
        block[:, lead] = 1
        if free:
            grid = np.indices((p,) * free).reshape(free, n)
            block[:, lead + 1:] = grid.T
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def _evaluate(polys, pts: np.ndarray, p: int) -> np.ndarray:
    """Evaluate each polynomial mod p on every row of pts."""
    _check_products(p)
    nvars = pts.shape[1]
    # power tables, built lazily up to the degrees that actually occur
    tables = [[np.ones(pts.shape[0], dtype=np.int64), pts[:, i] % p]
              for i in range(nvars)]

    def power(i, e):
        while len(tables[i]) <= e:
            tables[i].append(tables[i][-1] * tables[i][1] % p)
        return tables[i][e]

    out = np.zeros((pts.shape[0], len(polys)), dtype=np.int64)
    for j, poly in enumerate(polys):
        if len(poly.vars) != nvars:
            raise FiberError("variable count does not match the source space")
        acc = np.zeros(pts.shape[0], dtype=np.int64)
        for e, c in _int_terms(poly, p):
            term = np.full(pts.shape[0], c, dtype=np.int64)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k) % p
            acc = (acc + term) % p
        out[:, j] = acc
    return out


def _fermat_inverse(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise, by square-and-multiply: the inverse of
    every nonzero residue of x modulo the prime p."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _normalize_rows(vals: np.ndarray, p: int):
    """Scale rows so the first nonzero entry is 1; returns (vals, zero mask)."""
    nonzero = vals != 0
    any_nonzero = nonzero.any(axis=1)
    lead = vals[np.arange(vals.shape[0]), nonzero.argmax(axis=1)]
    # invert through a table of all residues when there are at least as
    # many rows as residues, so no call does work of size p for few rows
    if p <= vals.shape[0]:
        inv = _fermat_inverse(np.arange(p, dtype=np.int64), p)[lead]
    else:
        inv = _fermat_inverse(lead, p)
    scale = np.where(any_nonzero, inv, 0)
    return vals * scale[:, None] % p, ~any_nonzero


def _void_view(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    return arr.view([("", arr.dtype)] * arr.shape[1]).ravel()


def _row_keys(rows: np.ndarray, p: int) -> np.ndarray:
    """One sort key per row of residues mod p, in lexicographic row order.

    The int64 sum(v_i * p^(m-1-i)) when p^m < 2^63; otherwise the row as a
    structured (void) scalar, compared field by field.
    """
    m = rows.shape[1]
    if p**m >= 2**63:
        return _void_view(rows)
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(m):
        keys *= p
        keys += rows[:, j]
    return keys


class FiberCensus:
    """Fiber sizes of a polynomial map P^k -> P^m over F_p, all at once."""

    def __init__(self, polys, p: int):
        polys = list(polys)
        if not polys:
            raise FiberError("a map needs at least one coordinate")
        k = len(polys[0].vars) - 1
        _point_count(k, p)
        _check_products(p)
        if not is_prime(p):
            raise FiberError(f"modulus {p} is not prime")
        self.p = p
        self.polys = polys
        self.source_dim = k
        pts = projective_points(k, p)
        vals = _evaluate(polys, pts, p)
        vals, indeterminate = _normalize_rows(vals, p)
        # the benchmark's per-layer byte counter (perfbench/shim.py) reads
        # source, images and indeterminate_mask; nothing else does
        self.source = pts
        self.images = vals
        self.indeterminate_mask = indeterminate
        self.indeterminate = int(indeterminate.sum())
        keys = _row_keys(vals, p)[~indeterminate]
        self._uniq, self._counts = np.unique(keys, return_counts=True)
        self.total = pts.shape[0]

    @property
    def max_fiber(self) -> int:
        return int(self._counts.max()) if self._counts.size else 0

    @property
    def image_size(self) -> int:
        return int(self._uniq.size)

    def conservation_holds(self) -> bool:
        return int(self._counts.sum()) + self.indeterminate == self.total

    def normalize_target(self, target):
        if len(target) != len(self.polys):
            raise FiberError(f"target has {len(target)} coordinates, the map "
                             f"has {len(self.polys)}")
        row = np.array([[int(c) % self.p for c in target]], dtype=np.int64)
        row, zero = _normalize_rows(row, self.p)
        if zero[0]:
            raise FiberError("target must be a projective point, not zero")
        return tuple(int(c) for c in row[0])

    def fiber_size(self, target) -> int:
        row = np.array([self.normalize_target(target)], dtype=np.int64)
        key = _row_keys(row, self.p)[0]
        i = np.searchsorted(self._uniq, key)
        if i < self._uniq.size and self._uniq[i] == key:
            return int(self._counts[i])
        return 0

    def image_of(self, source_point):
        """Map value at one source point; None if indeterminate there."""
        row = np.array([[int(c) % self.p for c in source_point]],
                       dtype=np.int64)
        vals = _evaluate(self.polys, row, self.p)
        vals, zero = _normalize_rows(vals, self.p)
        if zero[0]:
            return None
        return tuple(int(c) for c in vals[0])


def _map_polys(m):
    """Coordinate polynomials of a map given in any supported shape."""
    if isinstance(m, (list, tuple)):
        return list(m)
    num = getattr(m, "num", None)
    den = getattr(m, "den", None)
    if num is not None and den is not None:
        return [num, den]
    raise FiberError(f"cannot read {type(m).__name__} as a coordinate map")


def fiber_count(m, target, p: int) -> int:
    """Points of P^k(F_p) outside the vanishing locus mapping to target."""
    census = FiberCensus(_map_polys(m), p)
    return census.fiber_size(target)


def sample_report(m, p: int, samples: int, seed: int) -> dict:
    """Census plus fiber sizes at the images of seeded random source points.

    Returns {"lines": [...], "max_fiber": n, "indeterminate": n,
    "fraction_ones": the exact Fraction of samples with fiber exactly 1}.
    Sampled source points landing on the indeterminacy locus are redrawn.
    """
    if samples < 1:
        raise FiberError("need at least one sample")
    census = FiberCensus(_map_polys(m), p)
    rng = random.Random(seed)
    k = census.source_dim
    lines = []
    ones = 0
    for _ in range(samples):
        while True:
            pt = [rng.randrange(p) for _ in range(k + 1)]
            if not any(pt):
                continue
            img = census.image_of(pt)
            if img is not None:
                break
        n = census.fiber_size(img)
        ones += 1 if n == 1 else 0
        lines.append("target=[%s] fiber=%d" % (",".join(map(str, img)), n))
    return {
        "lines": lines,
        "max_fiber": census.max_fiber,
        "indeterminate": census.indeterminate,
        "fraction_ones": Fraction(ones, samples),
        "census": census,
    }
