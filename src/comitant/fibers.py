"""Exhaustive fiber counting over prime fields, vectorized with numpy.

The source projective space is enumerated once (canonical representatives:
first nonzero coordinate = 1), every coordinate polynomial is evaluated on
the whole point cloud, images are normalized the same way, and a sort-based
census gives every fiber size at once.  Degree conclusions are never drawn
from these counts -- they corroborate the exact P^1 computations and the
generic-fiber claims at desk scale.

The polynomials are evaluated on the stratified grid of the points, not
row by row: the points whose first nonzero coordinate sits at position
`lead` are the grid (p,)*free of their free = k - lead trailing
coordinates.  There a term with a positive exponent before `lead` is zero,
and every other term is an outer product of 1-D length-p power vectors
t^e mod p, broadcast over the grid.  A single point (`image_of`) is
evaluated with Python ints, on the same residue terms, converted once.
Lookups reduce each coordinate exactly (ints mod p, Fractions by their
inverse denominator, Fp over p as is) and refuse anything else.

Each normalized image row of m coordinates is keyed by one int64 in mixed
radix p, sum(v_i * p^(m-1-i)), whenever p^m < 2^63 (every P^1 census, and
the six-coordinate P^3(F_101) census); the keys sort in lexicographic row
order, so one int64 sort counts every fiber.  Wider rows fall back to a
structured view of the row, compared field by field.

Residues are held in the narrowest safe integer width, worked out from p
and the map alone (`_residue_dtype`): int32 when a product of two residues
and each coordinate's sum of its T terms fit, (p-1)^2 < 2^31 and
T*(p-1) < 2^31 (so p <= 46337, with up to 46,345 terms a coordinate at
that p), int64 otherwise.  Keys stay int64 either way.  `_normalize_rows`
scales the evaluated rows in place, and the census builds its `source`
array only after the sort, once the keys are gone, so the two never
coexist.

Guards, each raising FiberError before anything is allocated, checked
together by `check_census`: the source P^k(F_p) may have at most
MAX_POINTS points; a product of two residues must fit in int64, i.e.
(p-1)^2 < 2^63; and the modulus of a census must be prime (normalization
uses Fermat inverses).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .poly import Poly
from .scalars import GF, QQ, Fp, is_prime, rational_to_fp

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


def _residue(c, p: int) -> int:
    """One lookup coordinate mod p: an int, a Fraction whose denominator p
    does not divide, or an Fp over p; anything else raises FiberError."""
    if isinstance(c, Fp):
        if c.p == p:
            return c.val
    elif isinstance(c, Fraction):
        if c.denominator % p:
            return rational_to_fp(c, p).val
    elif isinstance(c, (int, np.integer)):
        return int(c) % p
    raise FiberError(f"cannot reduce {c!r} mod {p}")


def _scaled_row(vals, p: int):
    """Residues scaled so the first nonzero one is 1; None if all are 0."""
    lead = next((v for v in vals if v), 0)
    if not lead:
        return None
    inv = pow(lead, -1, p)
    return tuple(v * inv % p for v in vals)


def projective_points(k: int, p: int) -> np.ndarray:
    """All points of P^k(F_p), one canonical representative per row.

    Stratified by position of the first nonzero coordinate; the count is
    (p^(k+1) - 1) / (p - 1), at most MAX_POINTS.  Each stratum is written
    straight into one preallocated array, through a view of its rows
    reshaped to the grid (p,)*free of its trailing coordinates.
    """
    out = np.zeros((_point_count(k, p), k + 1), dtype=np.int64)
    row = 0
    for lead in range(k + 1):
        free = k - lead
        n = p**free
        # rows of a C-contiguous array are contiguous: reshape is a view
        grid = out[row:row + n].reshape((p,) * free + (k + 1,))
        grid[..., lead] = 1
        for axis in range(free):
            grid[..., lead + 1 + axis] = np.arange(p).reshape(
                (p,) + (1,) * (free - 1 - axis))
        row += n
    return out


def _residue_dtype(p: int, nterms: int):
    """int32 when (p-1)^2 < 2^31 and nterms*(p-1) < 2^31, else int64.

    A residue product is below (p-1)^2 and a coordinate's sum of its
    nterms terms, each a residue, below nterms*(p-1).  In int64 the
    product fits by the (p-1)^2 < 2^63 guard, and the sum wraps only past
    2^63/(p-1) > 3*10^9 terms, far more than a polynomial held in memory
    has.
    """
    if (p - 1) ** 2 < 2**31 and nterms * (p - 1) < 2**31:
        return np.int32
    return np.int64


def _evaluate(terms, k: int, p: int) -> np.ndarray:
    """Each polynomial, given by its `_int_terms`, mod p at every point of
    projective_points(k, p).

    One stratum at a time: the points whose first nonzero coordinate is at
    `lead` form the grid (p,)*free, free = k - lead, of their trailing
    coordinates.  A term with a positive exponent before `lead` vanishes
    there; every other term is c times an outer product of 1-D power
    vectors t^e mod p of length p, broadcast over the grid with one % p per
    factor.  Power vectors are built on first use, so a stratum with no
    free coordinate (all of P^0) allocates nothing of size p.  Everything
    is in _residue_dtype(p, T), T the most terms of any polynomial.
    """
    total = _point_count(k, p)
    _check_products(p)
    dtype = _residue_dtype(p, max(map(len, terms), default=0))
    powers = {}

    def power(e):
        vec = powers.get(e)
        if vec is None:
            vec = np.arange(p, dtype=dtype)
            if e > 1:
                vec = power(e - 1) * vec % p
            powers[e] = vec
        return vec

    # one contiguous row per polynomial, returned transposed: a column of
    # the result is written and read in one sweep
    out = np.empty((len(terms), total), dtype=dtype)
    row = 0
    for lead in range(k + 1):
        free = k - lead
        shape = (p,) * free
        n = p**free
        for j, poly_terms in enumerate(terms):
            acc = np.zeros(shape, dtype=dtype)
            for e, c in poly_terms:
                if any(e[:lead]):
                    continue
                term = dtype(c)
                for axis, x in enumerate(e[lead + 1:]):
                    if x:
                        vec = power(x).reshape(
                            (1,) * axis + (p,) + (1,) * (free - 1 - axis))
                        term = term * vec % p
                acc += term
            acc %= p
            out[j, row:row + n] = acc.reshape(n)
        row += n
    return out.T


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
    """Scale rows so the first nonzero entry is 1, in place, in the dtype
    of vals; returns (vals, zero mask).  An all-zero row stays zero."""
    # the first nonzero entry of each row, found one column at a time
    lead = vals[:, -1]
    for j in range(vals.shape[1] - 2, -1, -1):
        col = vals[:, j]
        lead = np.where(col != 0, col, lead)
    zero = lead == 0
    # invert through a table of all residues when there are at least as
    # many rows as residues, so no call does work of size p for few rows
    if p <= vals.shape[0]:
        inv = _fermat_inverse(np.arange(p, dtype=vals.dtype), p)[lead]
    else:
        inv = _fermat_inverse(lead, p)
    vals *= inv[:, None]
    vals %= p
    return vals, zero


def _void_view(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    return arr.view([("", arr.dtype)] * arr.shape[1]).ravel()


def _row_keys(rows: np.ndarray, p: int) -> np.ndarray:
    """One sort key per row of residues mod p, in lexicographic row order.

    The int64 sum(v_i * p^(m-1-i)) when p^m < 2^63; otherwise the row as a
    structured (void) scalar of int64 fields, compared field by field, so
    the key does not depend on the residue width.
    """
    m = rows.shape[1]
    if p**m >= 2**63:
        return _void_view(rows)
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(m):
        keys *= p
        keys += rows[:, j]
    return keys


def check_census(k: int, p: int) -> None:
    """Raise FiberError unless a census of P^k(F_p) can run: at most
    MAX_POINTS source points, residue products within int64, and a prime
    modulus.  The size guards come first, so is_prime never sees a p past
    its range."""
    _point_count(k, p)
    _check_products(p)
    if not is_prime(p):
        raise FiberError(f"modulus {p} is not prime")


class FiberCensus:
    """Fiber sizes of a polynomial map P^k -> P^m over F_p, all at once."""

    def __init__(self, polys, p: int):
        polys = list(polys)
        if not polys:
            raise FiberError("a map needs at least one coordinate")
        k = len(polys[0].vars) - 1
        check_census(k, p)
        if any(len(poly.vars) != k + 1 for poly in polys):
            raise FiberError("variable count does not match the source space")
        self.p = p
        self.polys = polys
        self.source_dim = k
        self._terms = [_int_terms(poly, p) for poly in polys]
        vals, indeterminate = _normalize_rows(_evaluate(self._terms, k, p), p)
        self.total = vals.shape[0]
        self.indeterminate = int(indeterminate.sum())
        keys = _row_keys(vals, p)[~indeterminate]
        self._uniq, self._counts = np.unique(keys, return_counts=True)
        del keys
        # the benchmark's per-layer byte counter (perfbench/shim.py) reads
        # source, images and indeterminate_mask; nothing else does, and
        # the grid evaluation needs no source array, so it is built only
        # now that the keys and the sort's temporaries are gone
        self.images = vals
        self.indeterminate_mask = indeterminate
        self.source = projective_points(k, p)

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
        row = _scaled_row([_residue(c, self.p) for c in target], self.p)
        if row is None:
            raise FiberError("target must be a projective point, not zero")
        return row

    def fiber_size(self, target) -> int:
        row = np.array([self.normalize_target(target)], dtype=np.int64)
        key = _row_keys(row, self.p)[0]
        i = np.searchsorted(self._uniq, key)
        if i < self._uniq.size and self._uniq[i] == key:
            return int(self._counts[i])
        return 0

    def image_of(self, source_point):
        """Map value at one source point; None if indeterminate there."""
        p = self.p
        if len(source_point) != self.source_dim + 1:
            raise FiberError(f"source point has {len(source_point)} "
                             f"coordinates, P^{self.source_dim} needs "
                             f"{self.source_dim + 1}")
        pt = [_residue(c, p) for c in source_point]
        vals = []
        for terms in self._terms:
            acc = 0
            for e, c in terms:
                for x, k in zip(pt, e):
                    if k:
                        c = c * pow(x, k, p) % p
                acc += c
            vals.append(acc % p)
        return _scaled_row(vals, p)


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
    if census.indeterminate == census.total:
        raise FiberError(f"the map is undefined at every point of "
                         f"P^{census.source_dim}(F_{p}), so no sample has "
                         "an image")
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
