"""Exhaustive fiber counting over prime fields, vectorized with numpy.

A census counts every fiber of a polynomial map F: P^k -> P^m over F_p at
once, over the orbits of a torus that F is equivariant for, read off the
map itself.  Degree conclusions are never drawn from these counts -- they
corroborate the exact P^1 computations and the generic-fiber claims at
desk scale.

The torus.  Let L be the integer kernel of the exponent differences inside
each coordinate polynomial (a zero coordinate imposes nothing).  When
every term of every coordinate has one degree -- when F is a map of P^k at
all -- the scalars lie in L, and each l in L is a one-parameter subgroup
x_i -> lam^(l_i) x_i under which coordinate j scales by lam^(chi_j(l)),
chi_j(l) = l·e for any term e of it.  So F(t·x) = chi(t)·F(x), and the
fiber size is constant on the orbits of T, the image of L (x) F_p^*.
Otherwise, or when L holds the scalars alone, the torus is the scalars
and its orbits are points.  The quintic-slice map of claim 09 has the
rank-3 torus diag(a, b, e, f) with af = be: P^3(F_101) is 114 orbits,
p - 1 of full support (one per value of af/(be)) and one for each of the
14 other support strata, where it is 1,040,604 points.

The census collects independent differences and stops at k, which leave
the scalars alone, as P^0 has; fewer go to `comitant.orbits` (`Torus`),
imported by the first census that has a torus, where all lattice work
happens: L, one representative of each orbit of P^k in discrete-log
coordinates mod p - 1, its size, and for each image the canonical
normalized row of its target orbit T·y, keyed like any other row (below).  The fiber of y is the sum of |O| over the source
orbits O keyed to T·y, divided by |T·y|; a census raises FiberError
unless every such sum divides exactly and the orbit sizes add up to the
points of P^k.  Lookups (`fiber_size`) key their target the same way.

The scalar torus walks the points themselves, once (canonical
representatives: first nonzero coordinate = 1), in blocks of at most
BLOCK_POINTS points, on the stratified grid of the points, not row by
row: the points whose first nonzero coordinate sits at position `lead` are
the grid (p,)*free of their free = k - lead trailing coordinates, and a
block is a slab of that grid along its first axis.  There a term with a
positive exponent before `lead` is zero, and every other term is an outer
product of 1-D power vectors t^e mod p, broadcast over the block.
A single point (`image_of`) is evaluated with Python ints, on the same
residue terms, converted once.  Lookups reduce each coordinate exactly
(ints mod p, Fractions by their inverse denominator, Fp over p as is) and
refuse anything else.

Each normalized image row of m coordinates is keyed by one int64 in mixed
radix p, sum(v_i * p^(m-1-i)), whenever p^m < 2^63 (every P^1 census, and
the six-coordinate P^3(F_101) census); the keys sort in lexicographic row
order, so one int64 sort counts every fiber.  Wider rows fall back to the
row's big-endian int64 bytes as one void key, whose bytewise order is the
same lexicographic order.  A census builds its key dtype once, and a
lookup on a census without a torus computes an int64 key in Python.

Residues on the grid are held in the narrowest safe integer width, worked
out from p and the map alone (`_residue_dtype`): int32 when a product of
two residues and each coordinate's sum of its T terms fit, (p-1)^2 < 2^31
and T*(p-1) < 2^31 (so p <= 46337, with up to 46,345 terms a coordinate
at that p), int64 otherwise.  Keys stay int64 either way.
`_normalize_rows` scales a block's rows in place, through a table of all
p inverses once a block has at least p rows and by Fermat inverses of its
leads otherwise.

A census keeps only its distinct target keys, the fiber size at each and
the size of each target orbit (ones, as a read-only view, on the scalar
path): one key per orbit goes into the fiber stage (`_tally`), one array
of one key per determinate point on the grid, so no array of points by
coordinates is built.  The P^3(F_101) census of claim 09 peaks at
~0.2 MiB under tracemalloc.  `FiberCensus.orbits` counts the orbit
representatives a census evaluated.  `FiberCensus.source`, `.images` and
`.indeterminate_mask` are per point, in one row order, built afresh on
each access, the last two by a pass over the grid blocks (the benchmark's
byte counter and the tests read them; the census itself never does).

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
# Points in one block of a census pass, at most (a block is at least one
# value of its stratum's first free coordinate, and p^2 <= 63001 < 2^16
# for every P^3 census MAX_POINTS allows).
BLOCK_POINTS = 2**16


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
    if type(c) is int:
        return c % p
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


def _evaluate(terms, k: int, p: int):
    """Each polynomial, given by its `_int_terms`, mod p at the points of
    projective_points(k, p), one block at a time: yields arrays of shape
    (rows, len(terms)) whose rows, taken in turn, follow those points.

    The points whose first nonzero coordinate is at `lead` form the grid
    (p,)*free, free = k - lead, of their trailing coordinates.  A block is
    the slab lo <= t < hi of the grid's first axis, whole along the others:
    as many values of t as keep it within BLOCK_POINTS points, and at least
    one (P^0 is one block of one point).  A term with a positive exponent
    before `lead` vanishes on the stratum; every other term is c times an
    outer product of 1-D power vectors t^e mod p, the first cut to the
    slab, broadcast over the block with one % p per factor.  Power vectors
    are built on first use and shared by the blocks.  Everything is in
    _residue_dtype(p, T), T the most terms of any polynomial.
    """
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

    for lead in range(k + 1):
        free = k - lead
        inner = p ** max(free - 1, 0)  # points per value of the first axis
        step = max(1, BLOCK_POINTS // inner)
        for lo in range(0, p if free else 1, step):
            hi = min(lo + step, p)
            shape = (hi - lo,) + (p,) * (free - 1) if free else ()
            n = (hi - lo) * inner if free else 1
            # one contiguous row per polynomial, yielded transposed: a
            # column of the block is written and read in one sweep
            out = np.empty((len(terms), n), dtype=dtype)
            for j, poly_terms in enumerate(terms):
                acc = np.zeros(shape, dtype=dtype)
                for e, c in poly_terms:
                    if any(e[:lead]):
                        continue
                    term = dtype(c)
                    for axis, x in enumerate(e[lead + 1:]):
                        if x:
                            vec = power(x)[lo:hi] if axis == 0 else power(x)
                            term = term * vec.reshape(
                                (1,) * axis + (-1,) + (1,) * (free - 1 - axis)
                            ) % p
                    acc += term
                acc %= p
                out[j] = acc.reshape(n)
            yield out.T


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


def _normalize_rows(vals: np.ndarray, p: int, table=None):
    """Scale the rows of one block so the first nonzero entry is 1, in
    place, in the dtype of vals; returns (vals, zero mask).  An all-zero
    row stays zero.  The leads are inverted through `table`, the inverses
    of all p residues, when one is given, and by `_fermat_inverse` on the
    leads themselves otherwise."""
    # the first nonzero entry of each row, found one column at a time
    lead = vals[:, -1]
    for j in range(vals.shape[1] - 2, -1, -1):
        col = vals[:, j]
        lead = np.where(col != 0, col, lead)
    zero = lead == 0
    inv = _fermat_inverse(lead, p) if table is None else table[lead]
    vals *= inv[:, None]
    vals %= p
    return vals, zero


def _image_blocks(terms, k: int, p: int):
    """The normalized image rows of projective_points(k, p), one block of
    `_evaluate` at a time, as (vals, zero mask) pairs.  The inverse table
    of all p residues is built at the first block of at least p rows, and
    only such blocks use it, so no block does work of size p for fewer
    rows."""
    table = None
    for vals in _evaluate(terms, k, p):
        if vals.shape[0] < p:
            yield _normalize_rows(vals, p)
            continue
        if table is None:
            table = _fermat_inverse(np.arange(p, dtype=vals.dtype), p)
        yield _normalize_rows(vals, p, table)


def _key_dtype(m: int, p: int) -> np.dtype:
    """int64 when p^m < 2^63; otherwise 8m raw bytes, compared bytewise
    (a void dtype without fields: numpy would promote a structured dtype
    field by field on every sort, join and search)."""
    if p**m >= 2**63:
        return np.dtype((np.void, 8 * m))
    return np.dtype(np.int64)


def _row_keys(rows: np.ndarray, p: int, dtype: np.dtype) -> np.ndarray:
    """One sort key per row of residues mod p, in lexicographic row order,
    of dtype = _key_dtype(m, p), built once by the caller.

    The int64 sum(v_i * p^(m-1-i)) when p^m < 2^63; otherwise the row
    itself as m big-endian int64s viewed as one void scalar, whose bytewise
    order is the lexicographic order of the (nonnegative) residues, so the
    key does not depend on the residue width.
    """
    m = rows.shape[1]
    if dtype.kind == "V":
        return np.ascontiguousarray(rows, dtype=">i8").view(dtype).ravel()
    # each product and the sum stay below p^m < 2^63
    return rows @ p ** np.arange(m - 1, -1, -1, dtype=np.int64)


def _row_key(row, p: int) -> int:
    """The int64 key of _row_keys for one row of Python ints, when
    p^m < 2^63, as a Python int: no one-row array to build."""
    key = 0
    for v in row:
        key = key * p + v
    return key


def _torus(terms, k: int, p: int):
    """The torus of the map, or None when it is the scalars alone.

    L is the integer kernel of the exponent differences inside each
    coordinate (a zero coordinate imposes nothing).  It is read only when
    every term of every coordinate has one degree, so that the scalars lie
    in L and F is a map of P^k; otherwise, and on P^0, the torus is the
    scalars.  The differences then span at most k dimensions, and k
    independent ones leave the scalars alone, so the scan stops there: a
    map with many terms pays for few of them.  Fewer leave L of rank at
    least 2, which `comitant.orbits` reads off them (`Torus`)."""
    if k == 0 or len({sum(e) for poly_terms in terms
                      for e, _ in poly_terms}) != 1:
        return None
    basis = []      # independent differences, in echelon order of insertion
    for poly_terms in terms:
        for e, _ in poly_terms[1:]:
            row = [a - b for a, b in zip(e, poly_terms[0][0])]
            for col, b in basis:
                if row[col]:
                    row = [b[col] * x - row[col] * y for x, y in zip(row, b)]
            if any(row):
                basis.append((next(j for j, x in enumerate(row) if x), row))
                if len(basis) == k:
                    return None
    # the orbit machinery is loaded by the first census that needs it
    from .orbits import Torus
    return Torus([row for _, row in basis], k, terms, p)


def _tally(keys, weights=None, sizes=None):
    """The fiber stage: (distinct keys, sorted; the fiber size at each
    point of the target orbit of each key; the size of that orbit).

    Without weights every key is one point of weight 1 and every target
    orbit one point.  With them, the fiber of y is the summed weight |O|
    of the source orbits O keyed to T·y, divided by |T·y|, which must
    divide it."""
    if weights is None:
        uniq, counts = np.unique(keys, return_counts=True)
        # orbits of one point: a read-only view of ones, no array
        return uniq, counts, np.broadcast_to(np.int64(1), counts.shape)
    uniq, first, inverse = np.unique(keys, return_index=True,
                                     return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(sums, inverse.reshape(-1), weights)
    sizes = sizes[first]
    if (sums % sizes).any():
        raise FiberError("a target orbit's points do not share their fiber")
    return uniq, sums // sizes, sizes


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
    """Fiber sizes of a polynomial map P^k -> P^m over F_p, all at once.

    `total` is the number of points of P^k(F_p), `indeterminate` the
    number where every coordinate vanishes, and `orbits` the number of
    torus orbits the census evaluated one representative of (`total` when
    the torus is the scalars alone)."""

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
        self.total = _point_count(k, p)
        key_dtype = self._key_dtype = _key_dtype(len(polys), p)
        torus = self._torus = _torus(self._terms, k, p)
        if torus is None:
            # orbits are points: one key per determinate point of the grid,
            # block by block, into one array
            self.orbits = self.total
            keys = np.empty(self.total, dtype=key_dtype)
            filled = 0
            for vals, zero in _image_blocks(self._terms, k, p):
                block = _row_keys(vals, p, key_dtype)[~zero]
                keys[filled:filled + block.size] = block
                filled += block.size
            self.indeterminate = self.total - filled
            tally = _tally(keys[:filled])
        else:
            # the canonical rows of every stratum are keyed at once
            rows, weights, sizes = [], [], []
            self.orbits = self.indeterminate = 0
            for vals, weight in torus.orbit_images(k):
                zero = ~vals.any(axis=1)
                self.orbits += vals.shape[0]
                self.indeterminate += weight * int(zero.sum())
                canon, size = torus.canonical_rows(vals[~zero])
                rows.append(canon)
                sizes.append(size)
                weights.append(np.full(size.size, weight, dtype=np.int64))
            tally = _tally(_row_keys(np.concatenate(rows), p, key_dtype),
                           np.concatenate(weights), np.concatenate(sizes))
        self._uniq, self._counts, self._sizes = tally
        if not self.conservation_holds():
            raise FiberError(f"the orbits of P^{k}(F_{p}) do not add up to "
                             f"its {self.total} points")

    @property
    def source(self) -> np.ndarray:
        """The source points, enumerated on each access (33 MB for
        P^3(F_101)) and not kept."""
        return projective_points(self.source_dim, self.p)

    @property
    def images(self) -> np.ndarray:
        """The normalized image of each point of `source`, in its row
        order, with a zero row where the map is undefined: a pass over the
        grid blocks on each access, not kept."""
        return np.concatenate([vals for vals, _ in _image_blocks(
            self._terms, self.source_dim, self.p)])

    @property
    def indeterminate_mask(self) -> np.ndarray:
        """Where the map is undefined, in the row order of `source`: a pass
        over the grid blocks on each access, not kept."""
        return np.concatenate([zero for _, zero in _image_blocks(
            self._terms, self.source_dim, self.p)])

    @property
    def max_fiber(self) -> int:
        return int(self._counts.max()) if self._counts.size else 0

    @property
    def image_size(self) -> int:
        return int(self._sizes.sum())

    def conservation_holds(self) -> bool:
        determinate = int(self._counts @ self._sizes)
        return determinate + self.indeterminate == self.total

    def normalize_target(self, target):
        if len(target) != len(self.polys):
            raise FiberError(f"target has {len(target)} coordinates, the map "
                             f"has {len(self.polys)}")
        row = _scaled_row([_residue(c, self.p) for c in target], self.p)
        if row is None:
            raise FiberError("target must be a projective point, not zero")
        return row

    def fiber_size(self, target) -> int:
        row = self.normalize_target(target)
        if self._torus is None and self._key_dtype.kind != "V":
            key = _row_key(row, self.p)
        else:
            vals = np.array([row], dtype=np.int64)
            if self._torus is not None:
                support = tuple(j for j, c in enumerate(row) if c)
                vals = self._torus.canonical(support, vals)[0]
            key = _row_keys(vals, self.p, self._key_dtype)[0]
        i = self._uniq.searchsorted(key)
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


def sample_report(m, p: int, samples: int, seed: int) -> dict:
    """Census plus fiber sizes at the images of seeded random source points.

    Returns {"lines": [...], "max_fiber": n, "indeterminate": n,
    "fraction_ones": the exact Fraction of samples with fiber exactly 1,
    "singleton_share": the exact Fraction of all determinate source points
    alone in their fiber, read off the census and free of the seed,
    "orbits": the census's `FiberCensus.orbits`}.
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
        "singleton_share": Fraction(
            int(census._sizes[census._counts == 1].sum()),
            census.total - census.indeterminate),
        "orbits": census.orbits,
    }
