"""Torus orbits over F_p, in discrete-log coordinates, for the fiber census.

`comitant.fibers` reads a torus T off a map P^k -> P^m: the image of a
lattice L of diagonal one-parameter subgroups for which every coordinate
is homogeneous, coordinate j of weight chi_j(l) = l·e for any of its terms
e.  `Torus` walks the orbits of T on P^k(F_p) and names the orbit of T on
P^m of each image, so that a census counts fibers over orbits instead of
points.  The census imports this module on the first map that has a torus
larger than the scalars.

Everything happens in discrete-log coordinates v = log_g x mod n = p - 1:
g is a primitive root, found by factoring p - 1, and logs are taken by
baby-step giant-step with ceil(sqrt(p-1)) steps each way, nothing of size
p (`_Logs`).  On the points of support S, T adds the span of L restricted
to S to v, and the Howell form of that subgroup of (Z/n)^S (`_howell`;
Storjohann 2000) gives the number of orbits, the size of each and one
representative per orbit.  The target orbit T·y of an image y is a coset
of the span of [chi restricted to supp(y) | 1] (the 1 for the projective
scalars): reducing the logs of y by its Howell form gives a canonical
normalized row of the orbit.  A Howell form is an echelon form over Z/n,
a handful of rows as long as the support, where a Smith form's transform
would be a square of that length.
"""

from __future__ import annotations

import math

import numpy as np

from .fibers import BLOCK_POINTS


def _primitive_root(p: int) -> int:
    """The least generator of F_p^*, by the prime factors of p - 1 (1 for
    p = 2)."""
    n, rest, primes, q = p - 1, p - 1, [], 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, p)
                if all(pow(g, n // q, p) != 1 for q in primes))


class _Logs:
    """Exponentials and discrete logarithms to a primitive root g of F_p,
    elementwise on int64 arrays, by baby-step giant-step: m = ceil(sqrt(
    p-1)) baby steps g^j and giant steps g^(m i), j, i < m, and nothing of
    size p.  g^u = g^(u mod m) g^(m (u div m)); log y = m i - j mod p-1 for
    any y g^j = g^(m i), and the m^2 >= p-1 values m i - j cover every
    residue."""

    def __init__(self, p: int):
        self.p, self.n = p, p - 1
        m = self.m = math.isqrt(p - 2) + 1
        g = _primitive_root(p)
        self.baby = np.array([pow(g, j, p) for j in range(m)], dtype=np.int64)
        self.giant = np.array([pow(g, m * i, p) for i in range(m)],
                              dtype=np.int64)
        self._order = np.argsort(self.giant, kind="stable")
        # p, above every residue, ends the table: a search never runs off
        self._sorted = np.append(self.giant[self._order], p)

    def exp(self, u: np.ndarray) -> np.ndarray:
        """g^u for exponents 0 <= u < p - 1."""
        q, r = np.divmod(u, self.m)
        return self.baby[r] * self.giant[q] % self.p

    def log(self, y: np.ndarray) -> np.ndarray:
        """log_g y in [0, p-1) for nonzero residues y, in chunks of at most
        BLOCK_POINTS candidates y g^j."""
        flat = y.reshape(-1)
        out = np.empty(flat.size, dtype=np.int64)
        m = self.m
        step = max(1, BLOCK_POINTS // m)
        for lo in range(0, flat.size, step):
            cand = flat[lo:lo + step, None] * self.baby % self.p
            pos = np.searchsorted(self._sorted, cand)
            j = (self._sorted[pos] == cand).argmax(axis=1)
            i = self._order[pos[np.arange(j.size), j]]
            out[lo:lo + step] = (m * i - j) % self.n
        return out.reshape(y.shape)


def _howell(rows, n: int):
    """An echelon generating set of the subgroup H of (Z/n)^c spanned by
    integer rows, with the Howell property (Storjohann, Algorithms for
    Matrix Canonical Forms, 2000, §4): [(column, g, row)], each row zero
    before its column and g | n at it, such that for every column j the
    rows whose column is at least j span the elements of H that vanish
    before j.

    So reducing v at each column in turn, v -= (v_j div g)·row, maps every
    coset v + H to one vector, with v_j < g at each column, and these
    reduced vectors (any residue off the columns) are one per coset: there
    are prod(g)·n^(c - len) cosets of prod(n / g) elements.  Column by
    column, the rows live there are merged into one by unimodular 2 x 2
    steps of Euclid's algorithm, scaled so that its entry is
    g = gcd(entry, n), and (n / g) times it, zero there, joins the rest.
    """
    todo = [[x % n for x in row] for row in rows]
    out = []
    for col in range(len(todo[0]) if todo else 0):
        todo = [row for row in todo if any(row)]
        live = [row for row in todo if row[col]]
        if not live:
            continue
        todo = [row for row in todo if not row[col]]
        piv = live[0]
        for row in live[1:]:
            a, b = piv[col], row[col]
            g, s, t = _xgcd(a, b)
            todo.append([(b // g * x - a // g * y) % n
                         for x, y in zip(piv, row)])
            piv = [(s * x + t * y) % n for x, y in zip(piv, row)]
        g = math.gcd(piv[col], n)
        todo.append([n // g * x % n for x in piv])
        w = pow(piv[col] // g, -1, n // g)
        out.append((col, g, [w * x % n for x in piv]))
    return out


def _xgcd(a: int, b: int):
    """(g, s, t) with s·a + t·b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


class Torus:
    """The torus T of a map whose coordinates are homogeneous for the
    diagonal one-parameter subgroups in L, in discrete-log coordinates
    v = log x mod n = p - 1 (see the module docstring).

    T acts on the points of P^k of support S by adding the span of L
    restricted to S to their logs, and on the image coordinates by adding
    the span of the characters, chi_j(l) = l·e for any term e of
    coordinate j, plus the scalars."""

    def __init__(self, basis, terms, p: int):
        self.p, self.n = p, p - 1
        self.basis = basis
        self.terms = terms
        self.chars = [[sum(b * e for b, e in zip(row, poly_terms[0][0]))
                       if poly_terms else 0 for poly_terms in terms]
                      for row in basis]
        self.logs = _Logs(p)
        self._frames = {}

    def orbit_images(self, k: int):
        """The image rows of one representative of each orbit of P^k, a
        block of at most BLOCK_POINTS orbits at a time, with the orbits'
        common size: (values, |O|).

        On the support stratum S the orbits are the cosets of the span of
        L restricted to S, and their representatives the logs reduced by
        its `_howell` rows: below g at each of their columns, anything
        mod n elsewhere."""
        n = self.n
        for mask in range(1, 2 ** (k + 1)):
            support = [i for i in range(k + 1) if mask >> i & 1]
            shape = [n] * len(support)
            size = 1
            for col, g, _ in _howell([[row[i] for i in support]
                                      for row in self.basis], n):
                shape[col] = g
                size *= n // g
            count = math.prod(shape)
            for lo in range(0, count, BLOCK_POINTS):
                v = np.stack(np.unravel_index(
                    np.arange(lo, min(lo + BLOCK_POINTS, count)), shape),
                    axis=1)
                yield self.evaluate(support, v), size // n

    def evaluate(self, support, v: np.ndarray) -> np.ndarray:
        """The coordinates mod p at the points with logs v on `support`
        (zero off it), one row per point: a term with a positive exponent
        off the support vanishes there, every other is c g^(e·v).  All
        terms at once, in chunks of at most BLOCK_POINTS term values."""
        alive = [(j, [e[i] for i in support], c)
                 for j, poly_terms in enumerate(self.terms)
                 for e, c in poly_terms
                 if sum(e) == sum(e[i] for i in support)]
        vals = np.zeros((v.shape[0], len(self.terms)), dtype=np.int64)
        if not alive:
            return vals
        coords, exps, coeffs = (np.array(x, dtype=np.int64)
                                for x in zip(*alive))
        # the terms come coordinate by coordinate: one sum per run
        cols, starts = np.unique(coords, return_index=True)
        step = max(1, BLOCK_POINTS // len(alive))
        for lo in range(0, v.shape[0], step):
            terms = self.logs.exp(v[lo:lo + step] @ exps.T % self.n)
            vals[lo:lo + step, cols] = np.add.reduceat(
                terms * coeffs % self.p, starts, axis=1)
        return vals % self.p

    def _frame(self, support):
        """(`_howell` rows as (column, g, int64 row), orbit size) of the
        target orbits of support R, the cosets of the span of
        [chi on R | 1], cached by R."""
        frame = self._frames.get(support)
        if frame is None:
            rows = [[row[j] for j in support] for row in self.chars]
            howell = _howell(rows + [[1] * len(support)], self.n)
            size = math.prod(self.n // g for _, g, _ in howell) // self.n
            frame = self._frames[support] = (
                [(col, g, np.array(row, dtype=np.int64))
                 for col, g, row in howell], size)
        return frame

    def canonical_rows(self, vals: np.ndarray):
        """(rows, target orbit sizes) for rows of image values, none of
        them zero: the `canonical` row of each, support by support."""
        canon = np.empty_like(vals)
        sizes = np.empty(vals.shape[0], dtype=np.int64)
        # one bytes string per support: its zero pattern, eight a byte
        bits = np.packbits(vals != 0, axis=1)
        supports = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        # with an optional output np.unique skips its masked-array check,
        # which imports numpy.ma
        keys, group = np.unique(supports, return_inverse=True)
        for g in range(keys.size):
            rows = np.flatnonzero(group == g)
            support = tuple(np.flatnonzero(vals[rows[0]]).tolist())
            canon[rows], sizes[rows] = self.canonical(support, vals[rows])
        return canon, sizes

    def canonical(self, support, vals: np.ndarray):
        """(rows, orbit size) for rows of image values whose nonzero
        coordinates are `support`: one normalized row of the orbit T·y of
        each, the same for all of the orbit, whose logs are those of y
        reduced by the `_howell` rows of its frame and scaled to lead
        with 1.  The census keys these rows like any image row."""
        n = self.n
        howell, size = self._frame(support)
        cols = list(support)
        logs = self.logs.log(vals[:, cols])
        for col, g, row in howell:
            logs = (logs - logs[:, col, None] // g * row) % n
        canon = np.zeros(vals.shape, dtype=np.int64)
        canon[:, cols] = self.logs.exp((logs - logs[:, :1]) % n)
        return canon, size
