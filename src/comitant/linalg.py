"""Exact dense linear algebra over QQ and GF(p), plus polynomial matrices.

There is one elimination kernel, `int_nullspace_mod_p`: the residues of
an integer matrix mod a prime in one numpy array, int64 while
(p-1)^2 < 2^63 and Python ints past that, read off in the
reduced-echelon convention, so results are deterministic.
`modular_nullspace` gets a kernel over QQ without QQ elimination:
kernels mod several word-size primes, combined by CRT, lifted by
rational reconstruction and proved by the caller.  `nullspace` is the
kernel of a matrix of scalars over QQ or GF(p), through one of the two;
over QQ its proof is A v = 0, exactly.  `poly_det` is the one
determinant: division-free (Laplace expansion memoized over column
subsets), on Poly and scalar entries alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod
from operator import add, getitem, mul

import numpy as np

from .poly import Poly
from .scalars import (QQ, Fp, as_scalar, exact_div, is_prime,
                      rational_reconstruct)


class LinearSubstitution:
    """An invertible linear change of variables x -> M x."""

    def __init__(self, matrix, ring=QQ):
        self.matrix = [[as_scalar(c, ring) for c in row] for row in matrix]
        self.ring = ring
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise ValueError("substitution matrix must be square")
        self.det = poly_det(self.matrix)
        if not self.det:
            raise ValueError("substitution matrix is singular")

    @property
    def n(self):
        return len(self.matrix)

    def apply(self, p: Poly, indices=None) -> Poly:
        """Substitute variables (a subset, by position) by rows of M x.

        With indices=None all of p's variables transform; otherwise only the
        listed positions y_0..y_(n-1) do, in that order, and the matrix
        must match their count.  A repeated, negative or out-of-range
        position is a ValueError.

        The expansion is a Kronecker substitution (Harvey, J. Symb. Comput.
        44 (2009)): every product of linear forms is one product of Python
        ints.  M is scaled to integer numerators N = D M over one common
        denominator D; over GF(p), N holds residues in [0, p) and D = 1.
        p's terms are grouped by their untransformed exponents and their
        degree k in the y.  A group's image is homogeneous of degree k, so
        it is dehomogenized at y_(n-1): y^e sits at place
        sum(e_j (k+1)^j, j < n-1), one-to-one as every e_j <= k, and the
        row l_r = sum(N_rj y_j) is packed as the int l_r(2^(B place(y_j))).
        A term c y^a becomes c' prod(l_r^a_r), from the powers of the
        packed rows, with c' its numerator over the group's common
        denominator L, and the group sums to one int.

        Since |f g|_1 <= |f|_1 |g|_1, no coefficient of that sum passes
        S = sum(|c'| prod(|N_r|_1^a_r)); B is bit_length(S) + 1 for the
        largest S of degree k, so every coefficient is one signed B-bit
        digit.  Adding 2^(B-1) at every place turns those digits into plain
        B-bit ones that borrow from no neighbour, so each is read off on its
        own, less 2^(B-1).  The last exponent is k minus the others, and
        each coefficient is divided by D^k L once, through `exact_div` (an
        int when integral).  Over GF(p) every digit is a sum of products of
        residues, below 2^(B-1) and never negative, and is reduced mod p.
        """
        nv = len(p.vars)
        indices = tuple(range(nv)) if indices is None else tuple(indices)
        n = self.n
        if n != len(indices):
            raise ValueError(
                f"substitution is {n}x{n} but {len(indices)} "
                "variables were selected")
        if len(set(indices)) != n or not all(0 <= i < nv for i in indices):
            raise ValueError(f"indices {indices} are not distinct positions "
                             f"among {nv} variables")
        ring = p.ring
        mod = None if ring == QQ else ring[1]
        rows = self.matrix
        if ring != self.ring:
            rows = [[as_scalar(c, ring) if c else 0 for c in row]
                    for row in rows]
        if mod is None:
            den = lcm(*(c.denominator for row in rows for c in row))
            rows = [[c.numerator * (den // c.denominator) for c in row]
                    for row in rows]
        else:
            den = 1
            rows = [[c.val if c else 0 for c in row] for row in rows]
        norms = [sum(map(abs, row)) for row in rows]
        # (k, untransformed exponents) -> [(y exponents, coefficient)]
        groups: dict = {}
        if indices == tuple(range(nv)):
            rest = (0,) * nv
            for e, c in p.terms.items():
                groups.setdefault((sum(e), rest), []).append((e, c))
        else:
            keep = [int(i not in indices) for i in range(nv)]
            for e, c in p.terms.items():
                a = tuple(map(e.__getitem__, indices))
                groups.setdefault((sum(a), tuple(map(mul, e, keep))),
                                  []).append((a, c))
        # each group's integer numerators over its denominator L; the
        # largest bound S of the groups of degree k sets k's digit width
        bounds: dict = {}
        numerators = []
        for (k, rest), terms in groups.items():
            low = 1
            if mod is not None:
                terms = [(a, c.val) for a, c in terms]
            elif any(type(c) is not int for _, c in terms):
                low = lcm(*(c.denominator for _, c in terms))
                terms = [(a, c.numerator * (low // c.denominator))
                         for a, c in terms]
            bound = sum(abs(c) * prod(map(pow, norms, a)) for a, c in terms)
            bounds[k] = max(bounds.get(k, 0), bound)
            numerators.append((k, rest, den ** k * low, terms))
        packed = {}
        for k, bound in bounds.items():
            bits = bound.bit_length() + 1
            shifts = [bits * (k + 1) ** j for j in range(n - 1)]
            powers = []
            for row in rows:
                power = [1, sum(x << s for x, s in zip(row, shifts)) + row[-1]]
                for _ in range(k - 1):
                    power.append(power[-1] * power[1])
                powers.append(power)
            # 2^(B-1) at each of the (k+1)^(n-1) places
            ones = ((1 << bits * (k + 1) ** (n - 1)) - 1) // ((1 << bits) - 1)
            packed[k] = (bits, powers, ones << (bits - 1))
        out = {}
        for k, rest, div, terms in numerators:
            bits, powers, offset = packed[k]
            total = offset + sum(c * prod(map(getitem, powers, a))
                                 for a, c in terms)
            mask = (1 << bits) - 1
            half = 1 << (bits - 1)
            for place, e in _layout(nv, indices, k):
                d = (total >> bits * place & mask) - half
                if mod is not None:
                    c = Fp(d, mod)
                else:
                    c = d if div == 1 else exact_div(d, div)
                if c:
                    out[tuple(map(add, e, rest)) if any(rest) else e] = c
        return Poly(p.vars, out, ring)


@lru_cache(maxsize=None)
def _layout(nv: int, indices: tuple, k: int) -> tuple:
    """(place, exponents) of every monomial of degree k in the variables
    at `indices`, place = sum(e_j (k+1)^j, j < n-1) for the n indices."""
    out = []
    for place, high in enumerate(product(range(k + 1),
                                         repeat=len(indices) - 1)):
        ys = high[::-1]
        left = k - sum(ys)
        if left >= 0:
            e = [0] * nv
            for i, x in zip(indices, ys + (left,)):
                e[i] = x
            out.append((place, tuple(e)))
    return tuple(out)


# -- polynomial matrices -----------------------------------------------

def poly_det(rows: list):
    """Determinant of a square matrix of Polys or scalars (division-free).

    Laplace expansion along rows, memoized over column subsets: O(n 2^n)
    multiplies, fine for the n <= 10 sizes used here.  The minors start at
    the integer 1 and zero entries are skipped by truth value, so Poly,
    Fraction, Fp and int entries all work, mixed too.  A rational result
    is an int when it is integral.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for row in rows:
        if len(row) != n:
            raise ValueError("non-square polynomial matrix")
    # minors[cols] = det of the last len(cols) rows restricted to cols
    minors = {(): 1}
    for i in range(n - 1, -1, -1):
        depth = n - i
        new: dict = {}
        for cols, sub in minors.items():
            if len(cols) != depth - 1:
                continue
            remaining = [c for c in range(n) if c not in cols]
            for pos, c in enumerate(remaining):
                key = tuple(sorted(cols + (c,)))
                entry = rows[i][c]
                if not entry:
                    continue
                sign = (-1) ** sorted(key).index(c)
                term = entry * sub if sign > 0 else -(entry * sub)
                got = new.get(key)
                new[key] = term if got is None else got + term
        minors = new
    # absent key <=> every expansion term vanished, i.e. a zero determinant
    det = minors.get(tuple(range(n)), rows[0][0] * 0)
    return as_scalar(det, QQ) if type(det) is Fraction else det


def int_nullspace_mod_p(rows: list, ncols: int, p: int) -> list:
    """Nullspace basis of an integer matrix mod a prime p, as Python ints.

    The reduced-echelon convention: one basis vector per free column, left
    to right, with a 1 in the free position and the pivot entries filled
    from the echelon form.  rows may be empty; entries need not be reduced
    mod p on input and may exceed int64.  The residues are eliminated in
    one numpy array, int64 while (p-1)^2 < 2^63 so that no product wraps,
    and of Python ints past that.
    """
    if p < 2:
        raise ValueError(f"modulus {p} is out of range: need p >= 2")
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    try:
        m = np.array(rows, dtype=dtype) % p
    except OverflowError:           # an entry past int64: reduce it first
        m = np.array([[c % p for c in row] for row in rows], dtype=dtype)
    m = m.reshape(len(rows), ncols)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        hit = m[:, c].nonzero()[0]
        k = int(hit.searchsorted(r))    # the first row from r on is the pivot
        if k == hit.size:
            continue
        pr = int(hit[k])
        # rows from r on are zero left of c, so only columns c.. change
        row = m[pr, c:] * pow(int(m[pr, c]), -1, p) % p
        m[pr] = m[r]        # row r, zero at c unless it is the pivot row
        m[hit, c:] = (m[hit, c:] - np.multiply.outer(m[hit, c], row)) % p
        m[r, c:] = row
        pivots.append(c)
    # Python ints: callers combine residues by CRT past 2^63
    echelon = m[:len(pivots)].tolist()
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


def modular_nullspace(rows: list, ncols: int, certify):
    """Kernel basis over QQ of an integer matrix, by CRT over primes.

    Primes run down from 2^31 - 1.  Those of largest rank, then smallest
    pivot columns, are kept (the rest were unlucky), their kernels combined
    by CRT and lifted by rational reconstruction; the first lift that
    certify(basis) proves exactly is returned.  Rank mod p is at most the
    rank over QQ, so that basis spans the QQ kernel.  It is in the
    reduced-echelon convention of `int_nullspace_mod_p` when a kept prime
    is lucky; a prime that keeps the rank but moves the pivots can, rarely,
    give a proved basis on other free columns.  Returns None once the
    product of the kept primes passes 2^(1 + sum of bit lengths of |row|^2)
    >= 2 H^2 (Hadamard): then every kept prime is lucky and every lift
    exact, so that only happens when certify refuses a true kernel.
    """
    bits = 1 + sum(sum(c * c for c in row).bit_length() for row in rows)
    best = None             # (kernel dimension, pivots) of the kept primes
    for p in filter(is_prime, range(2**31 - 1, 2, -2)):
        basis = int_nullspace_mod_p(rows, ncols, p)
        # each vector ends in the 1 at its free column (reduced echelon form)
        free = {max(j for j, c in enumerate(v) if c) for v in basis}
        profile = (len(basis), [j for j in range(ncols) if j not in free])
        if best is None or profile < best:      # the others were unlucky
            best, modulus, residues = profile, p, basis
        elif profile == best:
            inv = pow(modulus, -1, p)
            residues = [[a + modulus * ((b - a) * inv % p)
                         for a, b in zip(u, v)]
                        for u, v in zip(residues, basis)]
            modulus *= p
        else:
            continue
        lifted = [[rational_reconstruct(c, modulus) for c in v]
                  for v in residues]
        if not any(None in v for v in lifted) and certify(lifted):
            return lifted
        if modulus >> bits:
            return None
    return None


def rows_of(columns: list) -> list:
    """The rows of the matrix whose columns are `columns`, each a mapping
    key -> scalar: one row per key that some column holds nonzero, in
    order of first appearance, with 0 where a column lacks the key."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                rows.setdefault(key, [0] * len(columns))[j] = c
    return list(rows.values())


def nullspace(rows: list, ncols: int, ring=QQ) -> list:
    """Basis of the right kernel of a matrix over QQ or GF(p), given by its
    rows of scalars; rows may be empty.

    Over GF(p) the residues go to `int_nullspace_mod_p` and come back as
    Fp.  Over QQ each row is scaled to integers by the lcm of its
    denominators and the kernel comes from `modular_nullspace`, certified
    by A v = 0 exactly; its entries are QQ scalars.  Either way the basis
    is in the reduced-echelon convention, over QQ whenever a kept prime is
    lucky.
    """
    if ring != QQ:
        p = ring[1]
        residues = [[as_scalar(c, ring).val for c in row] for row in rows]
        return [[Fp(c, p) for c in v]
                for v in int_nullspace_mod_p(residues, ncols, p)]
    ints = []
    for row in rows:
        row = [as_scalar(c, QQ) for c in row]
        den = lcm(*(c.denominator for c in row))
        ints.append([c.numerator * (den // c.denominator) for c in row])

    def certify(basis):
        return not any(sum(a * x for a, x in zip(row, v))
                       for v in basis for row in ints)

    basis = modular_nullspace(ints, ncols, certify)
    if basis is None:
        raise ArithmeticError("modular kernel passed its Hadamard bound "
                              "without a certificate")
    return basis
