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
`smith_form` diagonalizes a small integer matrix by unimodular row and
column operations, for the torus lattices of `comitant.fibers`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .poly import Poly
from .scalars import (QQ, Fp, as_scalar, is_prime, rational_reconstruct,
                      ring_one)


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
        listed positions do and the matrix must match their count.
        """
        if indices is None:
            indices = list(range(len(p.vars)))
        if self.n != len(indices):
            raise ValueError(
                f"substitution is {self.n}x{self.n} but {len(indices)} "
                "variables were selected")
        nv = len(p.vars)
        unit = [tuple(int(k == j) for k in range(nv)) for j in range(nv)]
        images = [Poly(p.vars, {unit[i]: ring_one(p.ring)}, p.ring)
                  for i in range(nv)]
        for row, i in zip(self.matrix, indices):
            images[i] = Poly(p.vars, {unit[j]: as_scalar(c, p.ring)
                                      for c, j in zip(row, indices) if c},
                             p.ring)
        return p.substitute(images)


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


def smith_form(rows: list, ncols: int) -> tuple:
    """Smith normal form of an integer matrix A, given by its rows:
    (d, U, V) with U·A·V = diag(d), U and V unimodular, each d_i >= 0 and
    d_i | d_(i+1), len(d) = min(rows, ncols) (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, §2.4.4).

    Exact Python ints, pivoting on an entry of least absolute value; meant
    for the few-by-few matrices of a torus, not for large ones.
    """
    a = [[int(c) for c in row] for row in rows]
    m, n = len(a), ncols
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        for mat in (a, u):
            mat[i], mat[j] = mat[j], mat[i]

    def sub_row(i, t, q):           # row i -= q row t
        for mat in (a, u):
            mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def sub_col(j, t, q):           # column j -= q column t
        for row in a + v:
            row[j] -= q * row[t]

    for t in range(min(m, n)):
        while True:
            rest = [(abs(a[i][j]), i, j) for i in range(t, m)
                    for j in range(t, n) if a[i][j]]
            if not rest:
                break
            _, i, j = min(rest)
            swap_rows(t, i)
            swap_cols(t, j)
            if a[t][t] < 0:
                sub_row(t, t, 2)
            piv = a[t][t]
            for i in range(t + 1, m):
                sub_row(i, t, a[i][t] // piv)
            for j in range(t + 1, n):
                sub_col(j, t, a[t][j] // piv)
            # remainders below the pivot make the next pivot smaller
            if any(a[i][t] for i in range(t + 1, m)) or any(
                    a[t][j] for j in range(t + 1, n)):
                continue
            bad = next((i for i in range(t + 1, m)
                        if any(a[i][j] % piv for j in range(t + 1, n))), None)
            if bad is None:
                break
            sub_row(t, bad, -1)
    return [a[i][i] for i in range(min(m, n))], u, v


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
