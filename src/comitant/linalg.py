"""Exact dense linear algebra over QQ and GF(p), plus polynomial matrices.

Gaussian elimination is plain fraction arithmetic (Fraction/Fp both divide
exactly); nullspace bases follow the reduced-echelon convention so results
are deterministic.  Polynomial matrices get a division-free determinant
(Laplace expansion memoized over column subsets) and Cramer solves, which is
all the symbolic work here needs.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .scalars import QQ, as_scalar, ring_one, ring_zero


class Matrix:
    """Rectangular matrix over one exact scalar ring."""

    def __init__(self, entries, ring=QQ):
        self.entries = [[as_scalar(c, ring) for c in row] for row in entries]
        self.ring = ring
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n, ring=QQ):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   ring)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], self.ring)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch in matrix product")
            return Matrix(
                [[sum((self.entries[i][k] * other.entries[k][j]
                       for k in range(self.cols)), ring_zero(self.ring))
                  for j in range(other.cols)] for i in range(self.rows)],
                self.ring)
        # matrix * vector
        if self.cols != len(other):
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum((self.entries[i][k] * as_scalar(other[k], self.ring)
                     for k in range(self.cols)), ring_zero(self.ring))
                for i in range(self.rows)]

    def rref(self):
        """Reduced row echelon form; returns (new Matrix, pivot columns)."""
        m = [row[:] for row in self.entries]
        pivots = []
        r = 0
        one = ring_one(self.ring)
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = (Fraction(1) / m[r][c]) if self.ring == QQ \
                else m[r][c].inverse()
            m[r] = [x * inv for x in m[r]]
            m[r][c] = one
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        out = Matrix.__new__(Matrix)
        out.entries = m
        out.ring = self.ring
        out.rows = self.rows
        out.cols = self.cols
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list:
        """Basis of the right kernel, reduced-echelon convention.

        One basis vector per free column, with a 1 in the free position and
        the pivot entries filled from the echelon form; order follows the
        free columns left to right.
        """
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        one = ring_one(self.ring)
        zero = ring_zero(self.ring)
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(v)
        return basis

    def det(self):
        """Determinant by elimination; square matrices only."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = [row[:] for row in self.entries]
        n = self.rows
        result = ring_one(self.ring)
        for c in range(n):
            pr = None
            for i in range(c, n):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                return ring_zero(self.ring)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                result = -result
            result = result * m[c][c]
            inv = (Fraction(1) / m[c][c]) if self.ring == QQ \
                else m[c][c].inverse()
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return result

    def solve(self, rhs: list):
        """One solution of Ax = b, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        aug = Matrix([row + [b] for row, b in
                      zip(self.entries, [as_scalar(b, self.ring) for b in rhs])],
                     self.ring)
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ring_zero(self.ring)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.cols]
        return x

    def solve_poly_rhs(self, rhs: list):
        """Solve Ax = b where A is scalar but b has Poly entries.

        Elimination runs on A with the row operations mirrored onto the
        polynomial right-hand side.  Returns a list of Polys (free variables
        pinned to zero) or None if the system is inconsistent.
        """
        proto = rhs[0]
        zero = Poly.zero(proto.vars, proto.ring)
        m = [row[:] for row in self.entries]
        b = list(rhs)
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            b[r], b[pr] = b[pr], b[r]
            inv = (Fraction(1) / m[r][c]) if self.ring == QQ \
                else m[r][c].inverse()
            m[r] = [x * inv for x in m[r]]
            b[r] = b[r] * inv
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * p for a, p in zip(m[i], m[r])]
                    b[i] = b[i] - b[r] * f
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        for i in range(r, self.rows):
            if not b[i].is_zero():
                return None
        x = [zero] * self.cols
        for k, pc in enumerate(pivots):
            x[pc] = b[k]
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix([self.entries[i] + Matrix.identity(n, self.ring).entries[i]
                      for i in range(n)], self.ring)
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([red.entries[i][n:] for i in range(n)], self.ring)

    def __repr__(self):
        return f"Matrix({self.entries!r})"


class LinearSubstitution:
    """An invertible linear change of variables x -> M x."""

    def __init__(self, matrix, ring=QQ):
        self.matrix = Matrix(matrix, ring) if not isinstance(matrix, Matrix) \
            else matrix
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("substitution matrix must be square")
        self.det = self.matrix.det()
        if not self.det:
            raise ValueError("substitution matrix is singular")

    @property
    def n(self):
        return self.matrix.rows

    def compose(self, other: "LinearSubstitution") -> "LinearSubstitution":
        return LinearSubstitution(self.matrix * other.matrix, self.matrix.ring)

    def inverse(self) -> "LinearSubstitution":
        return LinearSubstitution(self.matrix.inverse(), self.matrix.ring)

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
        images = []
        index_pos = {v: k for k, v in enumerate(indices)}
        for i in range(len(p.vars)):
            if i in index_pos:
                r = index_pos[i]
                im = Poly.zero(p.vars, p.ring)
                for k, j in enumerate(indices):
                    c = self.matrix.entries[r][k]
                    if c:
                        im = im + Poly.variable(p.vars[j], p.vars, p.ring) * c
                images.append(im)
            else:
                images.append(Poly.variable(p.vars[i], p.vars, p.ring))
        return p.substitute(images)


# -- polynomial matrices -----------------------------------------------

def poly_det(rows: list) -> Poly:
    """Determinant of a square matrix of Polys (division-free).

    Laplace expansion along rows, memoized over column subsets: O(n 2^n)
    polynomial multiplies, fine for the n <= 10 sizes used here.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for row in rows:
        if len(row) != n:
            raise ValueError("non-square polynomial matrix")
    proto = rows[0][0]
    # minors[cols] = det of the last len(cols) rows restricted to cols
    minors = {(): Poly.constant(1, proto.vars, proto.ring)}
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
                if entry.is_zero():
                    continue
                sign = (-1) ** sorted(key).index(c)
                term = entry * sub if sign > 0 else -(entry * sub)
                got = new.get(key)
                new[key] = term if got is None else got + term
        minors = new
    # absent key <=> every expansion term vanished, i.e. a zero determinant
    return minors.get(tuple(range(n)), Poly.zero(proto.vars, proto.ring))


def poly_solve_cramer(rows: list, rhs: list):
    """Solve M x = rhs over the fraction field of the Poly ring.

    Returns (numerators, denominator) with x_i = num_i / den, or None when
    det M = 0.
    """
    n = len(rows)
    den = poly_det(rows)
    if den.is_zero():
        return None
    nums = []
    for j in range(n):
        modified = [[rows[i][k] if k != j else rhs[i] for k in range(n)]
                    for i in range(n)]
        nums.append(poly_det(modified))
    return nums, den


def int_nullspace_mod_p(rows: list, ncols: int, p: int) -> list:
    """Nullspace basis of an integer matrix mod p, on plain ints for speed.

    Same reduced-echelon convention as Matrix.nullspace (one basis vector
    per free column, pivot entries filled in, free entry = 1), so the two
    paths are interchangeable.  rows may be empty; entries need not be
    reduced mod p on input.
    """
    work = [[c % p for c in row] for row in rows]
    m = len(work)
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, m) if work[i][j]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][j], p - 2, p)
        work[r] = [(c * inv) % p for c in work[r]]
        for i in range(m):
            if i != r and work[i][j]:
                f = work[i][j]
                ri, rr = work[i], work[r]
                work[i] = [(ri[k] - f * rr[k]) % p for k in range(ncols)]
        pivots.append(j)
        r += 1
        if r == m:
            break
    basis = []
    pivot_set = set(pivots)
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for i, pj in enumerate(pivots):
            vec[pj] = (-work[i][j]) % p
        basis.append(vec)
    return basis
