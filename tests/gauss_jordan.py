"""A reference Gauss-Jordan elimination over QQ (`Fraction`) and GF(p)
(`Fp`), for the tests only.  It shares no code with `comitant.linalg`,
whose kernels, determinants and inverses the tests check against it."""

from fractions import Fraction

from comitant.scalars import QQ, Fp


def _entry(c, ring):
    if ring == QQ:
        return Fraction(c)
    return c if isinstance(c, Fp) else Fp(c, ring[1])


def rref(rows, ncols, ring=QQ):
    """(reduced row echelon form, pivot columns) of the matrix."""
    m = [[_entry(c, ring) for c in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(row, m[r])]
        pivots.append(c)
    return m, pivots


def rank(rows, ncols, ring=QQ):
    return len(rref(rows, ncols, ring)[1])


def nullspace(rows, ncols, ring=QQ):
    """Kernel basis, one vector per free column left to right, with a 1
    there, zeros at the other free columns and the pivot entries read off
    the echelon form."""
    m, pivots = rref(rows, ncols, ring)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [_entry(0, ring)] * ncols
        v[fc] = _entry(1, ring)
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def inverse(rows, ring=QQ):
    """The inverse of a square matrix; ValueError when it is singular."""
    n = len(rows)
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(rows)], 2 * n, ring)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]
