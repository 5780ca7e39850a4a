import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import comitant
import gauss_jordan
from comitant import fibers
from comitant.fibers import (
    BLOCK_POINTS,
    MAX_POINTS,
    FiberCensus,
    FiberError,
    _evaluate,
    _int_terms,
    _key_dtype,
    _residue_dtype,
    _row_keys,
    _tally,
    check_census,
    projective_points,
    sample_report,
)
from comitant.linalg import poly_det
from comitant.maps import hammond_image_polys, quartic_self_map
from comitant.orbits import Torus, _howell, _int_kernel, _Logs, _xgcd
from comitant.poly import Poly, poly_ring
from comitant.scalars import GF, QQ, Fp


def test_projective_point_counts():
    # |P^k(F_p)| = (p^(k+1) - 1)/(p - 1)
    assert projective_points(0, 5).shape == (1, 1)
    assert projective_points(1, 5).shape == (6, 2)
    assert projective_points(2, 5).shape == (31, 3)
    assert projective_points(3, 3).shape == (40, 4)


def test_projective_points_are_canonical():
    pts = projective_points(2, 3)
    # first nonzero coordinate of each representative is 1
    for row in pts:
        nz = [c for c in row if c]
        assert nz[0] == 1
    # and no row repeats
    assert len({tuple(r) for r in pts}) == pts.shape[0]


def _stratified_points_reference(k, p):
    """The points of P^k(F_p) built one stratum block at a time and
    concatenated: the construction projective_points replaces."""
    blocks = []
    for lead in range(k + 1):
        free = k - lead
        n = p**free
        block = np.zeros((n, k + 1), dtype=np.int64)
        block[:, lead] = 1
        if free:
            block[:, lead + 1:] = np.indices((p,) * free).reshape(free, n).T
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_points_match_stratified_reference(k, p):
    pts = projective_points(k, p)
    assert pts.dtype == np.int64
    assert np.array_equal(pts, _stratified_points_reference(k, p))


def test_source_dimension_guard():
    with pytest.raises(FiberError, match="0..3"):
        projective_points(4, 5)


def test_identity_census():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0, t1], 11)
    assert census.total == 12
    assert census.max_fiber == 1
    assert census.image_size == 12
    assert census.indeterminate == 0
    assert census.conservation_holds()


def test_squaring_map_census():
    # [t0^2 : t1^2] on P^1 is 2:1 away from the two branch points
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0**2, t1**2], 11)
    assert census.max_fiber == 2
    assert census.indeterminate == 0
    assert census.conservation_holds()
    # fiber over [1 : 1] is {[1 : 1], [1 : -1]}
    assert census.fiber_size((1, 1)) == 2
    assert census.fiber_size((0, 1)) == 1
    # a non-residue of F_11 is not a square, so [nr : 1] has empty fiber
    assert census.fiber_size((2, 1)) == 0


def test_census_with_indeterminacy():
    # [t0^2 : t0*t1] as a raw pair is undefined at [0 : 1]
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0**2, t0 * t1], 7)
    assert census.indeterminate == 1
    assert census.conservation_holds()
    assert census.image_of((0, 1)) is None
    assert census.image_of((3, 6)) == (1, 2)


def test_census_accepts_gfp_polys():
    t0, t1 = poly_ring(("t0", "t1"), GF(7))
    census = FiberCensus([t0, t1], 7)
    assert census.max_fiber == 1
    s0, s1 = poly_ring(("t0", "t1"), GF(5))
    with pytest.raises(FiberError, match="does not match"):
        FiberCensus([s0, s1], 7)


def test_fiber_count_hand_checked():
    # x = t0/t1 with x^2 = 4 over F_7 gives x = 2 and x = 5
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    assert FiberCensus([t0**2, t1**2], 7).fiber_size((4, 1)) == 2


def test_fiber_count_accepts_rational_map():
    # sample_report reads a RationalMapP1 as its [num, den]
    m = quartic_self_map()
    census = FiberCensus([m.num, m.den], 101)
    assert census.max_fiber <= m.degree
    rep = sample_report(m, 101, samples=3, seed=0)
    assert rep == sample_report([m.num, m.den], 101, samples=3, seed=0)
    assert rep["max_fiber"] == census.max_fiber


def test_target_validation():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0, t1], 7)
    with pytest.raises(FiberError, match="not zero"):
        census.fiber_size((0, 0))
    with pytest.raises(FiberError, match="not zero"):
        census.fiber_size((7, 14))  # zero mod 7


def test_map_shape_guard():
    with pytest.raises(FiberError, match="cannot read"):
        sample_report(object(), 7, samples=1, seed=0)
    with pytest.raises(FiberError, match="at least one"):
        FiberCensus([], 7)


def test_sample_report_shape():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    rep = sample_report([t0, t1], 11, samples=5, seed=3)
    assert len(rep["lines"]) == 5
    assert all(line.startswith("target=[") and " fiber=1" in line
               for line in rep["lines"])
    assert rep["max_fiber"] == 1
    assert rep["indeterminate"] == 0
    assert rep["fraction_ones"] == 1.0


def test_sample_report_is_seeded():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    a = sample_report([t0**2, t1**2], 11, samples=8, seed=42)
    b = sample_report([t0**2, t1**2], 11, samples=8, seed=42)
    assert a["lines"] == b["lines"]
    c = sample_report([t0**2, t1**2], 11, samples=8, seed=43)
    assert a["lines"] != c["lines"]


def test_sample_report_needs_samples():
    with pytest.raises(FiberError, match="at least one sample"):
        t0, t1 = poly_ring(("t0", "t1"), QQ)
        sample_report([t0, t1], 7, samples=0, seed=0)


def test_sample_report_refuses_map_undefined_everywhere():
    # every sampled point would be redrawn forever; the census shows it
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    with pytest.raises(FiberError, match="undefined at every point"):
        sample_report([t0 - t0, t1 - t1], 7, samples=1, seed=0)


def test_check_census_guards():
    check_census(3, 251)
    with pytest.raises(FiberError, match="MAX_POINTS"):
        check_census(3, 257)
    with pytest.raises(FiberError, match="overflow int64"):
        check_census(0, 4294967311)
    with pytest.raises(FiberError, match="not prime"):
        check_census(1, 561)
    with pytest.raises(FiberError, match="0..3"):
        check_census(4, 3)


def test_point_count_guard():
    # P^3(F_251) has 15,876,504 points, P^3(F_257) 17,040,900 > 2^24;
    # the guard fires on the count alone, before any array exists
    assert (251**4 - 1) // 250 <= MAX_POINTS < (257**4 - 1) // 256
    with pytest.raises(FiberError, match="MAX_POINTS"):
        projective_points(3, 257)
    with pytest.raises(FiberError, match="MAX_POINTS"):
        projective_points(1, 2**24)
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    with pytest.raises(FiberError, match="MAX_POINTS"):
        FiberCensus([t0, t1], 2**61 - 1)


def test_int64_product_guard():
    # (p-1)^2 < 2^63 holds up to p = 3037000500; beyond it t0^2 would wrap
    (t0,) = poly_ring(("t0",), QQ)
    p = 3037000493  # the largest prime below that bound
    assert FiberCensus([t0**2], p).image_of([p - 1]) == (1,)
    # a second coordinate keeps the value of t0^2 visible after scaling
    assert FiberCensus([t0, t0**2], p).image_of([p - 1]) == (1, p - 1)
    with pytest.raises(FiberError, match="overflow int64"):
        next(_evaluate([[((2,), 1)]], 0, 4294967311))
    # P^0 has one point, so only the product guard stops this census
    with pytest.raises(FiberError, match="overflow int64"):
        FiberCensus([t0**2], 4294967311)


def test_residue_width_rule():
    # (p-1)^2 < 2^31: 46340^2 = 2147395600 fits, 46341^2 = 2147488281 does not
    assert _residue_dtype(46341, 1) is np.int32
    assert _residue_dtype(46342, 1) is np.int64
    assert _residue_dtype(46337, 1) is np.int32   # the largest such prime
    assert _residue_dtype(46349, 1) is np.int64   # the next prime
    # T*(p-1) < 2^31: a coordinate's sum of T residues
    assert _residue_dtype(2, 2**31 - 1) is np.int32
    assert _residue_dtype(2, 2**31) is np.int64
    assert _residue_dtype(101, (2**31 - 1) // 100) is np.int32
    assert _residue_dtype(101, (2**31 - 1) // 100 + 1) is np.int64
    assert _residue_dtype(3037000493, 1) is np.int64


@pytest.mark.parametrize("p,dtype", [(46337, np.int32), (46349, np.int64)])
def test_census_on_each_side_of_the_int32_bound(p, dtype):
    # coefficients -1 and -2 are p-1 and p-2: residue products near (p-1)^2
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([-t0**3 - 2 * t0 * t1**2 + t1**3,
                          t0**2 * t1 - t1**3], p)
    assert census.images.dtype == dtype
    # every row against image_of, which works on Python ints
    fibers, indeterminate = {}, 0
    for pt, row in zip(census.source.tolist(), census.images.tolist()):
        img = census.image_of(pt)
        if img is None:
            indeterminate += 1
            assert row == [0, 0]
            continue
        assert tuple(row) == img
        fibers[img] = fibers.get(img, 0) + 1
    assert census.indeterminate == indeterminate
    assert sorted(census._counts.tolist()) == sorted(fibers.values())
    # every 50th image is looked up, which keeps the two cases short
    for img in list(fibers)[::50]:
        assert census.fiber_size(img) == fibers[img]


def test_image_of_rejects_wrong_point_length():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0**2, t1**2], 11)
    with pytest.raises(FiberError, match="3 coordinates, P\\^1 needs 2"):
        census.image_of((1, 2, 3))
    with pytest.raises(FiberError, match="1 coordinates, P\\^1 needs 2"):
        census.image_of((1,))


def test_census_rejects_composite_modulus():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    with pytest.raises(FiberError, match="not prime"):
        FiberCensus([t0, t1], 9)
    with pytest.raises(FiberError, match="not prime"):
        FiberCensus([t0, t1], 561)
    # the size guards come first: is_prime never sees a p past its range
    with pytest.raises(FiberError, match="MAX_POINTS"):
        FiberCensus([t0, t1], 10**30)


def test_target_length_must_match_map():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0**2, t1**2], 11)
    with pytest.raises(FiberError, match="3 coordinates, the map has 2"):
        census.fiber_size((1, 1, 1))


def _oracle_census(polys, k, p):
    """Fiber sizes by exact Fp evaluation and a dict, one point at a time."""
    fibers, indeterminate = {}, 0
    for pt in projective_points(k, p):
        vals = [poly.evaluate([Fp(int(c), p) for c in pt]).val
                for poly in polys]
        lead = next((v for v in vals if v), 0)
        if not lead:
            indeterminate += 1
            continue
        inv = pow(lead, -1, p)
        img = tuple(v * inv % p for v in vals)
        fibers[img] = fibers.get(img, 0) + 1
    return fibers, indeterminate


def _random_map(draw, k, m, p):
    """m random homogeneous polynomials of one degree on P^k over F_p."""
    names = tuple(f"t{i}" for i in range(k + 1))
    d = draw(st.integers(1, 3))
    monos = [e for e in product(range(d + 1), repeat=k + 1) if sum(e) == d]
    polys = []
    for _ in range(m):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                               max_size=len(monos)))
        polys.append(Poly(names, {e: Fp(c, p) for e, c in zip(monos, coeffs)
                                  if c}, GF(p)))
    return polys


def _assert_matches_oracle(polys, k, p):
    census = FiberCensus(polys, p)
    fibers, indeterminate = _oracle_census(polys, k, p)
    assert census.indeterminate == indeterminate
    assert census.image_size == len(fibers)
    assert census.max_fiber == max(fibers.values(), default=0)
    assert census.conservation_holds()
    for img, n in fibers.items():
        assert census.fiber_size(img) == n
    return census


@st.composite
def _small_maps(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    k = draw(st.integers(0, 2))
    m = draw(st.integers(1, 4))
    return _random_map(draw, k, m, p), k, p


@settings(max_examples=40, deadline=None)
@given(_small_maps())
def test_packed_census_matches_dict_oracle(case):
    polys, k, p = case
    census = _assert_matches_oracle(polys, k, p)
    assert census._uniq.dtype == np.int64


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_structured_fallback_matches_dict_oracle(data):
    # 1009^7 > 2^63, so seven coordinates cannot be packed into one int64
    polys = _random_map(data.draw, 1, 7, 1009)
    census = _assert_matches_oracle(polys, 1, 1009)
    assert census._uniq.dtype.kind == "V"


# (p, m) with p^m just below 2^63, and the next m, at or past it
_BELOW = [(2, 62), (7, 22), (3037000493, 2)]
_AT = [(p, m + 1) for p, m in _BELOW]


@pytest.mark.parametrize("p, m", _BELOW + _AT)
def test_row_key_matches_row_keys_at_the_int64_boundary(p, m):
    rows = [[p - 1] * m, [0] * (m - 1) + [1], [1] + [0] * (m - 1),
            [(7 * i + 3) % p for i in range(m)],
            [(5 * i + 1) % p for i in range(m)]]
    dtype = _key_dtype(m, p)
    keys = _row_keys(np.array(rows, dtype=np.int64), p, dtype)
    if (p, m) in _BELOW:
        # the int64 key is the row's mixed-radix sum, v_i * p^(m-1-i)
        assert p**m < 2**63 and keys.dtype == np.int64
        assert [sum(v * p**(m - 1 - i) for i, v in enumerate(row))
                for row in rows] == keys.tolist()
        assert max(keys.tolist()) == p**m - 1
    else:
        # wider rows: void keys, one per row, in lexicographic row order
        assert p**m >= 2**63 and dtype.kind == "V"
        assert [rows[i] for i in np.argsort(keys, kind="stable")] \
            == sorted(rows)


@pytest.mark.parametrize("m", [22, 23])
def test_scalar_path_lookup_on_both_sides_of_the_int64_boundary(m):
    # [t0 : t1] -> the m monomials of degree m - 1 in t0^2, t1^2 over F_7,
    # the first plus t0^(2m - 2), so the torus is the scalars alone:
    # 7^22 < 2^63 <= 7^23, and squaring makes most fibers 2
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    polys = [t0 ** (2 * j) * t1 ** (2 * (m - 1 - j)) for j in range(m)]
    polys[0] = polys[0] + t0 ** (2 * (m - 1))
    census = _assert_matches_oracle(polys, 1, 7)
    assert census._torus is None
    assert census._uniq.dtype.kind == ("i" if m == 22 else "V")
    assert census.max_fiber == 2


def _squares_map(t0, t1, m=23):
    """The m = 23 map of the test above: scalar path, void keys over F_7."""
    polys = [t0 ** (2 * j) * t1 ** (2 * (m - 1 - j)) for j in range(m)]
    polys[0] = polys[0] + t0 ** (2 * (m - 1))
    return polys


@pytest.mark.parametrize("build, p, torus, kind", [
    # a binomial coordinate: the scalars alone, int64 keys
    (lambda t0, t1: [t0**2 + t1**2, t0 * t1, t1**2], 11, False, "i"),
    # monomials: the whole diagonal torus, int64 keys
    (lambda t0, t1: [t0**2, t1**2], 7, True, "i"),
    # 7^23 >= 2^63: void keys on the scalar path
    (_squares_map, 7, False, "V"),
    # seven monomials, 1009^7 >= 2^63: void keys on a torus
    (lambda t0, t1: [t0 ** (6 - j) * t1**j for j in range(7)], 1009, True,
     "V"),
])
def test_fiber_sizes_match_the_counter_oracle(build, p, torus, kind):
    census = FiberCensus(build(*poly_ring(("t0", "t1"), QQ)), p)
    assert (census._torus is not None) == torus
    assert census._uniq.dtype.kind == kind
    sizes = Counter(census.image_of(pt) for pt in census.source.tolist())
    sizes.pop(None, None)
    m = len(census.polys)
    # the last normalized row of P^(m-1)(F_p): outside the image, and keyed
    # past the census's last key (keys sort in lexicographic row order)
    top = (1,) + (p - 1,) * (m - 1)
    assert top not in sizes and top > max(sizes)
    # a row outside the image keyed among the census's keys
    outside = next(t for t in ((1, x) + (0,) * (m - 2) for x in range(p))
                   if t not in sizes)
    targets = list(sizes) + [top, outside]
    want = [sizes[t] for t in targets]
    assert census.fiber_sizes(targets) == want
    assert [census.fiber_size(t) for t in targets] == want
    # unnormalized targets, as a lookup takes them
    assert census.fiber_sizes([[2 * c for c in t] for t in targets]) == want
    assert census.fiber_sizes([]) == []


def test_sample_report_looks_its_targets_up_at_once(monkeypatch):
    calls = []
    lookup = FiberCensus.fiber_sizes

    def counting(self, targets):
        calls.append(len(targets))
        return lookup(self, targets)

    monkeypatch.setattr(FiberCensus, "fiber_sizes", counting)
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    rep = sample_report([t0**3 + t1**3, t0 * t1**2], 13, 25, seed=4)
    assert calls == [25] and len(rep["lines"]) == 25


@st.composite
def _grid_case(draw):
    """Random sparse, not necessarily homogeneous, polynomials on P^k."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 3))
    names = tuple(f"t{i}" for i in range(k + 1))
    exps = st.tuples(*[st.integers(0, 4)] * (k + 1))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(exps, st.integers(1, p - 1),
                                     max_size=6))
        polys.append(Poly(names, {e: Fp(c, p) for e, c in terms.items()},
                          GF(p)))
    return polys, k, p


@settings(max_examples=40, deadline=None)
@given(_grid_case())
def test_grid_evaluator_matches_pointwise_fp(case):
    # every stratum of P^1, P^2, P^3, against exact Fp evaluation per point
    polys, k, p = case
    pts = projective_points(k, p)
    vals = np.concatenate(list(_evaluate([_int_terms(poly, p)
                                          for poly in polys], k, p)))
    assert vals.shape == (pts.shape[0], len(polys))
    for row, pt in zip(vals, pts):
        point = [Fp(int(c), p) for c in pt]
        assert [int(v) for v in row] == [poly.evaluate(point).val
                                         for poly in polys]


def _assert_matches_counter(census):
    """The census, and its on-access rows, against Counter(image_of(pt))
    over every source point."""
    images = [census.image_of(pt) for pt in census.source.tolist()]
    sizes = Counter(images)
    assert census.indeterminate == sizes.pop(None, 0)
    assert census.conservation_holds()
    assert census.image_size == len(sizes)
    # one fiber size per target orbit, expanded to each point of the orbit
    expanded = np.repeat(census._counts, census._sizes)
    assert sorted(expanded.tolist()) == sorted(sizes.values())
    for img, n in sizes.items():
        assert census.fiber_size(img) == n
    assert census.indeterminate_mask.tolist() == [img is None
                                                  for img in images]
    m = len(census.polys)
    assert census.images.tolist() == [list(img or (0,) * m)
                                      for img in images]


@st.composite
def _blocked_case(draw):
    """A random map on P^0..P^3, with a block size from one point to more
    than a stratum, so blocks end inside strata and on their edges."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    k = draw(st.integers(0, 3))
    m = draw(st.integers(1, 4))
    block = draw(st.sampled_from([1, 2, 3, p - 1, p, p + 1, p * p - 1,
                                  p * p + 1, BLOCK_POINTS]))
    return _random_map(draw, k, m, p), p, block


@settings(max_examples=60, deadline=None)
@given(_blocked_case())
def test_blocked_census_matches_counter_oracle(case):
    polys, p, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibers, "BLOCK_POINTS", block)
        census = FiberCensus(polys, p)
        _assert_matches_counter(census)


@pytest.mark.parametrize("k,p,block", [
    (0, 7, 1), (1, 7, 3), (2, 5, 7), (3, 5, 26), (3, 7, 50), (3, 7, 49),
    (3, 3, BLOCK_POINTS)])
def test_blocks_are_slabs_of_one_stratum(k, p, block, monkeypatch):
    # rows of the blocks follow projective_points, each block inside one
    # stratum (one lead position) and whole along all but its first axis
    monkeypatch.setattr(fibers, "BLOCK_POINTS", block)
    terms = [[((0,) * i + (1,) + (0,) * (k - i), 1)] for i in range(k + 1)]
    blocks = list(_evaluate(terms, k, p))   # the identity map
    assert np.array_equal(np.concatenate(blocks), projective_points(k, p))
    for rows in blocks:
        leads = (rows != 0).argmax(axis=1)
        assert (leads == leads[0]).all()
        inner = p ** max(k - int(leads[0]) - 1, 0)
        assert rows.shape[0] <= max(block, inner)
        assert rows.shape[0] % inner == 0


def test_census_with_indeterminacy_on_every_stratum():
    # [t1*t2 : t0*t2 : t0*t1] is undefined at the three coordinate points,
    # one in each stratum of P^2; on P^0, one block of one point, a map is
    # defined or undefined everywhere
    t0, t1, t2 = poly_ring(("t0", "t1", "t2"), QQ)
    census = FiberCensus([t1 * t2, t0 * t2, t0 * t1], 11)
    assert census.indeterminate == 3
    _assert_matches_counter(census)
    (u,) = poly_ring(("u",), QQ)
    _assert_matches_counter(FiberCensus([u, u**2, 3 * u], 11))
    assert FiberCensus([u - u], 11).indeterminate == 1


@pytest.mark.parametrize("k, p, built", [
    # P^2(F_7): the grid strata are blocks of 49 and 7 rows and share one
    # table of the 7 inverses; P^0 inverts its one lead
    (2, 7, [7, 1]),
    # p = 65537 > BLOCK_POINTS: no block has p rows, so no table is built
    (1, 65537, [BLOCK_POINTS, 1, 1])])
def test_inverse_table_only_for_blocks_of_at_least_p_rows(k, p, built):
    ts = poly_ring(tuple(f"t{i}" for i in range(k + 1)), QQ)
    # the t0*t1*t_k term leaves only the scalar torus, so the census walks
    # the grid of points (on P^1 it merges into t0*t1^2)
    polys = [t**3 for t in ts] + [ts[0] * ts[-1]**2 - 2 * ts[-1]**3
                                  + ts[0] * ts[1] * ts[-1]]
    sizes = []
    inverse = fibers._fermat_inverse

    def spy(x, q):
        sizes.append(x.size)
        return inverse(x, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibers, "_fermat_inverse", spy)
        census = FiberCensus(polys, p)
    assert sizes == built
    assert census.orbits == census.total
    fib = Counter(census.image_of(pt) for pt in census.source.tolist())
    assert census.indeterminate == fib.pop(None, 0)
    assert sorted(census._counts.tolist()) == sorted(fib.values())


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_structured_fallback_matches_counter_oracle(data):
    # 101^10 > 2^63: ten coordinates fall back to structured keys
    polys = _random_map(data.draw, 1, 10, 101)
    block = data.draw(st.sampled_from([7, 101, 1000, BLOCK_POINTS]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibers, "BLOCK_POINTS", block)
        census = FiberCensus(polys, 101)
        assert census._uniq.dtype.kind == "V"
        _assert_matches_counter(census)


def test_quintic_image_census():
    # the census behind claim 09: P^3(F_101), 1,040,604 source points in
    # 114 orbits of the rank-3 torus diag(a, b, e, f) with af = be
    polys = hammond_image_polys()
    FiberCensus(polys, 7)   # numpy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        census = FiberCensus(polys, 101)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ~0.2 MiB at the peak (the discrete-log candidates of one block) and
    # ~20 KiB kept, where one int64 key per point took ~41 MiB at the sort
    # and kept ~16 MiB
    assert peak < 2**18
    assert kept < 2**15
    assert census.orbits == 114
    assert len(census._torus.basis) == 3
    assert census.total == 1_040_604
    assert census.indeterminate == 204
    assert census.image_size == 1_035_202
    assert census.max_fiber == 100
    assert census.conservation_holds()


def test_lookups_reduce_each_coordinate_exactly():
    # [t0^2 : t1^2] over F_11; 1/2 = 6 mod 11, and [6 : 1] = [1 : 2] is not
    # an image point, because 2 is not a square mod 11
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0**2, t1**2], 11)
    half = Fraction(1, 2)
    assert census.fiber_size((half, 1)) == census.fiber_size((6, 1)) == 0
    assert census.fiber_size((0, 1)) == 1           # what int(1/2) gave
    assert census.normalize_target((half, 1)) == (1, 2)
    assert census.image_of((half, 1)) == census.image_of((6, 1)) == (1, 4)
    assert census.image_of((half, 1)) != census.image_of((0, 1))
    # Fp over the census prime and numpy integers are taken as they are
    assert census.normalize_target((Fp(6, 11), Fp(1, 11))) == (1, 2)
    assert census.image_of((np.int64(6), np.int32(12))) == (1, 4)
    assert census.fiber_size((Fraction(-3), 1)) == census.fiber_size((8, 1))


@pytest.mark.parametrize("bad", [0.5, 1.0, Fp(1, 7), Fraction(1, 11),
                                 Fraction(5, 22), "1", None])
def test_lookups_refuse_what_does_not_reduce(bad):
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0**2, t1**2], 11)
    with pytest.raises(FiberError, match="cannot reduce"):
        census.fiber_size((bad, 1))
    with pytest.raises(FiberError, match="cannot reduce"):
        census.normalize_target((1, bad))
    with pytest.raises(FiberError, match="cannot reduce"):
        census.image_of((bad, 1))


# ------------------------------------------------------------ torus orbits

@pytest.mark.parametrize("p, orbits, indeterminate", [
    (7, 20, 16), (19, 32, 40), (101, 114, 204)])
def test_quintic_map_orbit_counts(p, orbits, indeterminate):
    # p - 1 orbits of full support, one per value of af/(be), and one for
    # each of the 14 other strata of P^3
    rep = sample_report(hammond_image_polys(), p, samples=1, seed=0)
    assert rep["orbits"] == orbits == p - 1 + 14
    assert rep["indeterminate"] == indeterminate
    assert rep["max_fiber"] == p - 1
    assert rep["singleton_share"] == Fraction(p, p + 1)


def test_quintic_map_census_matches_counter_oracle():
    _assert_matches_counter(FiberCensus(hammond_image_polys(), 7))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_logs_invert_exps(p):
    logs = _Logs(p)
    # ceil(sqrt(p - 1)) baby and giant steps, nothing of size p
    assert logs.baby.size == logs.giant.size == math.isqrt(p - 2) + 1
    u = np.arange(p - 1)
    y = logs.exp(u)
    # g generates F_p^*: its powers are every nonzero residue once
    assert sorted(y.tolist()) == list(range(1, p))
    assert np.array_equal(logs.log(y), u)


def test_logs_at_a_prime_past_the_block():
    # p - 1 = 65536: 256 steps each way, log in 256 chunks of candidates
    logs = _Logs(65537)
    u = np.arange(0, 65536, 7)
    assert np.array_equal(logs.log(logs.exp(u)), u)


def _torus_rank(census):
    return 1 if census._torus is None else len(census._torus.basis)


@pytest.mark.parametrize("p", [2, 3, 7, 11])
@pytest.mark.parametrize("build, rank", [
    # monomials on P^1: the whole diagonal torus
    (lambda t0, t1: [t0**2, 3 * t1**2], 2),
    # exponent differences 2(1, -1, 0) and a zero coordinate: L is
    # {l0 = l1}, and t0 = -t1 is a symmetry outside the torus
    (lambda t0, t1, t2: [t0**2 + t1**2, t2**2, t0 - t0], 2),
    # binomials with differences (1, -1, 0, 0) and (0, 0, 1, -1)
    (lambda t0, t1, t2, t3: [t0**2 + t1**2, t2**2 - t3**2, t0 * t2 + t1 * t3,
                             t0 * t3 + 2 * t1 * t2], 2),
    # one monomial coordinate of another degree: the scalars alone
    (lambda t0, t1, t2: [t0 * t1, t2**2, t0**3], 1),
    # not homogeneous within a coordinate: the scalars alone
    (lambda t0, t1: [t0**2 + t1, t1**2], 1),
])
def test_torus_census_matches_counter_oracle(build, rank, p):
    names = tuple(f"t{i}" for i in range(build.__code__.co_argcount))
    census = FiberCensus(build(*poly_ring(names, QQ)), p)
    assert _torus_rank(census) == rank
    _assert_matches_counter(census)
    if rank > 1 and p > 2:
        assert census.orbits < census.total
    else:
        assert census.orbits <= census.total


def test_non_homogeneous_point_map_stays_on_the_scalar_path():
    # on P^0 every lattice is the scalars, but [u : u^2 : 3u] has two
    # degrees: its target orbits must stay points
    (u,) = poly_ring(("u",), QQ)
    census = FiberCensus([u, u**2, 3 * u], 11)
    assert census._torus is None
    assert census.orbits == census.total == 1
    assert census.fiber_size((1, 1, 3)) == 1


@st.composite
def _torus_case(draw):
    """A random map on P^0..P^3 whose coordinates are zero, monomials or
    binomials c x^e + c' x^(e + delta), with one shared difference delta
    (possibly a multiple, e.g. 2(1, -1)): its torus has rank >= k."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    k = draw(st.integers(0, 3))
    d = draw(st.integers(1, 3))
    names = tuple(f"t{i}" for i in range(k + 1))
    monos = [e for e in product(range(d + 1), repeat=k + 1) if sum(e) == d]
    scale = draw(st.integers(1, 2))
    delta = [0] * (k + 1)
    if k:
        i, j = draw(st.permutations(range(k + 1)))[:2]
        delta[i], delta[j] = scale, -scale
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "mono", "bi", "bi"]))
        e = draw(st.sampled_from(monos))
        terms = {}
        if kind != "zero":
            terms[e] = draw(st.integers(1, p - 1)) if p > 2 else 1
        f = tuple(a + b for a, b in zip(e, delta))
        if kind == "bi" and min(f) >= 0 and f != e:
            terms[f] = draw(st.integers(1, p - 1)) if p > 2 else 1
        polys.append(Poly(names, {x: Fp(c, p) for x, c in terms.items()},
                          GF(p)))
    return polys, p


@settings(max_examples=80, deadline=None)
@given(_torus_case())
def test_random_torus_census_matches_counter_oracle(case):
    polys, p = case
    census = FiberCensus(polys, p)
    _assert_matches_counter(census)
    # one degree throughout, and every difference a multiple of delta
    if census.source_dim >= 2 and any(poly.terms for poly in polys):
        assert _torus_rank(census) >= census.source_dim


def test_tally_refuses_a_fiber_that_does_not_divide():
    # three source points keyed to a target orbit of two points
    with pytest.raises(FiberError, match="do not share their fiber"):
        _tally(np.array([5, 5]), np.array([1, 2]), np.array([2, 2]))


def test_census_refuses_orbits_that_miss_points(monkeypatch):
    # a stratum's orbits dropped: the orbit sizes no longer add up
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    walk = Torus.orbit_images
    monkeypatch.setattr(Torus, "orbit_images",
                        lambda self, k: list(walk(self, k))[1:])
    with pytest.raises(FiberError, match="do not add up to its 12 points"):
        FiberCensus([t0**2, t1**2], 11)



def _coset_closure(rows, c, n):
    """The subgroup of (Z/n)^c spanned by rows, by closure."""
    group = {(0,) * c}
    frontier = list(group)
    while frontier:
        new = []
        for h in frontier:
            for row in rows:
                x = tuple((a + b) % n for a, b in zip(h, row))
                if x not in group:
                    group.add(x)
                    new.append(x)
        frontier = new
    return group


def _reduce(v, howell, n):
    v = list(v)
    for col, g, row in howell:
        q = v[col] // g
        v = [(a - q * b) % n for a, b in zip(v, row)]
    return tuple(v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4, 6, 8, 12]).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3).flatmap(lambda c: st.lists(
        st.lists(st.integers(-7, 7), min_size=c, max_size=c),
        min_size=1, max_size=3)))))
def test_howell_reduction_picks_one_vector_per_coset(case):
    # every coset of H, by brute force, reduces to one vector, distinct
    # cosets to distinct vectors, and the counts follow the pivots
    n, rows = case
    c = len(rows[0])
    howell = _howell(rows, n)
    group = _coset_closure([[x % n for x in row] for row in rows], c, n)
    cosets = {}
    for v in product(range(n), repeat=c):
        rep = _reduce(v, howell, n)
        assert all(rep[col] < g for col, g, _ in howell)
        cosets.setdefault(rep, set()).add(v)
    assert len(group) == math.prod(n // g for _, g, _ in howell)
    assert len(cosets) * len(group) == n**c
    for rep, members in cosets.items():
        assert rep in members
        base = next(iter(members))
        assert members == {tuple((a + b) % n for a, b in zip(base, h))
                           for h in group}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda c: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
             max_size=3), st.just(c))))
@example(([[2, -2, 0, 0]], 4))
@example(([[2, -2, 0, 0], [0, 0, 3, -3], [4, 0, -6, 2]], 4))
@example(([], 3))
def test_int_kernel_is_a_saturated_basis(case):
    # k+1 - rank D vectors, each killed by D, whose maximal minors are
    # coprime: they span the whole integer kernel, not a sublattice of it
    rows, ncols = case
    kernel = _int_kernel(rows, ncols)
    assert len(kernel) == ncols - gauss_jordan.rank(rows, ncols)
    assert all(sum(a * b for a, b in zip(row, v)) == 0
               for row in rows for v in kernel)
    if kernel:
        minors = [poly_det([[v[j] for j in cols] for v in kernel])
                  for cols in combinations(range(ncols), len(kernel))]
        assert math.gcd(*minors) == 1


@pytest.mark.parametrize("a, b", [(12, -18), (-12, 18), (-12, -18),
                                  (-4, 6), (0, -5), (-5, 0), (7, 0), (0, 0)])
def test_xgcd_takes_signed_arguments(a, b):
    g, s, t = _xgcd(a, b)
    assert g == math.gcd(a, b)
    assert s * a + t * b == g


def test_claim_09_leaves_numpy_ma_unimported():
    # np.unique without an optional output imports numpy.ma on numpy >= 2,
    # some 15 ms of a cold run; the orbit census groups its supports
    # through return_inverse instead
    code = "\n".join((
        "import sys, numpy",
        "if 'numpy.ma' in sys.modules:",
        "    sys.exit(3)",
        "from comitant.verify import run_verifications",
        "rep = run_verifications(only=['09-quintic-image-fibers'])",
        "print(rep.exit_code, 'numpy.ma' in sys.modules)"))
    src = str(Path(comitant.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    if run.returncode == 3:
        pytest.skip("import numpy loads numpy.ma itself (numpy 1.x)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "False"]
