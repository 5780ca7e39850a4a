import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comitant.fibers import (
    MAX_POINTS,
    FiberCensus,
    FiberError,
    _evaluate,
    _int_terms,
    _residue_dtype,
    check_census,
    fiber_count,
    projective_points,
    sample_report,
)
from comitant.maps import RationalMapP1, hammond_image_polys, quartic_self_map
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
    assert fiber_count([t0**2, t1**2], (4, 1), 7) == 2
    assert fiber_count(RationalMapP1(t0**2, t1**2), (4, 1), 7) == 2


def test_fiber_count_accepts_rational_map():
    m = quartic_self_map()
    census = FiberCensus([m.num, m.den], 101)
    assert census.max_fiber <= m.degree
    assert fiber_count(m, (0, 1), 101) == census.fiber_size((0, 1))


def test_target_validation():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    census = FiberCensus([t0, t1], 7)
    with pytest.raises(FiberError, match="not zero"):
        census.fiber_size((0, 0))
    with pytest.raises(FiberError, match="not zero"):
        census.fiber_size((7, 14))  # zero mod 7


def test_map_shape_guard():
    with pytest.raises(FiberError, match="cannot read"):
        fiber_count(object(), (1, 1), 7)
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
        _evaluate([[((2,), 1)]], 0, 4294967311)
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
        fiber_count([t0, t1], (1, 1), 561)
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
    vals = _evaluate([_int_terms(poly, p) for poly in polys], k, p)
    assert vals.shape == (pts.shape[0], len(polys))
    for row, pt in zip(vals, pts):
        point = [Fp(int(c), p) for c in pt]
        assert [int(v) for v in row] == [poly.evaluate(point).val
                                         for poly in polys]


def test_quintic_image_census():
    # the census behind claim 09: P^3(F_101), 1,040,604 source points
    polys = hammond_image_polys()
    tracemalloc.start()
    try:
        census = FiberCensus(polys, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int32 residues, in-place scaling and a source built after the sort:
    # ~72 MiB, where int64 with every array alive at the sort took 121 MiB
    assert peak < 90 * 2**20
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
