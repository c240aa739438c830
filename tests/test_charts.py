import numpy as np
import pytest
from numpy.testing import assert_allclose

from cehgeom import (
    ChartError,
    ChartPoint,
    DomainError,
    GeometryParams,
    chart_to_quotient,
    fubini_study,
    metric,
    pullback_metric,
    quotient_to_chart,
    radius_sq,
    transition,
    zero_section_restriction,
)
from cehgeom.charts import transition_jacobian

from conftest import chart_jacobian, real_form


def rand_chart_point(rng, n, allow_zero=False):
    z = rng.normal() + 1j * rng.normal()
    if allow_zero and rng.random() < 0.3:
        z = 0.0
    zeta = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return ChartPoint(i=int(rng.integers(1, n + 1)), z=z, zeta=zeta)


# --- chart maps ---------------------------------------------------------------

def test_blow_down_fiber_over_origin(params2):
    p = ChartPoint(i=1, z=1.0, zeta=np.array([0.0j]))
    assert_allclose(chart_to_quotient(p, params2), np.array([1.0, 0.0]), atol=0)


def test_blow_down_hand_example(params2):
    p = ChartPoint(i=1, z=4.0, zeta=np.array([1.0 + 0j]))
    assert_allclose(chart_to_quotient(p, params2), np.array([2.0, 2.0]), atol=1e-15)


def test_blow_down_rejects_zero_section(params2):
    with pytest.raises(ChartError):
        chart_to_quotient(ChartPoint(i=1, z=0.0, zeta=np.array([1.0j])), params2)


def test_chart_coordinates_hand_example():
    p = quotient_to_chart(np.array([2.0, 2.0]), 1)
    assert p.z == pytest.approx(4.0, abs=1e-15)
    assert_allclose(p.zeta, [1.0], atol=1e-15)


def test_chart_coordinates_deck_invariant():
    # both lifts of the same mu_2 orbit give identical chart data
    a = quotient_to_chart(np.array([1.0, 3.0]), 1)
    b = quotient_to_chart(np.array([-1.0, -3.0]), 1)
    assert a.z == pytest.approx(b.z, abs=1e-15)
    assert_allclose(a.zeta, b.zeta, atol=1e-15)


def test_chart_coverage():
    w = np.array([0.0, 1.0])
    with pytest.raises(ChartError):
        quotient_to_chart(w, 1)
    p = quotient_to_chart(w, 2)
    assert p.i == 2 and p.z == pytest.approx(1.0)


def test_round_trip_quotient_chart(params3, rng):
    for _ in range(10):
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        i = int(rng.integers(1, 4))
        p = quotient_to_chart(w, i)
        w2 = chart_to_quotient(p, params3)
        # lifts agree up to a deck phase; chart data agrees exactly
        ratios = w2 / w
        assert np.abs(np.abs(ratios) - 1.0).max() < 1e-12
        assert np.abs(ratios - ratios[0]).max() < 1e-12
        assert ratios[0] ** params3.n == pytest.approx(1.0, abs=1e-12)
        p2 = quotient_to_chart(w2, i)
        assert p2.z == pytest.approx(p.z, rel=1e-12)
        assert_allclose(p2.zeta, p.zeta, atol=1e-12)


def test_round_trip_chart_quotient(params2, rng):
    for _ in range(10):
        p = rand_chart_point(rng, 2)
        q = quotient_to_chart(chart_to_quotient(p, params2), p.i)
        assert q.z == pytest.approx(p.z, rel=1e-12, abs=1e-14)
        assert_allclose(q.zeta, p.zeta, atol=1e-12)


# --- transitions ---------------------------------------------------------------

def test_transition_symmetric_point():
    p = ChartPoint(i=1, z=1.0, zeta=np.array([1.0 + 0j]))
    q = transition(p, 2)
    assert q.i == 2
    assert q.z == pytest.approx(1.0, abs=1e-15)
    assert_allclose(q.zeta, [1.0], atol=1e-15)


def test_transition_hand_example():
    # w = (2, 1): slot-2 chart has z' = 1, zeta' = (2)
    p = ChartPoint(i=1, z=4.0, zeta=np.array([0.5 + 0j]))
    q = transition(p, 2)
    assert q.z == pytest.approx(1.0, abs=1e-15)
    assert_allclose(q.zeta, [2.0], atol=1e-15)


def test_transition_round_trip(params3, rng):
    for _ in range(10):
        p = rand_chart_point(rng, 3, allow_zero=True)
        j = int(rng.integers(1, 4))
        if j != p.i and p.zeta[p.slots.index(j)] == 0:
            continue
        q = transition(transition(p, j), p.i)
        assert q.z == pytest.approx(p.z, rel=1e-12, abs=1e-14)
        assert_allclose(q.zeta, p.zeta, atol=1e-12)


def test_transition_rejects_missing_overlap():
    p = ChartPoint(i=1, z=1.0, zeta=np.array([0.0j, 2.0 + 0j]))
    with pytest.raises(ChartError):
        transition(p, 2)


def test_transition_cocycle_at_a_huge_target_slot():
    # n = 8, a zero-section point whose slot 3 is 1e40 in chart 1: w_3^8 is
    # 1e320, yet z' = 0 exactly; where the cocycle is needed and overflows
    # (the Jacobian's fiber row, or z != 0) it is a ChartError, not inf/nan
    zeta = np.zeros(7, dtype=complex)
    zeta[1] = 1e40
    q = transition(ChartPoint(i=1, z=0.0, zeta=zeta), 3)
    assert q.i == 3 and q.z == 0
    assert_allclose(q.zeta, [1e-40, 0, 0, 0, 0, 0, 0], rtol=1e-15)
    with pytest.raises(ChartError, match="overflows"):
        transition_jacobian(ChartPoint(i=1, z=0.0, zeta=zeta), 3)
    with pytest.raises(ChartError, match="overflows"):
        transition(ChartPoint(i=1, z=1.0, zeta=zeta), 3)
    # w_3^8 overflows but z w_3^8 does not: z' = 1e-300 * 1e320 = 1e20
    q = transition(ChartPoint(i=1, z=1e-300, zeta=zeta), 3)
    assert q.z == pytest.approx(1e20, rel=1e-15)
    # and it is the product's form where that is finite, times 2^(-1000 + 8*140)
    zeta[1] = 0.6 + 0.8j
    ref = transition(ChartPoint(i=1, z=1.0, zeta=zeta), 3).z
    zeta[1] *= 2.0**140
    q = transition(ChartPoint(i=1, z=2.0**-1000, zeta=zeta), 3)
    assert q.z == 2.0**120 * ref


def test_transition_refuses_coordinates_it_cannot_write():
    # slot 2 is 1e-300 in chart 1: in chart 2 the base ratio 1e300/1e-300
    # overflows, and a fiber z w_j^n = 1e-300 * 1e-600 underflows to 0,
    # which would put a point off the zero section onto it
    with pytest.raises(ChartError, match="not in chart 2: its coordinates overflow"):
        transition(ChartPoint(i=1, z=0.5, zeta=np.array([1e-300, 1e300])), 2)
    with pytest.raises(ChartError, match="fiber cocycle underflows into chart 2"):
        transition(ChartPoint(i=1, z=1e-300, zeta=np.array([1e-300])), 2)
    with pytest.raises(ChartError, match="fiber cocycle underflows into chart 2"):
        transition_jacobian(ChartPoint(i=1, z=1.0, zeta=np.array([1e-110, 0.5])), 2)
    # a zero-section point stays exactly on it, and a tiny factor w_j^k
    # with a huge fiber is scaled, not rounded to 0: 1e300 * (1e-200)^2
    q = transition(ChartPoint(i=1, z=0.0, zeta=np.array([1e-300])), 2)
    assert q.z == 0 and q.zeta[0] == pytest.approx(1e300, rel=1e-15)
    q = transition(ChartPoint(i=1, z=1e300, zeta=np.array([1e-200])), 2)
    assert q.z == pytest.approx(1e-100, rel=1e-14)


def test_quotient_to_chart_through_the_base_map(rng):
    # the same zeta as the per-slot quotient w_k / w_i, to the bit, and a
    # ChartError where that quotient overflows or w_i^n underflows
    for _ in range(200):
        n = int(rng.integers(2, 6))
        w = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3, n)
        i = int(rng.integers(1, n + 1))
        p = quotient_to_chart(w, i)
        ref = np.array([w[k] / w[i - 1] for k in range(n) if k != i - 1])
        assert p.zeta.tobytes() == ref.tobytes()
        assert p.z == w[i - 1] ** n
    with pytest.raises(ChartError, match="not in chart 1: its coordinates overflow"):
        quotient_to_chart(np.array([1e-300, 1e100]), 1)
    with pytest.raises(ChartError, match="fiber cocycle underflows into chart 1"):
        quotient_to_chart(np.array([1e-120, 1e-120, 1e-120]), 1)
    # a lift whose |z|^2 overflows is no point, in any chart
    with pytest.raises(DomainError, match=r"\|z\|\^2 overflows"):
        quotient_to_chart(np.array([1e-300, 1e300]), 1)


def test_transition_agrees_with_quotient_route(params2, rng):
    for _ in range(10):
        p = rand_chart_point(rng, 2)
        if p.zeta[0] == 0:
            continue
        j = 2 if p.i == 1 else 1
        q_direct = transition(p, j)
        q_via = quotient_to_chart(chart_to_quotient(p, params2), j)
        assert q_direct.z == pytest.approx(q_via.z, rel=1e-12)
        assert_allclose(q_direct.zeta, q_via.zeta, atol=1e-12)


# --- pullback metric -----------------------------------------------------------

def test_pullback_zero_section_blocks():
    for n, a in ((2, 1.0), (3, 2.0), (4, 0.7)):
        p = GeometryParams(n, a)
        pt = ChartPoint(i=1, z=0.0, zeta=np.zeros(n - 1, dtype=complex))
        pb = pullback_metric(pt, p)
        assert pb.block_zz == pytest.approx(1.0 / (a ** (n - 1) * n**2), rel=1e-14)
        assert np.abs(pb.block_zzeta).max() == 0.0
        assert_allclose(pb.block_zetazeta, a * np.eye(n - 1), atol=1e-14)


def test_pullback_zero_section_fiber_value(params2):
    pt = ChartPoint(i=1, z=0.0, zeta=np.array([0.0j]))
    assert pullback_metric(pt, params2).block_zz == pytest.approx(0.25, abs=1e-15)


def test_pullback_mixed_block_vanishes_on_zero_section(params3, rng):
    for _ in range(5):
        zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
        pb = pullback_metric(ChartPoint(i=2, z=0.0, zeta=zeta), params3)
        assert np.abs(pb.block_zzeta).max() == 0.0


def test_pullback_matches_transported_metric(params3, rng):
    for _ in range(20):
        p = rand_chart_point(rng, 3)
        w = chart_to_quotient(p, params3)
        jac = chart_jacobian(p, params3)
        transported = np.einsum("mA,mn,nB->AB", jac, metric(w, params3), np.conj(jac))
        assert np.abs(pullback_metric(p, params3).matrix() - transported).max() < 1e-10


def test_pullback_positive_definite_including_zero_section(params2, rng):
    for _ in range(20):
        p = rand_chart_point(rng, 2, allow_zero=True)
        h = pullback_metric(p, params2).matrix()
        assert np.linalg.eigvalsh(h).min() > 0
        r = real_form(h)
        assert_allclose(r, r.T, atol=1e-15)
        assert np.linalg.eigvalsh(r).min() > 0


@pytest.mark.parametrize("n, z", [(2, 1e160), (2, 1e300), (3, 1e200), (4, 1e200)])
def test_pullback_far_from_the_zero_section_keeps_its_determinant(n, z):
    # |z|^2 overflows alone, P |z|^2 does not: det is 1/n^2 as near z = 0
    pt = ChartPoint(i=1, z=z, zeta=np.zeros(n - 1, dtype=complex))
    h = pullback_metric(pt, GeometryParams(n, 1.0)).matrix()
    assert np.isfinite(h).all()
    assert abs(np.linalg.det(h).real * n**2 - 1.0) <= 1e-12


@pytest.mark.parametrize("pt, params, match", [
    # the fiber block P (1+|zeta|^2)/n^2 underflows to 0 (about 1e-402) or
    # to a subnormal, where the metric is singular or loses its digits
    (ChartPoint(i=1, z=3e300, zeta=np.zeros(2)), GeometryParams(3, 1.0), "fiber block 0.0"),
    (ChartPoint(i=1, z=1e250, zeta=np.zeros(3)), GeometryParams(4, 1.0), "fiber block 0.0"),
    (ChartPoint(i=1, z=1e235, zeta=np.zeros(2)), GeometryParams(3, 1.0), "normal double range"),
    # u/a overflows: the metric read all zeros before the refusal
    (ChartPoint(i=1, z=1e150, zeta=[0]), GeometryParams(2, 1e-300), "u/a overflows"),
])
def test_pullback_refuses_where_its_blocks_leave_the_double_range(pt, params, match):
    with pytest.raises(DomainError, match=match):
        pullback_metric(pt, params)


def test_pullback_radius_consistency(params3, rng):
    for _ in range(10):
        p = rand_chart_point(rng, 3)
        assert p.radius_sq() == pytest.approx(
            radius_sq(chart_to_quotient(p, params3)), rel=1e-12
        )


def test_pullback_chart_compatibility(params3, rng):
    # chart-i blocks equal the Jacobian-transported chart-j blocks on overlap
    for _ in range(10):
        p = rand_chart_point(rng, 3, allow_zero=True)
        q_slots = [j for j in range(1, 4) if j != p.i]
        j = q_slots[int(rng.integers(0, 2))]
        if p.zeta[p.slots.index(j)] == 0:
            continue
        q = transition(p, j)
        jac = transition_jacobian(p, j)
        h_i = pullback_metric(p, params3).matrix()
        h_j = pullback_metric(q, params3).matrix()
        transported = np.einsum("mA,mn,nB->AB", jac, h_j, np.conj(jac))
        assert np.abs(h_i - transported).max() < 1e-10


def test_real_form_ordering(params2):
    # interleaved (Re z, Im z, Re zeta, Im zeta) with the Hermitian pairing
    pt = ChartPoint(i=1, z=0.3 + 0.4j, zeta=np.array([0.2 - 0.1j]))
    pb = pullback_metric(pt, params2)
    h = pb.matrix()
    r = real_form(h)
    v = np.array([1.0 + 2.0j, -0.7 + 0.3j])
    vr = np.array([v[0].real, v[0].imag, v[1].real, v[1].imag])
    assert vr @ r @ vr == pytest.approx(np.einsum("a,ab,b->", v, h, np.conj(v)).real,
                                        rel=1e-13)


# --- zero section restriction ---------------------------------------------------

def test_zero_section_origin(params3):
    assert_allclose(
        zero_section_restriction(np.zeros(2, dtype=complex), params3),
        params3.a * np.eye(2),
        atol=0,
    )


def test_zero_section_scalar_value():
    p = GeometryParams(2, 3.0)
    assert zero_section_restriction(np.array([0.0j]), p)[0, 0] == pytest.approx(3.0)


def test_zero_section_matches_pullback_base_block(params3, rng):
    for _ in range(10):
        zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
        pb = pullback_metric(ChartPoint(i=1, z=0.0, zeta=zeta), params3)
        assert np.abs(
            pb.block_zetazeta - zero_section_restriction(zeta, params3)
        ).max() < 1e-14
        assert pb.fs_scale == pytest.approx(params3.a, rel=1e-15)


def test_zero_section_is_scaled_fubini_study(params2, rng):
    zeta = rng.normal(size=1) + 1j * rng.normal(size=1)
    assert_allclose(
        zero_section_restriction(zeta, params2),
        params2.a * fubini_study(zeta),
        atol=0,
    )
