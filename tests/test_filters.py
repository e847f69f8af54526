import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from jumpscan.filters import (
    BetaJumpFilter,
    JumpPassFilter,
    builtin_wstar,
    construct_beta_filter,
    construct_legendre_filter,
    dump_filter,
    legendre_optimizer_coeffs,
    load_filter,
    moments,
    verify_order,
)

WSTAR_PUBLISHED = (93.99805, -647.59024, 1884.0, -2834.04878, 2136.46829, -632.82732)


def random_poly_filter(rng, degree=6):
    # small random coefficients; not class members, used for numeric checks
    return JumpPassFilter(order_k=1, coeffs=tuple(rng.uniform(-3, 3, degree)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_at_zero_and_outside_support():
    w = builtin_wstar()
    assert w.eval(0.0) == 0.0
    assert w.eval(1.5) == 0.0
    assert w.eval(-2.0) == 0.0


def test_eval_half_matches_direct_sum():
    w = builtin_wstar()
    direct = sum(c * 0.5 ** (j + 1) for j, c in enumerate(w.coeffs))
    assert w.eval(0.5) == pytest.approx(direct, abs=1e-12)
    # and the published-coefficient arithmetic agrees to their rounding
    published = sum(c * 0.5 ** (j + 1) for j, c in enumerate(WSTAR_PUBLISHED))
    assert w.eval(0.5) == pytest.approx(published, abs=1e-5)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_eval_oddness_bitwise(x):
    w = builtin_wstar()
    assert w.eval(-x) == -w.eval(x)


def _horner(w, x):
    """Scalar oracle: Horner's rule on [0, 1], odd extension, zero outside."""
    if x < 0:
        return -_horner(w, -x)
    if x > 1.0:
        return 0.0
    acc = 0.0
    for c in reversed(w.coeffs):
        acc = (acc + c) * x
    return acc


def test_eval_many_matches_scalar():
    xs = np.concatenate([np.linspace(-1.2, 1.2, 20_001), [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]])
    for w in (builtin_wstar(), construct_legendre_filter(4, 12)):
        want = [_horner(w, float(x)) for x in xs]
        assert w.eval_many(xs).tolist() == want
        assert [w.eval(float(x)) for x in xs] == want


# ---------------------------------------------------------------------------
# built-in filter
# ---------------------------------------------------------------------------

def test_wstar_coefficients_match_published():
    w = builtin_wstar()
    for got, want in zip(w.coeffs, WSTAR_PUBLISHED):
        assert got == pytest.approx(want, abs=5e-4)
    assert w.coeffs[2] == pytest.approx(1884.0, abs=5e-4)


def test_wstar_sn():
    assert moments(builtin_wstar()).sn == pytest.approx(0.446, abs=1e-3)


def test_wstar_first_moment_vanishes():
    w = builtin_wstar()
    assert abs(2.0 * w.half_moment(1)) < 1e-10
    # the raw published coefficients carry ~1.4e-6 of rounding residual
    raw = 2 * sum(c / (j + 3) for j, c in enumerate(WSTAR_PUBLISHED))
    assert abs(raw) == pytest.approx(1.43e-6, rel=0.05)


def test_wstar_verify_order_2_passes():
    assert verify_order(builtin_wstar(), 2).ok


def test_wstar_is_not_order_3():
    rep = verify_order(builtin_wstar(), 3)
    assert not rep.ok
    m3 = [c for c in rep.checks if c.name == "moment u=3"][0]
    # frozen from exact rational integration of the coefficients
    assert m3.value == pytest.approx(-0.28540, abs=1e-3)
    assert not m3.passed


def test_haar_like_filter_fails_smoothness():
    # degree-1 ramp: W(x) = 1.5x has W'(1) != 0
    ramp = JumpPassFilter(order_k=1, coeffs=(1.5,))
    rep = verify_order(ramp, 1)
    assert not rep.ok
    assert not [c for c in rep.checks if c.name == "W'(1-)"][0].passed


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_wstar_moment_constants_frozen():
    m = moments(builtin_wstar())
    # frozen from exact rational integration (independent scratch run)
    assert m.u11 == pytest.approx(10.03500, abs=5e-4)
    assert m.w11 == pytest.approx(681.6214, abs=5e-2)
    assert m.w22 == pytest.approx(32.90761, abs=5e-3)
    assert m.f0 == pytest.approx(1.0, abs=1e-12)


def test_moments_cached_and_bitwise_equal():
    w = builtin_wstar()
    beta, _ = construct_beta_filter(2, 50)
    for f in (w, beta):
        first = f.moments()
        assert f.moments() is first
        assert type(f).moments.__wrapped__(f) == first


def test_moments_zero_filter_rejected():
    with pytest.raises(ValueError, match="zero filter"):
        JumpPassFilter(order_k=1, coeffs=(0.0, 0.0))


@pytest.mark.parametrize("seed", range(4))
def test_moments_against_quadrature(seed):
    rng = np.random.default_rng(seed)
    f = random_poly_filter(rng)
    m = moments(f)
    u11_q = 2 * quad(lambda x: f.eval(x) ** 2, 0, 1, limit=200)[0]
    w11_q = 2 * quad(lambda x: f.deriv_at(x) ** 2, 0, 1, limit=200)[0]
    w22_q = 2 * quad(lambda x: (f.deriv_at(x) * x + f.eval(x) / 2) ** 2, 0, 1, limit=200)[0]
    assert m.u11 == pytest.approx(u11_q, abs=1e-9 * (1 + abs(u11_q)))
    assert m.w11 == pytest.approx(w11_q, abs=1e-9 * (1 + abs(w11_q)))
    assert m.w22 == pytest.approx(w22_q, abs=1e-9 * (1 + abs(w22_q)))


def test_moments_quadrature_sweep_100_random_filters():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        f = random_poly_filter(rng, degree=int(rng.integers(2, 9)))
        m = moments(f)
        u11_q = 2 * quad(lambda x: f.eval(x) ** 2, 0, 1, limit=100)[0]
        worst = max(worst, abs(m.u11 - u11_q) / (1 + abs(u11_q)))
    assert worst < 1e-9


@pytest.mark.parametrize("c", [-3.0, 0.1, 7.0])
def test_sn_scale_invariance(c):
    w = builtin_wstar()
    scaled = JumpPassFilter(order_k=2, coeffs=tuple(c * v for v in w.coeffs))
    assert abs(moments(scaled).sn) == pytest.approx(abs(moments(w).sn), rel=1e-12)


def test_sn_bounds_for_low_orders():
    # class bound: SN <= 1/2 for orders 1-2
    assert moments(builtin_wstar()).sn <= 0.5
    assert moments(construct_legendre_filter(2, 6)).sn <= 0.5


# ---------------------------------------------------------------------------
# Legendre optimizer
# ---------------------------------------------------------------------------

def test_legendre_k4_optimizer_reaches_published_limit():
    a = legendre_optimizer_coeffs(4, 200_000)
    assert a[0] == pytest.approx(1.0, abs=1e-10)
    assert a[1] == pytest.approx(-3.0, abs=1e-9)
    assert a[2] == pytest.approx(35.0 / 9.0, abs=1e-8)
    assert a[3] == pytest.approx(7.0 / 9.0, abs=1e-8)


def test_legendre_2_6_filter():
    f = construct_legendre_filter(2, 6)
    assert moments(f).sn >= 0.44
    assert verify_order(f, 2).ok


def test_legendre_requires_enough_basis():
    with pytest.raises(ValueError):
        construct_legendre_filter(2, 3)
    with pytest.raises(ValueError):
        legendre_optimizer_coeffs(3, 50)


def test_legendre_qp_is_sn_optimal_among_random_feasible():
    # sample the feasible set through the constraint null space and check
    # no member beats the KKT solution
    from jumpscan.filters import _legendre_constraints

    N = 6
    C, d = _legendre_constraints(2, N)
    a_opt = legendre_optimizer_coeffs(2, N)
    sn_opt = 1.0 / math.sqrt(np.sum(a_opt**2 / (2 * np.arange(N + 1) + 1)))
    # null-space basis
    _, _, vt = np.linalg.svd(C)
    null = vt[len(C):]
    rng = np.random.default_rng(11)
    for _ in range(1000):
        cand = a_opt + null.T @ rng.normal(0, 2.0, len(null))
        assert np.allclose(C @ cand, d, atol=1e-9)
        sn = cand[0] / math.sqrt(np.sum(cand**2 / (2 * np.arange(N + 1) + 1)))
        assert sn <= sn_opt + 1e-9


# ---------------------------------------------------------------------------
# beta construction
# ---------------------------------------------------------------------------

def test_beta_filter_order2():
    f, rep = construct_beta_filter(2, 50)
    assert rep.ok
    assert verify_order(f, 2).ok


def test_beta_filter_order4_shape_condition():
    f, rep = construct_beta_filter(4, 200)
    fw_check = [c for c in rep.checks if "F_w" in c.name][0]
    assert fw_check.passed
    assert rep.ok


def test_beta_filter_precondition():
    with pytest.raises(ValueError):
        construct_beta_filter(2, 2)
    with pytest.raises(ValueError):
        construct_beta_filter(4, 4)


@pytest.mark.parametrize("q", [30.5, 30.0, "30"])
def test_beta_filter_rejects_non_integer_q(q):
    with pytest.raises(ValueError, match="q must be an integer"):
        construct_beta_filter(2, q)
    with pytest.raises(ValueError, match="q must be an integer"):
        BetaJumpFilter(order_k=2, q=q, corr=(1.0, 2.0))


# u11, w11, w22 of the filters construct_beta_filter returns, from mpmath
# tanh-sinh quadrature at 40 digits of the factored form with the exact
# float values of `corr` (breakpoints at 1/(4q), 1/q, 3/q, 10/q, 1/2;
# unchanged between maxdegree 9 and 12).  mpmath is not a test dependency,
# so the values are hard-coded.
BETA_REFERENCE = {
    (2, 10): (
        "10.24498539037196970623903885307362987340",
        "943.4426302442495920788208978952418643416",
        "23.87413539068692666091160138880448634816",
    ),
    (4, 200): (
        "101.5492731420220897785393371863534246246",
        "4121170.172967552646264097589531812576333",
        "77.46217731681210287080763897540049451108",
    ),
}


@pytest.mark.parametrize("k, q", sorted(BETA_REFERENCE))
def test_beta_moments_against_40_digit_reference(k, q):
    m = construct_beta_filter(k, q)[0].moments()
    for got, ref in zip((m.u11, m.w11, m.w22), BETA_REFERENCE[k, q]):
        assert got == pytest.approx(float(ref), rel=1e-13, abs=0)


def test_beta_filter_oddness_and_support():
    f, _ = construct_beta_filter(2, 30)
    xs = np.linspace(0, 2, 50)
    assert f.eval_many(-xs) == pytest.approx(-f.eval_many(xs), abs=0)
    assert f.eval(1.7) == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_filter_json_roundtrip(tmp_path):
    w = builtin_wstar()
    p = tmp_path / "w.json"
    dump_filter(w, p)
    back = load_filter(p)
    assert back.order_k == w.order_k
    assert back.coeffs == pytest.approx(w.coeffs, abs=0)


@pytest.mark.parametrize("k, q", [(2, 30), (2, 50), (4, 200)])
def test_beta_moments_against_quadrature(k, q):
    f, _ = construct_beta_filter(k, q)
    m = f.moments()
    u11_q = 2 * quad(lambda x: f.eval(x) ** 2, 0, 1, limit=400)[0]
    w11_q = 2 * quad(lambda x: f.deriv_at(x) ** 2, 0, 1, limit=400)[0]
    w22_q = 2 * quad(lambda x: (f.deriv_at(x) * x + f.eval(x) / 2) ** 2, 0, 1, limit=400)[0]
    assert m.u11 == pytest.approx(u11_q, rel=1e-9)
    assert m.w11 == pytest.approx(w11_q, rel=1e-9)
    assert m.w22 == pytest.approx(w22_q, rel=1e-9)
