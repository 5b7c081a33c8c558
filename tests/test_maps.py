import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow.maps import (
    EquationKind,
    IDENTITY_SNAPSHOT,
    MapParams,
    MapSnapshot,
    SingularRateError,
    TclRates,
    apply_map,
    parse_kind,
    rate_divergence_time,
    snapshot,
    snapshot_arrays,
    tcl_rate_arrays,
    tcl_rates,
    xi,
    xi_derivative,
    xi_envelope,
    _Channel,
    _channels,
)
from spinflow.states import EXCITED, GROUND, MAXIMALLY_MIXED, QubitState

KINDS = ("mem", "post")


# ---------------------------------------------------------------- parameters


def test_parse_kind_aliases():
    assert parse_kind("mem") is EquationKind.MEMORY_KERNEL
    assert parse_kind("memory") is EquationKind.MEMORY_KERNEL
    assert parse_kind("post") is EquationKind.POST_MARKOVIAN
    assert parse_kind(EquationKind.POST_MARKOVIAN) is EquationKind.POST_MARKOVIAN
    with pytest.raises(ValueError, match="bogus"):
        parse_kind("bogus")


def test_params_ratio_and_validation():
    p = MapParams(gamma0=0.5, gamma=2.0, n_occ=1.0)
    assert p.R == pytest.approx(0.5 * 3.0 / 2.0)
    assert MapParams.from_ratio(0.3, 2.0).R == pytest.approx(0.3)
    with pytest.raises(ValueError):
        MapParams(gamma0=-0.1)
    with pytest.raises(ValueError):
        MapParams(gamma0=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        MapParams(gamma0=1.0, n_occ=-1.0)
    with pytest.raises(ValueError):
        MapParams.from_ratio(-0.1)
    # rejected as an occupation before 2N + 1 divides R (zero at N = -1/2)
    for n in (-0.5, -1.0):
        with pytest.raises(ValueError, match="n_occ"):
            MapParams.from_ratio(0.2, n)
    with pytest.raises(ValueError, match="overflows"):
        MapParams(gamma0=1e308, gamma=1e-10)
    # R itself is finite, but 4R (mem) or (R + 1)**2 (post) is not
    for r in (1e200, 1e308):
        with pytest.raises(ValueError, match="overflows"):
            MapParams.from_ratio(r)
    assert MapParams.from_ratio(1e150).R == 1e150
    # a coupling > 0 whose R underflows would be the identity map; R = 0 is that map
    with pytest.raises(ValueError, match="underflows"):
        MapParams(gamma0=1e-320, gamma=1e10)
    with pytest.raises(ValueError, match="underflows"):
        MapParams.from_ratio(5e-324, 1.0)
    assert MapParams.from_ratio(0.0, 1.0).R == MapParams(gamma0=0.0).R == 0.0
    assert MapParams.from_ratio(5e-324).R == 5e-324


def test_physical_regime_flag():
    assert MapParams.from_ratio(0.25).physical_for("mem")
    assert not MapParams.from_ratio(0.2501).physical_for("mem")
    assert MapParams.from_ratio(50.0).physical_for("post")


# ------------------------------------------------------------------ xi core


def test_identity_at_zero_exact():
    for kind in KINDS:
        for r in np.logspace(-3, 1.5, 20):
            assert xi(kind, float(r), 0.0) == 1.0
            assert xi_derivative(kind, float(r), 0.0) == 0.0
            snap = snapshot(kind, MapParams.from_ratio(float(r), 1.0), 0.0)
            assert (snap.lambda1, snap.lambda3, snap.t3) == (1.0, 1.0, 0.0)


def test_xi_oracle_values():
    # frozen against an independent integration of the scalar defining ODEs
    assert xi("mem", 0.1, 1.0) == pytest.approx(0.96349596128040, abs=1e-12)
    assert xi("mem", 0.2, 5.0) == pytest.approx(0.38967796711728, abs=1e-11)
    assert xi("mem", 0.1, 5.0) == pytest.approx(0.65030454828205, abs=1e-11)
    assert xi("post", 0.3, 2.5) == pytest.approx(0.63963007593402, abs=1e-11)
    assert xi("mem", 0.5, 3.0) == pytest.approx(0.23835481924467, abs=1e-11)
    assert xi_derivative("mem", 0.1, 1.0) == pytest.approx(-0.062180805771031, abs=1e-11)


def test_post_closed_form_direct():
    taus = np.linspace(0.0, 30.0, 400)
    for r in (0.05, 0.3, 0.9, 1.5, 6.0):
        expect = (np.exp(-r * taus) - r * np.exp(-taus)) / (1.0 - r)
        np.testing.assert_allclose(xi("post", r, taus), expect, rtol=1e-12, atol=1e-14)


def test_degenerate_branch_values():
    taus = np.linspace(0.0, 10.0, 50)
    # memory kernel at 4R = 1 and the dressed kernel at r = 1 share the form
    np.testing.assert_allclose(
        xi("mem", 0.25, taus), (1.0 + 0.5 * taus) * np.exp(-0.5 * taus), rtol=1e-14
    )
    np.testing.assert_allclose(
        xi("post", 1.0, taus), (1.0 + taus) * np.exp(-taus), rtol=1e-14
    )


def test_trigonometric_branch_direct():
    # 4R = 2 gives q = 1: e^{-tau/2}(sin(tau/2) + cos(tau/2))
    taus = np.linspace(0.0, 20.0, 300)
    expect = np.exp(-0.5 * taus) * (np.sin(0.5 * taus) + np.cos(0.5 * taus))
    np.testing.assert_allclose(xi("mem", 0.5, taus), expect, rtol=0, atol=1e-14)


def test_branch_continuity_across_branch_point():
    # sweep r across w**2 = 0 at fixed tau, through the limit form at the
    # pivot itself; a mismatch between the forms would show up as a kink in
    # the second differences
    for kind, pivot in (("mem", 0.25), ("post", 1.0)):
        offsets = np.arange(-40, 41) * 5e-7  # -2e-5 .. 2e-5, and 0 exactly
        for tau in (0.3, 2.0, 9.0):
            vals = np.array([xi(kind, pivot * (1.0 + d), tau) for d in offsets])
            assert np.max(np.abs(np.diff(vals, n=2))) < 1e-11
            exact = xi(kind, pivot, tau)
            for d in (-1e-13, 1e-13):
                assert abs(exact - xi(kind, pivot * (1.0 + d), tau)) < 1e-10


def test_derivative_against_central_differences(rng):
    # 1e-9 floor absorbs the finite-difference quotient's own roundoff noise
    h = 1e-6
    for _ in range(1000):
        kind = KINDS[int(rng.integers(2))]
        r = float(rng.uniform(0.0, 3.0))
        tau = float(rng.uniform(h, 25.0))
        fd = (xi(kind, r, tau + h) - xi(kind, r, tau - h)) / (2.0 * h)
        assert xi_derivative(kind, r, tau) == pytest.approx(fd, rel=1e-8, abs=1e-9)


def test_scalar_array_agreement():
    taus = np.array([0.0, 0.7, 3.0, 14.0])
    for kind in KINDS:
        for r in (0.0, 0.1, 0.25, 0.8):
            arr = xi(kind, r, taus)
            d_arr = xi_derivative(kind, r, taus)
            for k, tau in enumerate(taus):
                assert arr[k] == xi(kind, r, float(tau))
                assert d_arr[k] == xi_derivative(kind, r, float(tau))


def test_frozen_dynamics_at_zero_ratio():
    taus = np.linspace(0.0, 50.0, 101)
    for kind in KINDS:
        np.testing.assert_array_equal(xi(kind, 0.0, taus), np.ones_like(taus))
        np.testing.assert_array_equal(xi_derivative(kind, 0.0, taus), np.zeros_like(taus))


def test_argument_validation():
    for func in (xi, xi_derivative, xi_envelope):
        with pytest.raises(ValueError):
            func("mem", -0.1, 1.0)
        with pytest.raises(ValueError):
            func("mem", 0.1, -1.0)
        with pytest.raises(ValueError):
            func("mem", float("nan"), 1.0)


#: rate at the branch point w = 0, and d(branch distance)/dr there
BRANCH_RATE = {"mem": (0.25, 4.0), "post": (1.0, 1.0)}


def _regime(channel: _Channel) -> str:
    if channel.w2 == 0.0:
        return "limit"
    return "oscillatory" if channel.w2 < 0.0 else "hyperbolic"


@st.composite
def kind_regime_rate(draw):
    kind = draw(st.sampled_from(KINDS))
    regimes = ["hyperbolic", "limit"] + (["oscillatory"] if kind == "mem" else [])
    regime = draw(st.sampled_from(regimes))
    branch, slope = BRANCH_RATE[kind]
    if regime == "limit":
        r = branch
    elif draw(st.booleans()):
        # within 1e-6 of the branch point (and at least 1e-15 from it, so
        # that r is not the branch rate itself); for mem the side sets the regime
        dist = draw(st.floats(-15.0, -6.0).map(lambda e: 10.0**e))
        if kind == "mem":
            sign = 1.0 if regime == "oscillatory" else -1.0
        else:
            sign = draw(st.sampled_from((-1.0, 1.0)))
        r = branch + sign * dist / slope
    elif regime == "hyperbolic":
        r = draw(st.floats(0.0, 0.24) if kind == "mem" else st.one_of(
            st.floats(0.0, 0.9), st.floats(1.1, 50.0)))
    else:
        r = draw(st.floats(0.26, 20.0))
    return kind, regime, r


@settings(max_examples=200, deadline=None)
@given(
    krr=kind_regime_rate(),
    tau=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
    taus=st.lists(st.floats(0.0, 200.0), max_size=20),
)
def test_channel_core_equals_public_xi(krr, tau, taus):
    kind, regime, r = krr
    core = _Channel(parse_kind(kind), r)
    assert _regime(core) == regime
    value, derivative = core.value(tau), core.derivative(tau)
    assert type(value) is float and type(derivative) is float
    assert value == xi(kind, r, tau)
    assert derivative == xi_derivative(kind, r, tau)
    grid = np.array([0.0, *taus])
    assert np.array_equal(core.value(grid), xi(kind, r, grid))
    assert np.array_equal(core.derivative(grid), xi_derivative(kind, r, grid))
    full, half = _channels(parse_kind(kind), r)
    assert np.array_equal(full.value(grid), xi(kind, r, grid))
    assert np.array_equal(half.derivative(grid), xi_derivative(kind, 0.5 * r, grid))


def test_profile_bounded_and_monotone_in_physical_regime():
    taus = np.linspace(0.0, 50.0, 10001)
    for kind, rs in (("mem", (0.01, 0.1, 0.2, 0.25)), ("post", (0.01, 0.3, 1.0, 4.0, 40.0))):
        for r in rs:
            values = xi(kind, r, taus)
            assert np.all(values >= -1e-15)
            assert np.all(values <= 1.0)
            assert np.all(np.diff(values) <= 1e-15)
            assert np.all(xi_derivative(kind, r, taus) <= 0.0)


def test_envelope_dominates_everywhere():
    taus = np.linspace(0.0, 60.0, 2000)
    for kind, rs in (("mem", (0.05, 0.25, 0.5, 2.0)), ("post", (0.05, 1.0, 10.0))):
        for r in rs:
            margin = xi_envelope(kind, r, taus) - np.abs(xi(kind, r, taus))
            assert np.all(margin >= -1e-12)


def test_trig_regime_oscillates():
    taus = np.linspace(0.0, 30.0, 3000)
    values = xi("mem", 1.0, taus)
    assert values.min() < -1e-3
    assert np.any(np.diff(np.sign(values[1:])) != 0)


def test_markovian_limit_small_ratio():
    taus = np.linspace(0.0, 5.0, 500)
    for kind in KINDS:
        dev = np.max(np.abs(xi(kind, 1e-3, taus) - np.exp(-1e-3 * taus)))
        assert dev < 1e-2


def test_kernel_variants_converge_together():
    taus = np.linspace(0.0, 5.0, 500)
    devs = [
        np.max(np.abs(xi("post", r, taus) - xi("mem", r, taus)))
        for r in (0.05, 0.02, 0.01, 0.005)
    ]
    assert devs[2] <= 5e-2
    assert all(a > b for a, b in zip(devs, devs[1:]))


# ----------------------------------------------------------------- snapshot


def test_snapshot_structure():
    p = MapParams.from_ratio(0.2, 1.0)
    for kind in KINDS:
        snap = snapshot(kind, p, 3.0)
        assert snap.lambda3 == xi(kind, 0.2, 3.0)
        assert snap.lambda1 == xi(kind, 0.1, 3.0)
        assert snap.t3 == pytest.approx((snap.lambda3 - 1.0) / 3.0, abs=1e-16)
        assert snap.u - snap.v == pytest.approx(snap.lambda3, abs=1e-15)
        assert snap.u + snap.v == pytest.approx(1.0 + snap.t3, abs=1e-15)


def test_snapshot_arrays_match_scalar():
    p = MapParams.from_ratio(0.13, 2.5)
    taus = np.linspace(0.0, 12.0, 7)
    for kind in KINDS:
        lam1, lam3, t3 = snapshot_arrays(kind, p, taus)
        for k, tau in enumerate(taus):
            snap = snapshot(kind, p, float(tau))
            assert (lam1[k], lam3[k], t3[k]) == (snap.lambda1, snap.lambda3, snap.t3)


def test_apply_map_basics():
    out = apply_map(IDENTITY_SNAPSHOT, QubitState(0.3, 0.1 + 0.2j))
    assert out == QubitState(0.3, 0.1 + 0.2j)

    p = MapParams.from_ratio(0.1, 1.0)
    snap = snapshot("mem", p, 1.0)
    assert apply_map(snap, EXCITED).population_e == pytest.approx(snap.u, abs=0.0)
    assert apply_map(snap, GROUND).population_e == pytest.approx(snap.v, abs=0.0)
    # frozen oracle value for the stationary-population pull at this point
    mixed = apply_map(snap, MAXIMALLY_MIXED)
    assert mixed.population_e == pytest.approx(0.4939159935467335, abs=1e-12)
    assert mixed.coherence == 0.0


def test_apply_map_preserves_validity_in_physical_regime(rng):
    from spinflow.states import random_states

    for kind in KINDS:
        p = MapParams.from_ratio(0.24, 0.7)
        for tau in (0.0, 0.5, 4.0, 18.0):
            snap = snapshot(kind, p, tau)
            for s in random_states(rng, 20):
                assert apply_map(snap, s).is_valid(1e-12)


# -------------------------------------------------------------------- rates


def test_rate_components_share_profile_ratio():
    p = MapParams.from_ratio(0.2, 3.0)
    for kind in KINDS:
        rates = tcl_rates(kind, p, 2.0)
        assert rates.gamma2 / rates.gamma1 == pytest.approx(3.0 / 4.0, rel=1e-14)


def test_coherence_rate_identity():
    # (gamma1 + gamma2)/2 + 2 gamma3 must equal the half-ratio decay rate
    p = MapParams.from_ratio(0.22, 1.4)
    taus = np.linspace(0.1, 15.0, 40)
    for kind in KINDS:
        g1, g2, g3 = tcl_rate_arrays(kind, p, taus)
        combined = 0.5 * (g1 + g2) + 2.0 * g3
        x = xi(kind, 0.11, taus)
        d = xi_derivative(kind, 0.11, taus)
        np.testing.assert_allclose(combined, -p.gamma * d / x, rtol=1e-10, atol=1e-14)


def test_rate_signs():
    taus = np.linspace(0.02, 20.0, 500)
    p = MapParams.from_ratio(0.2, 1.0)
    g1, g2, g3 = tcl_rate_arrays("mem", p, taus)
    assert np.all(g1 > 0.0) and np.all(g2 > 0.0) and np.all(g3 < 0.0)
    g1, g2, g3 = tcl_rate_arrays("post", p, taus)
    assert np.all(g1 > 0.0) and np.all(g2 > 0.0)
    assert np.all(g3 >= 0.0) and g3.max() > 0.0


def test_small_time_gamma3_scaling():
    # leading behavior ~ -R^2 tau^3 / 24 for the convolution kernel
    p = MapParams.from_ratio(0.1, 1.0)
    for tau in (1e-3, 2e-3):
        g3 = tcl_rates("mem", p, tau).gamma3
        assert g3 == pytest.approx(-0.1**2 * tau**3 / 24.0, rel=5e-3)


def test_rate_divergence_time():
    assert rate_divergence_time("mem", MapParams.from_ratio(0.2, 1.0)) == math.inf
    assert rate_divergence_time("post", MapParams.from_ratio(5.0, 1.0)) == math.inf
    p = MapParams.from_ratio(0.5, 1.0)
    tstar = rate_divergence_time("mem", p)
    # first zero of the decay profile: q = 1 gives 2(pi - atan 1) = 3 pi / 2
    assert tstar == pytest.approx(1.5 * math.pi, rel=1e-12)
    assert xi("mem", 0.5, tstar) == pytest.approx(0.0, abs=1e-12)
    assert xi("mem", 0.5, tstar - 1e-3) > 0.0


def test_singular_rate_error():
    p = MapParams.from_ratio(0.5, 1.0)
    with pytest.raises(SingularRateError, match="4.71238898"):
        tcl_rates("mem", p, 5.0)
    with pytest.raises(SingularRateError, match="diverge"):
        tcl_rate_arrays("mem", p, np.linspace(0.0, 10.0, 11))
    # below the horizon everything is finite
    rates = tcl_rates("mem", p, 4.0)
    assert math.isfinite(rates.gamma1)


def _asymptotic_log_slope(kind, r):
    """lim xi'/xi: minus the slower decay rate of the profile."""
    if kind == "mem":
        return -0.5 * (1.0 - math.sqrt(1.0 - 4.0 * r))
    return -min(r, 1.0)


@pytest.mark.filterwarnings("error")
def test_rates_finite_past_underflow_of_xi():
    # xi(0.2) underflows to 0 near tau = 2700 (mem) and 3700 (post), xi(0.1) near 6600 and 7500
    taus = np.linspace(0.0, 1e4, 2001)
    late = taus >= 100.0
    for kind in KINDS:
        p = MapParams.from_ratio(0.2, 1.0)
        assert xi(kind, 0.2, 1e4) == 0.0
        g1, g2, g3 = tcl_rate_arrays(kind, p, taus)
        assert np.all(np.isfinite(g1) & np.isfinite(g2) & np.isfinite(g3))
        full, half = _asymptotic_log_slope(kind, 0.2), _asymptotic_log_slope(kind, 0.1)
        np.testing.assert_allclose(g1[late], -2.0 / 3.0 * full, rtol=1e-12)
        np.testing.assert_allclose(g2[late], -1.0 / 3.0 * full, rtol=1e-12)
        np.testing.assert_allclose(g3[late], 0.5 * (0.5 * full - half), rtol=0.0, atol=1e-15)
        assert tcl_rates(kind, p, 1e4) == TclRates(g1[-1], g2[-1], g3[-1])
    # near the branch point the oscillatory profile underflows before its first zero
    p = MapParams.from_ratio(0.250001, 0.0)
    assert xi("mem", 0.250001, 3000.0) == 0.0
    rates = tcl_rate_arrays("mem", p, np.linspace(0.0, 3000.0, 301))
    assert all(np.all(np.isfinite(g)) for g in rates)


@pytest.mark.parametrize(
    "kind,r,taus,full",
    [
        # xi(1e-20) ~ 1e-300 is normal there, but xi' ~ 1e-320 is subnormal
        ("mem", 1e-20, np.linspace(6.9e22, 6.95e22, 51), -1e-20),
        # the unscaled xi' of the dressed kernel at R = 1e150 is subnormal,
        # though xi ~ e**-tau and the scaled xi' are not
        ("post", 1e150, np.linspace(380.0, 400.0, 41), -1.0),
    ],
)
def test_rates_exact_where_the_derivative_is_subnormal(kind, r, taus, full):
    p = MapParams.from_ratio(r, 0.0)
    g1, g2, g3 = tcl_rate_arrays(kind, p, taus)
    # both channels decay at their slow rate: r (r / 2) for mem, 1 for post
    half = 0.5 * full if kind == "mem" else full
    np.testing.assert_allclose((g1 + g2) / p.gamma, -full, rtol=1e-12)
    np.testing.assert_allclose(g3 / p.gamma, 0.5 * (0.5 * full - half), rtol=0.0, atol=1e-15)
    assert tcl_rates(kind, p, taus[-1]) == TclRates(g1[-1], g2[-1], g3[-1])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    r=st.one_of(
        st.sampled_from([0.0, 1e-20, 0.2, 0.25, 0.5, 1.0, 3.0, 1e150]),
        st.floats(min_value=1e-300, max_value=1e6),
    ),
    n=st.floats(min_value=0.0, max_value=10.0),
    # xi leaves the normal floats from tau ~ 700 on, xi' at R = 1e-20 near 7e22
    span=st.sampled_from([1.0, 50.0, 800.0, 8000.0, 7e22, 1e300]),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_scalar_rates_equal_their_row_of_the_array_rates(kind, r, n, span, fractions):
    p = MapParams.from_ratio(r, n)
    horizon = rate_divergence_time(kind, p)
    taus = [t for t in (f * span for f in fractions) if t < horizon]
    if not taus:
        taus = [0.0]
    rows = np.transpose(tcl_rate_arrays(kind, p, np.array(taus)))
    for tau, row in zip(taus, rows):
        rates = tcl_rates(kind, p, tau)
        scalar = (rates.gamma1, rates.gamma2, rates.gamma3)
        assert [x.hex() for x in scalar] == [float(x).hex() for x in row], tau


@pytest.mark.parametrize(
    "kind,r,tau_end",
    [
        ("mem", 0.25, 50.0),  # w**2 = 0 limit
        ("mem", 0.25 + 1e-8, 50.0),  # oscillatory, 4e-8 from the branch point
        ("post", 1.0 + 1e-7, 50.0),  # hyperbolic, 1e-7 from the branch point
        ("mem", 0.5, 4.0),  # oscillatory, before the first zero at 3 pi / 2
        ("mem", 0.2, 50.0),
        ("post", 0.2, 50.0),
    ],
)
def test_log_derivative_equals_quotient(kind, r, tau_end):
    channel = _Channel(parse_kind(kind), r)
    taus = np.linspace(0.0, tau_end, 101)
    np.testing.assert_allclose(
        channel.log_derivative(taus),
        channel.derivative(taus) / channel.value(taus),
        rtol=1e-12,
        atol=1e-15,
    )


def test_snapshot_matches_rate_resummation():
    # integrating the rates must reproduce the closed-form damping factors
    from scipy.integrate import quad

    p = MapParams.from_ratio(0.2, 1.0)
    for kind in KINDS:
        tau = 4.0

        def total_rate(t):
            r = tcl_rates(kind, p, t)
            return r.gamma1 + r.gamma2

        integral, _ = quad(total_rate, 0.0, tau, limit=200)
        assert math.exp(-integral) == pytest.approx(
            snapshot(kind, p, tau).lambda3, rel=1e-9
        )
