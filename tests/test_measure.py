import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinflow.maps import (
    MapParams,
    parse_kind,
    apply_map,
    snapshot,
    snapshot_arrays,
    tcl_rate_arrays,
    xi,
    xi_derivative,
    xi_envelope,
)
from spinflow.measure import (
    HORIZON_START,
    TAIL_TOL,
    DegeneratePairError,
    certified_horizon,
    flow_report,
    measure,
    sigma_analytic,
)
from spinflow.states import (
    EXCITED,
    GROUND,
    PLUS,
    QubitState,
    StatePair,
    state_from_bloch,
    trace_distance,
)

OSCILLATORY = MapParams.from_ratio(0.5, n_occ=10.0)
PHYSICAL = MapParams.from_ratio(0.2, n_occ=1.0)
#: 4R > 1 and every pair direction has inflow, not only those near the poles
BACKFLOW = MapParams.from_ratio(1.0, n_occ=0.0)
POLE_PAIR = StatePair(EXCITED, GROUND)
GENERIC_PAIR = StatePair(QubitState(0.8, 0.1 + 0.2j), QubitState(0.3, -0.15j))


def test_sigma_swap_and_scale_invariances():
    for tau in (0.0, 0.7, 3.0, 11.0):
        base = sigma_analytic("mem", OSCILLATORY, GENERIC_PAIR, tau)
        assert sigma_analytic("mem", OSCILLATORY, GENERIC_PAIR.swapped(), tau) == base


def test_sigma_starts_flat():
    assert sigma_analytic("mem", PHYSICAL, POLE_PAIR, 0.0) == 0.0


@pytest.mark.parametrize(
    "kind, r", [("mem", 0.2), ("post", 0.2), ("mem", 0.25)]
)
def test_sigma_is_zero_where_the_distance_underflows(kind, r):
    # D's squares underflow near tau = 1350 for mem R = 0.2 while xi itself
    # is still about 1e-162; outside the oscillatory regime D has no zero,
    # so sigma there is its limit 0, not 0/0
    p = MapParams.from_ratio(r, n_occ=1.0)
    taus = np.linspace(0.0, 4000.0, 8001)
    sigma = sigma_analytic(kind, p, POLE_PAIR, taus)
    assert np.all(np.isfinite(sigma))
    assert np.all(sigma <= 0.0)
    assert sigma_analytic(kind, p, POLE_PAIR, 4000.0) == 0.0
    report = flow_report(kind, p, POLE_PAIR, 4000.0, grid_points=len(taus))
    np.testing.assert_array_equal(report.sigma_path, sigma)
    # the points with D > 0 keep the plain quotient
    x = xi(kind, r, taus)
    distance = np.sqrt(x * x)
    kept = distance > 0.0
    assert 0 < kept.sum() < len(taus)
    num = x * xi_derivative(kind, r, taus)
    np.testing.assert_array_equal(sigma[kept], p.gamma * num[kept] / distance[kept])


@pytest.mark.parametrize("r", [1.0, 1e15])
@pytest.mark.parametrize("pair", [POLE_PAIR, GENERIC_PAIR], ids=["pole", "generic"])
def test_oscillatory_sigma_is_zero_where_the_distance_underflows(r, pair):
    # mem with 4R > 1: from the underflow of D's squares (tau near 740 at
    # R = 1) sigma is its limit 0, first where xi itself is still nonzero,
    # later where the envelopes' squares have underflowed too
    p = MapParams.from_ratio(r, n_occ=1.0)
    taus = np.linspace(0.0, 4000.0, 8001) * (1.0 if r == 1.0 else 1e12)
    sigma = sigma_analytic("mem", p, pair, taus)
    assert np.all(np.isfinite(sigma))
    assert sigma_analytic("mem", p, pair, taus[-1]) == 0.0
    report = flow_report("mem", p, pair, taus[-1], grid_points=len(taus))
    np.testing.assert_array_equal(report.sigma_path, sigma)
    late = taus >= taus[-1] / 2.0
    assert np.all(sigma[late] == 0.0)


@pytest.mark.parametrize("r, tau", [(5.0, 2.265664999460543), (10.0, 1.5600226601448768)])
def test_oscillatory_sigma_keeps_the_isolated_zeros_of_the_distance(r, tau):
    # xi(R, .) reads exactly 0 at these times (found one ulp at a time near
    # its second zero), an isolated zero of the pole pair's D = |xi(R, .)|:
    # the quotient stays non-finite there, with the envelopes far from 0
    assert xi("mem", r, tau) == 0.0 and xi_envelope("mem", r, tau) > 1e-3
    p = MapParams.from_ratio(r, n_occ=1.0)
    assert not math.isfinite(sigma_analytic("mem", p, POLE_PAIR, tau))
    # the generic pair's D has no zero there
    assert math.isfinite(sigma_analytic("mem", p, GENERIC_PAIR, tau))


def test_sigma_rejects_identical_pair():
    with pytest.raises(DegeneratePairError):
        sigma_analytic("mem", PHYSICAL, StatePair(PLUS, PLUS), 1.0)


def test_sigma_matches_discrete_derivative():
    report = flow_report("mem", OSCILLATORY, GENERIC_PAIR, 12.0, grid_points=4001)
    # skip the grid edges: the discrete derivative is one-sided there
    inner = slice(5, -5)
    np.testing.assert_allclose(
        report.sigma_path[inner], report.sigma_discrete_path[inner], atol=1e-6
    )


def test_flow_report_starts_at_pair_distance():
    report = flow_report("post", PHYSICAL, GENERIC_PAIR, 6.0)
    assert report.distance_path[0] == pytest.approx(
        trace_distance(GENERIC_PAIR.first, GENERIC_PAIR.second), abs=1e-15
    )


def test_flow_gains_telescope_to_distance_differences():
    report = flow_report("mem", OSCILLATORY, POLE_PAIR, 25.0, grid_points=800)
    assert report.positive_intervals
    for lo, hi, gain in report.positive_intervals:
        d_lo = trace_distance(
            apply_map(snapshot("mem", OSCILLATORY, lo), POLE_PAIR.first),
            apply_map(snapshot("mem", OSCILLATORY, lo), POLE_PAIR.second),
            validate=False,
        )
        d_hi = trace_distance(
            apply_map(snapshot("mem", OSCILLATORY, hi), POLE_PAIR.first),
            apply_map(snapshot("mem", OSCILLATORY, hi), POLE_PAIR.second),
            validate=False,
        )
        assert gain == pytest.approx(d_hi - d_lo, abs=1e-12)
        assert gain > 0.0
    assert report.total_gain == pytest.approx(
        sum(g for _, _, g in report.positive_intervals), abs=1e-15
    )


def test_no_inflow_in_physical_regime():
    for kind in ("mem", "post"):
        report = flow_report(kind, PHYSICAL, POLE_PAIR, 20.0)
        assert report.positive_intervals == ()
        assert report.total_gain == 0.0
        assert np.all(report.sigma_path[1:] <= 1e-14)


def test_identical_pair_reports_all_zero():
    report = flow_report("mem", OSCILLATORY, StatePair(PLUS, PLUS), 5.0)
    assert report.total_gain == 0.0
    assert report.positive_intervals == ()
    assert not report.distance_path.any()
    assert not report.sigma_path.any()


def test_flow_report_validation():
    with pytest.raises(ValueError, match="grid_points"):
        flow_report("mem", PHYSICAL, POLE_PAIR, 5.0, grid_points=10)
    with pytest.raises(ValueError, match="t_end"):
        flow_report("mem", PHYSICAL, POLE_PAIR, -1.0)


#: every public function that takes times, called with one bad time
TIME_TAKERS = {
    "xi": lambda t: xi("mem", 0.2, t),
    "xi_derivative": lambda t: xi_derivative("mem", 0.2, t),
    "xi_envelope": lambda t: xi_envelope("mem", 0.2, t),
    "snapshot": lambda t: snapshot("mem", PHYSICAL, t),
    "snapshot_arrays": lambda t: snapshot_arrays("mem", PHYSICAL, np.array([0.0, 1.0, t])),
    "tcl_rate_arrays": lambda t: tcl_rate_arrays("mem", PHYSICAL, np.array([0.0, 1.0, t])),
    "sigma_analytic": lambda t: sigma_analytic("mem", PHYSICAL, POLE_PAIR, t),
    "flow_report": lambda t: flow_report("mem", PHYSICAL, POLE_PAIR, t_end=t),
    "measure": lambda t: measure("mem", PHYSICAL, t_end=t),
}


@pytest.mark.parametrize("name", sorted(TIME_TAKERS))
def test_public_time_arguments_validated(name):
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError):
            TIME_TAKERS[name](bad)


def test_frozen_map_has_zero_measure():
    frozen = MapParams(gamma0=0.0, gamma=1.0, n_occ=1.0)
    assert certified_horizon("mem", frozen) == 20.0
    result = measure("mem", frozen)
    assert result.value == 0.0


def test_certified_horizon_doubles_until_tail_decays():
    assert certified_horizon("mem", OSCILLATORY) == 40.0
    assert certified_horizon("post", MapParams.from_ratio(0.2, n_occ=1.0)) == 160.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("mem", "post")),
    exponent=st.floats(min_value=-300.0, max_value=0.0),
    n=st.floats(min_value=0.0, max_value=10.0),
)
@example(kind="mem", exponent=-19.0, n=1.0)  # past 60 doublings: 3.7e20
@example(kind="post", exponent=-300.0, n=0.0)
def test_certified_horizon_is_the_first_certified_doubling(kind, exponent, n):
    r = 10.0**exponent
    horizon = certified_horizon(kind, MapParams.from_ratio(r, n_occ=n))

    def tail(t):
        return max(xi_envelope(kind, r, t), xi_envelope(kind, 0.5 * r, t))

    assert tail(horizon) <= TAIL_TOL, (r, horizon)
    if horizon != HORIZON_START:
        assert tail(0.5 * horizon) > TAIL_TOL, (r, horizon)


def test_measure_zero_in_physical_regime():
    assert measure("mem", PHYSICAL).value == 0.0
    assert measure("post", MapParams.from_ratio(0.6, n_occ=1.0)).value == 0.0


def test_measure_positive_in_oscillatory_regime():
    result = measure("mem", OSCILLATORY)
    assert result.value > 0.04
    # the optimum cannot fall below the antipodal pole pair it must dominate
    pole = flow_report("mem", OSCILLATORY, POLE_PAIR, result.tau_end, grid_points=2001)
    assert result.value >= pole.total_gain - 1e-12
    assert result.method == "analytic-sigma"
    assert result.argmax_pair.first.is_valid(tol=1e-9)
    assert result.argmax_pair.second.is_valid(tol=1e-9)


def test_measure_is_deterministic():
    a = measure("mem", OSCILLATORY)
    b = measure("mem", OSCILLATORY)
    assert a.value == b.value
    assert a.evaluations == b.evaluations
    assert a.argmax_pair == b.argmax_pair


def _inside_ball(v):
    """Pull a vector of the [-1, 1] cube strictly inside the Bloch ball."""
    v = np.asarray(v)
    norm = np.linalg.norm(v)
    return v if norm <= 0.999 else v * (0.999 / norm)


BLOCH = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).map(_inside_ball)
#: any two states, or a state and its mirror image through the ball's centre
PAIRS = st.one_of(st.tuples(BLOCH, BLOCH), BLOCH.map(lambda v: (v, -v)))


@pytest.fixture(scope="module")
def backflow_measure():
    return measure("mem", BACKFLOW)


@settings(max_examples=25, deadline=None)
@given(bloch_pair=PAIRS)
def test_no_pair_beats_the_measure(backflow_measure, bloch_pair):
    pair = StatePair(*(state_from_bloch(*r) for r in bloch_pair))
    report = flow_report("mem", BACKFLOW, pair, backflow_measure.tau_end, 2001)
    assert report.total_gain <= backflow_measure.value + 1e-12


@settings(max_examples=25, deadline=None)
@given(r1=BLOCH, r2=BLOCH, c=st.floats(min_value=1e-6, max_value=1.0))
def test_gain_scales_with_the_bloch_vectors(r1, r2, c):
    def gain(scale):
        pair = StatePair(state_from_bloch(*(scale * r1)), state_from_bloch(*(scale * r2)))
        return flow_report("mem", BACKFLOW, pair, 40.0, 2001).total_gain

    assert gain(c) == pytest.approx(c * gain(1.0), rel=1e-12, abs=1e-15)


#: the module itself: the package binds the name measure to the function
MEASURE_MODULE = importlib.import_module("spinflow.measure")


def _antipodal_pair(s):
    """The antipodal pure pair with weights (a0**2, |b0|**2) = (s, 1 - s)."""
    x, z = math.sqrt(1.0 - s), math.sqrt(s)
    return StatePair(state_from_bloch(x, 0.0, z), state_from_bloch(-x, 0.0, -z))


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.25, max_value=50.0, exclude_min=True),
    s=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
)
def test_no_antipodal_pair_beats_the_pole_pair(r, s):
    # the lemma gain(s) <= gain(1) on which the closed form rests
    p = MapParams.from_ratio(r)
    result = measure("mem", p)
    report = flow_report("mem", p, _antipodal_pair(s), result.tau_end, 2001)
    assert report.total_gain <= result.value + 1e-12


@pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 5.0, 20.0])
def test_pole_pair_flow_equals_closed_form(r):
    p = MapParams.from_ratio(r)
    omega = 0.5 * math.sqrt(4.0 * r - 1.0)
    q = math.exp(-math.pi / (2.0 * omega))
    peak_2 = 2.0 * math.pi / omega
    zero_2, zero_3 = ((k * math.pi - math.atan(2.0 * omega)) / omega for k in (2, 3))
    rising, falling = 0.5 * (zero_2 + peak_2), 0.5 * (peak_2 + zero_3)
    values = {}
    for t_end in (rising, falling, certified_horizon("mem", p)):
        values[t_end] = measure("mem", p, t_end=t_end).value
        pole = flow_report("mem", p, POLE_PAIR, t_end, 2001)
        assert pole.total_gain == pytest.approx(values[t_end], rel=1e-12, abs=0.0)
    # two full peaks after the second one; the second rise cut short before it
    assert values[falling] == pytest.approx(q + q * q, rel=1e-14)
    assert q < values[rising] < q + q * q


def test_measure_past_a_crossing_the_old_search_could_not_polish():
    # the 1-D search once ended here in a brentq sign error
    p = MapParams.from_ratio(1.0)
    result = measure("mem", p, t_end=1000.0)
    pole = flow_report("mem", p, POLE_PAIR, 1000.0, 2001)
    assert result.value == pytest.approx(0.19479100012307, rel=1e-12)
    assert result.value == pytest.approx(pole.total_gain, rel=1e-12, abs=0.0)
    assert result.argmax_pair.first.bloch() == (0.0, 0.0, 1.0)
    assert result.argmax_pair.second.bloch() == (0.0, 0.0, -1.0)
    assert result.evaluations == 1


def _per_index_intervals(kind, r, a2, b2, taus, num):
    """The inflow intervals as a loop over the grid found them, one index at a time."""
    m = MEASURE_MODULE
    full, half = m._channels(kind, r)

    def numerator(t):
        return m._numerator(
            a2, b2, full.value(t), full.derivative(t), half.value(t), half.derivative(t)
        )

    def crossing(lo, hi):
        flo, fhi = numerator(lo), numerator(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        return float(m.brentq(numerator, lo, hi, xtol=1e-14))

    pos = num > 0.0
    intervals = []
    inside = False
    start = 0.0
    for i in range(len(taus)):
        if pos[i] and not inside:
            start = taus[0] if i == 0 else crossing(taus[i - 1], taus[i])
            inside = True
        elif inside and not pos[i]:
            end = crossing(taus[i - 1], taus[i])
            intervals.append((float(start), float(end)))
            inside = False
    if inside:
        intervals.append((float(start), float(taus[-1])))

    def distance(t):
        return m._distance(a2, b2, full.value(t), half.value(t))

    return tuple((lo, hi, float(distance(hi) - distance(lo))) for lo, hi in intervals)


@pytest.mark.parametrize(
    "kind, r, pair, t_start, t_end, first, last, some, every",
    [
        # at mem R = 3 the pole pair's |xi| rises on (1.124, 1.895), then falls
        ("mem", 3.0, POLE_PAIR, 1.3, 3.0, True, False, True, False),
        ("mem", 3.0, POLE_PAIR, 0.0, 1.5, False, True, True, False),
        ("mem", 3.0, POLE_PAIR, 1.3, 1.8, True, True, True, True),
        ("post", 3.0, GENERIC_PAIR, 0.0, 20.0, False, False, False, False),
        ("mem", 3.0, GENERIC_PAIR, 0.0, 25.0, False, False, True, False),
        ("mem", 1.0, GENERIC_PAIR, 0.0, 1000.0, False, False, True, False),
    ],
)
def test_inflow_intervals_equal_the_per_index_bracketing(
    kind, r, pair, t_start, t_end, first, last, some, every
):
    kind, p = parse_kind(kind), MapParams.from_ratio(r, 1.0)
    a2, b2 = MEASURE_MODULE._pair_weights(pair)
    taus = np.linspace(t_start, t_end, 400)
    num = MEASURE_MODULE._paths(kind, p, a2, b2, taus)[1]
    pos = num > 0.0
    assert (pos[0], pos[-1], pos.any(), pos.all()) == (first, last, some, every)
    expected = _per_index_intervals(kind, p.R, a2, b2, taus, num)
    assert MEASURE_MODULE._positive_intervals(kind, p.R, a2, b2, taus, num) == expected
    if t_start == 0.0:
        assert flow_report(kind, p, pair, t_end).positive_intervals == expected


def test_measure_tends_to_the_infinite_sum():
    for r in (0.5, 1.0, 5.0):
        limit = 1.0 / math.expm1(math.pi / math.sqrt(4.0 * r - 1.0))
        assert measure("mem", MapParams.from_ratio(r), t_end=200.0).value == pytest.approx(
            limit, rel=1e-14
        )


def _check_distances_never_grow(kind, r, n):
    """max xi' <= 0 on both channels over the certified horizon, measure 0."""
    p = MapParams.from_ratio(r, n_occ=n)
    result = measure(kind, p)
    taus = np.linspace(0.0, result.tau_end, 2001)
    for rate in (p.R, 0.5 * p.R):
        assert np.max(xi_derivative(kind, rate, taus)) <= 0.0
    assert result.value == 0.0
    assert result.argmax_pair.first.bloch() == (1.0, 0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=1e-3, max_value=1e3),
    n=st.floats(min_value=0.0, max_value=10.0),
)
def test_post_markovian_distances_never_grow(r, n):
    _check_distances_never_grow("post", r, n)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=1e-3, max_value=0.25),
    n=st.floats(min_value=0.0, max_value=10.0),
)
@example(r=0.25 - 1e-13, n=0.0)
@example(r=0.25, n=10.0)
def test_memory_kernel_distances_never_grow_in_the_physical_regime(r, n):
    # the headline: no inflow for the physical memory kernel, checked
    # numerically on the channels, not only by measure()'s closed form
    _check_distances_never_grow("mem", r, n)


def test_measure_makes_no_brentq_call(monkeypatch):
    calls = []
    real = MEASURE_MODULE.brentq

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(MEASURE_MODULE, "brentq", counting)
    for kind, p in (("mem", BACKFLOW), ("mem", OSCILLATORY), ("mem", PHYSICAL), ("post", PHYSICAL)):
        measure(kind, p)
    assert calls == []
    # the patched name is the one the numerical route polishes with
    flow_report("mem", BACKFLOW, POLE_PAIR, 40.0, 2001)
    assert calls
