import math

import numpy as np
import pytest

from spinflow.states import (
    EXCITED,
    GROUND,
    MAXIMALLY_MIXED,
    PLUS,
    QubitState,
    StatePair,
    random_state,
    random_states,
    state_from_bloch,
    trace_distance,
)


def test_matrix_is_hermitian_unit_trace():
    s = QubitState(0.3, 0.2 - 0.1j)
    m = s.matrix()
    assert np.allclose(m, m.conj().T)
    assert m.trace() == pytest.approx(1.0, abs=0.0)
    assert m[1, 1] == 0.3


def test_bloch_round_trip(rng):
    for _ in range(200):
        s = random_state(rng)
        x, y, z = s.bloch()
        back = state_from_bloch(x, y, z)
        assert abs(back.population_e - s.population_e) <= 1e-15
        assert abs(complex(back.coherence) - complex(s.coherence)) <= 1e-15


def test_named_states_valid():
    for s in (EXCITED, GROUND, MAXIMALLY_MIXED, PLUS):
        assert s.is_valid()
    assert EXCITED.bloch() == (0.0, 0.0, 1.0)
    assert GROUND.bloch() == (0.0, 0.0, -1.0)


@pytest.mark.parametrize(
    "state",
    [
        QubitState(1.2, 0.0j),
        QubitState(-0.1, 0.0j),
        QubitState(0.5, 0.6 + 0.0j),  # |b| > sqrt(p(1-p))
        QubitState(float("nan"), 0.0j),
    ],
)
def test_invalid_states_rejected(state):
    assert not state.is_valid()


def test_trace_distance_examples():
    assert trace_distance(EXCITED, GROUND) == 1.0
    assert trace_distance(EXCITED, EXCITED) == 0.0
    # population gap 0.5 and coherence gap 0.1: sqrt(0.25 + 0.01)
    s1 = QubitState(0.75, 0.05 + 0.0j)
    s2 = QubitState(0.25, -0.05 + 0.0j)
    assert trace_distance(s1, s2) == pytest.approx(0.5099019513592785, abs=1e-15)


def test_trace_distance_matches_eigenvalue_route(rng):
    for _ in range(100):
        s1, s2 = random_states(rng, 2)
        delta = s1.matrix() - s2.matrix()
        direct = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
        assert trace_distance(s1, s2) == pytest.approx(direct, abs=1e-12)


def test_trace_distance_metric_axioms(rng):
    for _ in range(50):
        a, b, c = random_states(rng, 3)
        dab = trace_distance(a, b)
        assert dab >= 0.0
        assert dab == trace_distance(b, a)
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-15


def test_trace_distance_validation_flag():
    bad = QubitState(1.5, 0.0j)
    with pytest.raises(ValueError, match="s1"):
        trace_distance(bad, GROUND)
    # raw Hermitian difference is still well defined when asked for
    assert trace_distance(bad, GROUND, validate=False) == pytest.approx(1.5)


def test_pair_differences_and_swap():
    pair = StatePair(QubitState(0.9, 0.1 + 0.2j), QubitState(0.4, -0.1 + 0.0j))
    assert pair.a0 == pytest.approx(0.5)
    assert pair.b0 == pytest.approx(0.2 + 0.2j)
    back = pair.swapped()
    assert back.a0 == -pair.a0
    assert back.b0 == -pair.b0


def test_random_states_inside_ball(rng):
    for s in random_states(rng, 500):
        assert s.is_valid()
        assert math.hypot(*s.bloch()) <= 1.0 + 1e-12
