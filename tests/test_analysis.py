import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinflow import analysis
from spinflow.analysis import (
    DivisibilityReport,
    MapInversionError,
    PositivityVerdict,
    ScanResult,
    choi_eigenvalues,
    choi_of,
    classify,
    cp_scan,
    cp_temperature_threshold,
    divisibility_scan,
    intermediate_map,
    is_positive,
    positivity_scan,
)
from spinflow.maps import (
    IDENTITY_SNAPSHOT,
    MapParams,
    MapSnapshot,
    apply_map,
    snapshot,
    snapshot_arrays,
    tcl_rate_arrays,
    tcl_rates,
    xi,
)
from spinflow.measure import certified_horizon
from spinflow import sphere
from spinflow.sphere import MAX_VERTICES, sphere_grid
from spinflow.states import QubitState, state_from_bloch

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def _oracle_apply(snap: MapSnapshot, m: np.ndarray) -> np.ndarray:
    # linear extension of the affine Bloch action to arbitrary 2x2 inputs
    c = np.trace(m)
    mx, my, mz = (np.trace(s @ m) for s in (SX, SY, SZ))
    out = c * np.eye(2, dtype=complex)
    out += snap.lambda1 * mx * SX + snap.lambda1 * my * SY
    out += (snap.lambda3 * mz + c * snap.t3) * SZ
    return 0.5 * out


def _oracle_choi(snap: MapSnapshot) -> np.ndarray:
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            c[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = _oracle_apply(snap, basis)
    return c


def _random_snapshots(rng, count=40):
    for _ in range(count):
        yield MapSnapshot(
            lambda1=float(rng.uniform(-1.0, 1.0)),
            lambda3=float(rng.uniform(-1.0, 1.0)),
            t3=float(rng.uniform(-0.6, 0.6)),
        )


def test_choi_matches_linearity_oracle(rng):
    for snap in _random_snapshots(rng):
        np.testing.assert_allclose(choi_of(snap), _oracle_choi(snap), atol=1e-15)


def test_choi_eigenvalues_match_eigensolver(rng):
    for snap in _random_snapshots(rng):
        closed = choi_eigenvalues(snap)
        numeric = np.linalg.eigvalsh(choi_of(snap))
        np.testing.assert_allclose(closed, numeric, atol=1e-12)


def test_choi_partial_trace_is_identity(rng):
    # trace preservation: tracing out the output leg leaves the identity
    for snap in _random_snapshots(rng, count=10):
        blocks = choi_of(snap).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(
            np.einsum("ikjk->ij", blocks), np.eye(2), atol=1e-14
        )


def test_identity_map_choi():
    c = choi_of(IDENTITY_SNAPSHOT)
    assert np.trace(c).real == pytest.approx(2.0)
    np.testing.assert_allclose(
        choi_eigenvalues(IDENTITY_SNAPSHOT), [0.0, 0.0, 0.0, 2.0], atol=1e-15
    )
    assert np.linalg.eigvalsh(c)[0] == pytest.approx(0.0, abs=1e-14)


def _bloch_image_max(snap: MapSnapshot) -> float:
    # the squared output norm is quadratic in z alone, so the maximum over
    # the sphere sits at z = +-1 or at the interior critical point
    a = snap.lambda3**2 - snap.lambda1**2
    candidates = [1.0, -1.0]
    if abs(a) > 0.0:
        z_star = -snap.lambda3 * snap.t3 / a
        if -1.0 < z_star < 1.0:
            candidates.append(z_star)
    best = 0.0
    for z in candidates:
        val = snap.lambda1**2 * (1.0 - z * z) + (snap.lambda3 * z + snap.t3) ** 2
        best = max(best, val)
    return math.sqrt(best)


def test_is_positive_matches_quadratic_oracle(rng):
    for snap in _random_snapshots(rng, count=25):
        verdict = is_positive(snap)
        assert verdict.max_norm == pytest.approx(_bloch_image_max(snap), abs=1e-9)
        assert verdict.ok == (verdict.max_norm <= 1.0 + 1e-10)
        assert verdict.witness.is_valid(tol=1e-12)


def test_is_positive_sample_floor():
    with pytest.raises(ValueError, match="samples"):
        is_positive(IDENTITY_SNAPSHOT, samples=10)


def _is_positive_on_numpy_scalars(snap: MapSnapshot) -> PositivityVerdict:
    """is_positive as first written: its probe on numpy scalars, its projection by np.linalg.norm."""
    verts = sphere_grid(1000)
    xy = snap.lambda1 * verts[:, :2]
    zz = snap.lambda3 * verts[:, 2] + snap.t3
    best = int(np.argmax(np.sqrt(np.einsum("ij,ij->i", xy, xy) + zz * zz)))

    def objective(vec):
        x, y, z = vec
        tx, ty = snap.lambda1 * x, snap.lambda1 * y
        tz = snap.lambda3 * z + snap.t3
        return math.sqrt(tx * tx + ty * ty + tz * tz)

    def project(vec):
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0.0 else np.array([0.0, 0.0, 1.0])

    direction, max_norm, _ = sphere.pattern_search(
        objective, verts[best], project=project, step=0.2, min_step=1e-8
    )
    return PositivityVerdict(
        ok=max_norm <= 1.0 + analysis.POSITIVITY_TOL,
        max_norm=float(max_norm),
        witness=state_from_bloch(*direction),
    )


def test_is_positive_equals_numpy_scalar_probe(rng):
    kind, r, n = BAND_POINT
    band = MapParams.from_ratio(r, n_occ=n)
    band_tau = classify(kind, band).positivity.worst_tau
    snaps = [
        IDENTITY_SNAPSHOT,  # tau = 0
        snapshot("mem", MapParams.from_ratio(0.0, n_occ=1.0), 3.0),  # R = 0
        snapshot(kind, band, band_tau),
        *_random_snapshots(rng, count=500),
    ]
    for _ in range(500):
        family = str(rng.choice(["mem", "post"]))
        # two thirds of the rates with 4R > 1, where mem's positivity can break
        p = MapParams.from_ratio(float(rng.uniform(0.0, 0.75)), n_occ=float(rng.uniform(0.0, 10.0)))
        snaps.append(snapshot(family, p, float(rng.uniform(0.0, 50.0))))
    for snap in snaps:
        assert repr(is_positive(snap)) == repr(_is_positive_on_numpy_scalars(snap)), snap


def test_positivity_scan_physical_regime_ok():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    taus = np.linspace(0.0, 20.0, 201)
    result = positivity_scan("mem", p, taus)
    assert result.ok
    assert result.worst_value <= 1.0 + 1e-10


def test_positivity_scan_flags_oscillatory_zero_occupation():
    p = MapParams.from_ratio(5.0, n_occ=0.0)
    taus = np.linspace(0.0, 10.0, 201)
    result = positivity_scan("mem", p, taus)
    assert not result.ok
    assert result.worst_value > 1.0 + 1e-6
    oracle = _bloch_image_max(snapshot("mem", p, result.worst_tau))
    assert result.worst_value == pytest.approx(oracle, abs=1e-9)


def _icosphere_per_midpoint(subdivisions):
    """The icosphere as first built: one midpoint and one np.linalg.norm at a time."""
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in sphere._ICO_VERTS]
    faces = list(sphere._ICO_FACES)
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts)


def test_icosphere_equals_per_midpoint_construction():
    # the positivity witness, and so the CLI's bytes, are icosphere vertices
    for level in range(7):
        assert np.array_equal(sphere.icosphere(level), _icosphere_per_midpoint(level)), level
    # level 7 keeps the vertices of level 6 in front; its reference takes seconds
    densest = sphere.icosphere(7)
    assert densest.shape == (MAX_VERTICES, 3)
    assert np.array_equal(densest[: 10 * 4**6 + 2], sphere.icosphere(6))


def _full_vertex_scan(kind, p, taus, samples):
    """positivity_scan with its screen over every vertex of sphere_grid(samples)."""
    verts = sphere_grid(samples)
    lam1, lam3, t3 = snapshot_arrays(kind, p, taus)
    planar = verts[:, 0] ** 2 + verts[:, 1] ** 2
    zz = lam3[:, None] * verts[None, :, 2] + t3[:, None]
    norms2 = lam1[:, None] ** 2 * planar[None, :] + zz * zz
    worst = int(np.argmax(np.max(norms2, axis=1)))
    snap = MapSnapshot(float(lam1[worst]), float(lam3[worst]), float(t3[worst]))
    verdict = is_positive(snap, samples=samples)
    return ScanResult(verdict.ok, float(taus[worst]), verdict.max_norm, verdict.witness)


@pytest.mark.parametrize(
    "samples,points",
    # the two largest grids on few times keep the full reference screen small
    [(1000, (1, 2, 7, 100, 101, 201)), (2563, (100, 201)), (10243, (1, 26)),
     (MAX_VERTICES, (1, 9))],
)
# the row-blocked screens' block size (2**16 cells, 64, and 3 * 655 with a short
# last block at samples = 1000) must not reach the closed-form positivity screen
@pytest.mark.parametrize("cells", [2**16, 64, 3 * 655])
def test_positivity_scan_equals_full_vertex_screen(monkeypatch, samples, points, cells):
    monkeypatch.setattr(analysis, "_SCREEN_CELLS", cells)
    # on these grids the closed-form screen picks the worst time that a screen
    # over every icosphere vertex picks, so the bytes are that screen's
    cases = [
        ("mem", 0.2, 1.0, 20.0),
        ("mem", 5.0, 0.0, 10.0),  # 4R > 1: positivity breaks
        ("mem", 2.0, 0.5, 40.0),
        ("post", 0.3, 1.0, 20.0),
        ("post", 5.0, 0.0, 20.0),
        ("mem", 0.0, 0.0, 20.0),  # R = 0 freezes the map: every time ties
    ]
    for kind, r, n, tau_end in cases:
        p = MapParams.from_ratio(r, n_occ=n)
        for count in points:
            taus = np.linspace(0.0, tau_end, count)
            got = positivity_scan(kind, p, taus, samples=samples)
            assert repr(got) == repr(_full_vertex_scan(kind, p, taus, samples)), (
                kind, r, n, count
            )
    # a contracting map whose only worst time is the identity map at tau = 0
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    taus = np.linspace(0.0, 20.0, 101)
    got = positivity_scan("mem", p, taus, samples=samples)
    assert got.worst_tau == 0.0
    assert repr(got) == repr(_full_vertex_scan("mem", p, taus, samples))


#: mem just above its low-temperature edge, where the worst map (tau = 51.2 on
#: classify's grid) peaks between two heights of the 1000-sample icosphere
BAND_POINT = ("mem", 0.01, 5.88e-6)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["mem", "post"]),
    r=st.floats(min_value=1e-4, max_value=50.0),
    n=st.floats(min_value=0.0, max_value=10.0),
)
@example(*BAND_POINT)
def test_positivity_scan_verdict_is_the_closed_form_one(kind, r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    taus = np.linspace(0.0, certified_horizon(kind, p), analysis.CLASSIFY_POINTS)
    grid_max = max(
        _bloch_image_max(MapSnapshot(*map(float, entries)))
        for entries in zip(*snapshot_arrays(kind, p, taus))
    )
    bound = 1.0 + analysis.POSITIVITY_TOL
    assume(abs(grid_max - bound) > 1e-12)
    assert positivity_scan(kind, p, taus).ok == (grid_max <= bound)


def test_positivity_screen_memory_is_bounded():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    taus = np.linspace(0.0, 20.0, 2001)
    positivity_scan("mem", p, taus[:10])  # imports and caches warm
    tracemalloc.start()
    try:
        positivity_scan("mem", p, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2001 x 2562 float array over every vertex alone is 41 MB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("scan", [positivity_scan, cp_scan])
@pytest.mark.parametrize(
    "taus", [[], 1.0, np.zeros((3, 2)), [[0.0, 1.0]]], ids=["empty", "scalar", "2-D", "row"]
)
def test_scans_reject_degenerate_time_grids(scan, taus):
    with pytest.raises(ValueError, match="taus"):
        scan("mem", MapParams.from_ratio(0.2, n_occ=1.0), taus)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lambda1", "lambda3", "t3"])
def test_is_positive_rejects_non_finite_snapshot(field, bad):
    entries = {"lambda1": 0.5, "lambda3": 0.5, "t3": 0.1, field: bad}
    with pytest.raises(ValueError, match="finite"):
        is_positive(MapSnapshot(**entries))


def test_cp_scan_matches_direct_eigensolve(rng):
    taus = np.linspace(0.0, 15.0, 151)
    for kind, r, n in [("mem", 0.2, 1.0), ("mem", 1.5, 0.3), ("post", 0.7, 0.1)]:
        p = MapParams.from_ratio(r, n_occ=n)
        result = cp_scan(kind, p, taus)
        brute = min(
            float(np.linalg.eigvalsh(choi_of(snapshot(kind, p, t)))[0]) for t in taus
        )
        assert result.worst_value == pytest.approx(brute, abs=1e-12)
        assert result.ok == (brute >= -1e-10)


def test_intermediate_map_endpoints():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    whole = intermediate_map("mem", p, 0.0, 3.0)
    direct = snapshot("mem", p, 3.0)
    assert whole.lambda1 == pytest.approx(direct.lambda1, rel=1e-14)
    assert whole.lambda3 == pytest.approx(direct.lambda3, rel=1e-14)
    assert whole.t3 == pytest.approx(direct.t3, rel=1e-14)

    trivial = intermediate_map("mem", p, 3.0, 3.0)
    assert trivial.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert trivial.lambda3 == pytest.approx(1.0, abs=1e-12)
    assert trivial.t3 == pytest.approx(0.0, abs=1e-12)


def test_intermediate_map_composes(rng):
    p = MapParams.from_ratio(0.7, n_occ=0.5)
    for kind in ("mem", "post"):
        early = snapshot(kind, p, 2.0)
        late = snapshot(kind, p, 6.0)
        bridge = intermediate_map(kind, p, 2.0, 6.0)
        for _ in range(5):
            z = rng.uniform(-1.0, 1.0)
            s = QubitState(0.5 * (1.0 + z), 0.5 * rng.uniform(-0.7, 0.7))
            via = apply_map(bridge, apply_map(early, s))
            direct = apply_map(late, s)
            assert via.population_e == pytest.approx(direct.population_e, abs=1e-14)
            assert abs(via.coherence - direct.coherence) < 1e-14


def test_intermediate_map_argument_order():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    with pytest.raises(ValueError, match="t1"):
        intermediate_map("mem", p, 4.0, 1.0)


def test_intermediate_map_reports_vanished_channel():
    # in the oscillatory regime the slower profile crosses zero first
    p = MapParams.from_ratio(0.5, n_occ=1.0)
    zero = 1.5 * math.pi
    assert abs(xi("mem", p.R, zero)) < 1e-12
    with pytest.raises(MapInversionError, match="lambda3"):
        intermediate_map("mem", p, zero, zero + 1.0)


def test_divisibility_scan_memory_kernel_breaks():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    report = divisibility_scan("mem", p, tau_end=20.0, grid=120)
    assert isinstance(report, DivisibilityReport)
    assert not report.divisible
    assert report.min_eigenvalue < -1e-6
    t1, t2 = report.worst_pair
    assert 0.0 <= t1 < t2 <= 20.0
    # the winner must reproduce under a direct eigensolve
    direct = np.linalg.eigvalsh(choi_of(intermediate_map("mem", p, t1, t2)))[0]
    assert direct == pytest.approx(report.min_eigenvalue, rel=1e-12)


def test_divisibility_scan_post_markovian_holds():
    p = MapParams.from_ratio(0.6, n_occ=1.0)
    report = divisibility_scan("post", p, tau_end=20.0, grid=120)
    assert report.divisible
    assert report.min_eigenvalue >= -1e-9


def test_divisibility_refinement_finds_pinned_witness():
    # at the certified horizon the coarse grid reads divisible; only the
    # refinement reaches the negative eigenvalue of the memory kernel
    p = MapParams.from_ratio(0.05, n_occ=1.0)
    horizon = certified_horizon("mem", p)
    assert horizon == 640.0
    assert divisibility_scan("mem", p, tau_end=horizon, grid=100, refine=False).divisible
    report = divisibility_scan("mem", p, tau_end=horizon, grid=100)
    assert not report.divisible
    assert report.min_eigenvalue < -1e-4


def _ratio_params(r, n):
    """from_ratio(r, n), skipping a subnormal r whose gamma0 = r / (2N+1) underflows to 0."""
    assume(r == 0.0 or r / (2.0 * n + 1.0) > 0.0)
    return MapParams.from_ratio(r, n_occ=n)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["mem", "post"]),
    r=st.floats(min_value=0.0, max_value=0.25, exclude_min=True),
    n=st.floats(min_value=0.0, max_value=10.0),
)
def test_divisibility_refinement_properties(kind, r, n):
    p = _ratio_params(r, n)
    tau_end = 20.0
    coarse = divisibility_scan(kind, p, tau_end=tau_end, grid=60, refine=False)
    report = divisibility_scan(kind, p, tau_end=tau_end, grid=60)
    # the search only moves on a strict improvement of the closed form, so
    # the eigensolver values differ at most by rounding
    assert report.min_eigenvalue <= coarse.min_eigenvalue + 1e-14
    t1, t2 = report.worst_pair
    assert 0.0 <= t1 <= t2 <= tau_end
    direct = np.linalg.eigvalsh(
        _oracle_choi(intermediate_map(kind, p, t1, t2))
    )[0]
    assert report.min_eigenvalue == pytest.approx(direct, rel=1e-12)


def test_divisibility_scan_builds_one_intermediate_map(monkeypatch):
    calls = []
    real = analysis.intermediate_map

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "intermediate_map", counting)
    p = MapParams.from_ratio(0.05, n_occ=1.0)
    for kind in ("mem", "post"):
        calls.clear()
        divisibility_scan(kind, p, tau_end=certified_horizon(kind, p), grid=100)
        assert len(calls) == 1


def _one_stencil_per_step(kind, p, tau_end, t1, t2, best, step):
    """analysis._refine_pair as first written: one stencil, and one snapshot_arrays call, per step."""
    min_step = 1e-7 * max(tau_end, 1.0)
    stencil = np.linspace(-1.0, 1.0, 9)
    while step >= min_step:
        with np.errstate(over="ignore"):
            a = np.clip(t1 + step * stencil[:, None], 0.0, tau_end)
            b = np.clip(t2 + step * stencil[None, :], 0.0, tau_end)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        values = analysis._pair_min_eigs(*zip(*snapshot_arrays(kind, p, np.stack((lo, hi)))))
        k = np.unravel_index(int(np.argmin(values)), values.shape)
        if values[k] < best:
            best, t1, t2 = values[k], float(lo[k]), float(hi[k])
        else:
            step *= 0.5
    return t1, t2


def test_batched_refinement_equals_one_stencil_per_step(monkeypatch, rng):
    cases = [
        ("mem", 0.2, 1.0, 20.0, 2),
        ("post", 0.3, 1.0, 20.0, 2),
        ("mem", 0.2, 1.0, 0.5, 50),  # tau_end < 1: min_step at its floor 1e-7
        ("post", 0.1, 2.0, 1e-3, 100),
        ("mem", 0.2, 1.0, 1.7976931348623157e308, 100),  # stencil times overflow
        ("post", 0.2, 1.0, 1.7976931348623157e308, 37),
        ("mem", 0.0, 1.0, 20.0, 60),  # R = 0: every pair ties
        ("post", 0.0, 0.0, 20.0, 60),
        # 4R > 1: lambda3 vanishes at 1.5 pi, a grid time here, and the
        # earlier map is not invertible there
        ("mem", 0.5, 1.0, 3.0 * math.pi, 3),
        ("mem", 0.5, 1.0, 3.0 * math.pi, 101),
        ("mem", 5.0, 0.0, 10.0, 100),
        ("mem", 0.05, 1.0, 640.0, 100),  # the pinned witness
    ]
    for _ in range(1000):
        cases.append((
            str(rng.choice(["mem", "post"])),
            float(rng.choice([rng.uniform(0.0, 0.25), rng.uniform(0.25, 5.0)])),
            float(rng.uniform(0.0, 10.0)),
            float(10.0 ** rng.uniform(-3.0, 5.0)),
            int(rng.integers(2, 121)),
        ))
    for kind, r, n, tau_end, grid in cases:
        p = MapParams.from_ratio(r, n_occ=n)
        got = divisibility_scan(kind, p, tau_end=tau_end, grid=grid)
        with monkeypatch.context() as m:
            m.setattr(analysis, "_refine_pair", _one_stencil_per_step)
            want = divisibility_scan(kind, p, tau_end=tau_end, grid=grid)
        # a frozen dataclass: floats compare exactly
        assert got == want, (kind, r, n, tau_end, grid)


def test_divisibility_refinement_batches_pending_halvings(monkeypatch):
    # one checked snapshot_arrays call for the screen, one per batch of a
    # step and its pending halvings for both corners of every pair, and two
    # in intermediate_map
    calls = []
    real = analysis.snapshot_arrays

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "snapshot_arrays", counting)
    p = MapParams.from_ratio(0.05, n_occ=1.0)
    assert certified_horizon("mem", p) == 640.0
    divisibility_scan("mem", p, tau_end=640.0, grid=100)
    assert len(calls) == 22


@pytest.mark.parametrize(
    "tau_end,grid",
    [(20.0, 1), (20.0, 0), (-1.0, 100), (0.0, 100), (math.nan, 100), (math.inf, 100)],
)
def test_divisibility_scan_rejects_degenerate_inputs(tau_end, grid):
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    with pytest.raises(ValueError):
        divisibility_scan("mem", p, tau_end=tau_end, grid=grid)


def _full_screen_pair(kind, p, tau_end, grid):
    """Winner of the whole grid x grid screen: the first argmin over t1 < t2."""
    taus = np.linspace(0.0, tau_end, grid)
    mins = analysis._pair_min_eigs(
        snapshot_arrays(kind, p, taus[:, None]), snapshot_arrays(kind, p, taus[None, :])
    )
    mins = np.where(taus[None, :] > taus[:, None], mins, np.inf)
    i, j = np.unravel_index(int(np.argmin(mins)), mins.shape)
    return float(taus[i]), float(taus[j])


@pytest.mark.parametrize(
    "cells,grids",
    # a block of rows from start on holds the columns after start, cells //
    # (grid - 1 - start) rows of them and at least one: with 2**16 cells one
    # block up to grid 257, two at 258, and with 2**14 one block up to grid
    # 129, two at 130; with 64 cells one block up to grid 9, two at 10, a
    # first block of two rows at 33, of one row of 63 and 64 cells at 64 and
    # 65, and of one row longer than 64 cells at 66
    [
        (2**16, (257, 258)),
        (64, (7, 8, 9, 10, 33, 64, 65, 66)),
        (analysis._SCREEN_CELLS, (129, 130, 300)),
    ],
)
def test_blocked_screen_equals_full_grid(monkeypatch, cells, grids):
    monkeypatch.setattr(analysis, "_SCREEN_CELLS", cells)
    # R = 0 freezes the map: every pair ties, and the first one must win
    cases = [("mem", 0.2, 1.0), ("post", 0.3, 1.0), ("mem", 2.0, 0.0), ("mem", 0.0, 0.0)]
    for kind, r, n in cases:
        p = MapParams.from_ratio(r, n_occ=n)
        for grid in grids:
            report = divisibility_scan(kind, p, tau_end=20.0, grid=grid, refine=False)
            assert report.worst_pair == _full_screen_pair(kind, p, 20.0, grid), (kind, r, grid)


def test_divisibility_screen_memory_is_bounded():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    divisibility_scan("mem", p, tau_end=20.0, grid=10)  # imports and caches warm
    tracemalloc.start()
    try:
        divisibility_scan("mem", p, tau_end=20.0, grid=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2000 x 2000 float array alone is 32 MB
    assert peak < 8 * 2**20


def test_divisibility_agrees_with_rate_signs():
    # nonnegative time-local rates everywhere imply CP intermediate maps
    p = MapParams.from_ratio(1.4, n_occ=0.7)
    taus = np.linspace(0.0, 12.0, 49)
    rates = [tcl_rates("post", p, t) for t in taus]
    assert all(g.gamma1 >= 0 and g.gamma2 >= 0 and g.gamma3 >= -1e-15 for g in rates)
    report = divisibility_scan("post", p, tau_end=12.0, grid=80)
    assert report.divisible


def test_divisibility_verdict_matches_gamma3_sign():
    # for these invertible phase-covariant maps with gamma1, gamma2 > 0,
    # CP-divisibility holds iff gamma3 >= 0 (Hall, Cresser, Li, Andersson,
    # PRA 89, 042120, 2014): mem is nondivisible, post divisible
    taus = np.linspace(0.0, 20.0, 1001)[1:]
    for kind in ("mem", "post"):
        for r in (0.05, 0.1, 0.2, 0.24):
            for n in (0.5, 1.0, 10.0):
                p = MapParams.from_ratio(r, n_occ=n)
                gamma3 = tcl_rate_arrays(kind, p, taus)[2]
                report = divisibility_scan(kind, p, tau_end=20.0, grid=100)
                assert report.divisible == (float(np.min(gamma3)) >= 0.0), (kind, r, n)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["mem", "post"]),
    r=st.floats(min_value=0.0, max_value=50.0),
    n=st.floats(min_value=0.0, max_value=10.0),
    tau=st.floats(min_value=0.0, max_value=200.0),
)
def test_every_map_preserves_trace(kind, r, n, tau):
    # over the whole parameter space, mem beyond 4R = 1 included
    blocks = choi_of(snapshot(kind, _ratio_params(r, n), tau)).reshape(2, 2, 2, 2)
    np.testing.assert_allclose(np.einsum("ikjk->ij", blocks), np.eye(2), atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=1e3),
    n=st.floats(min_value=0.0, max_value=100.0),
    tau=st.floats(min_value=0.0, max_value=200.0),
)
def test_post_markovian_map_is_cp_everywhere(r, n, tau):
    # Shabani, Lidar, PRA 71, 020101(R) (2005)
    snap = snapshot("post", _ratio_params(r, n), tau)
    assert choi_eigenvalues(snap)[0] >= -1e-14


@settings(max_examples=100, deadline=None)
@given(
    kind_r=st.one_of(
        st.tuples(st.just("mem"), st.floats(min_value=0.0, max_value=0.25)),
        st.tuples(st.just("post"), st.floats(min_value=0.0, max_value=50.0)),
    ),
    n=st.floats(min_value=0.0, max_value=10.0),
    times=st.tuples(*[st.floats(min_value=0.0, max_value=20.0)] * 2).map(sorted),
    bloch=st.tuples(*[st.floats(min_value=-0.57, max_value=0.57)] * 3),
)
def test_intermediate_map_composition_law(kind_r, n, times, bloch):
    # intermediate_map(t1, t2) o snapshot(t1) = snapshot(t2), where the
    # earlier map is invertible: the physical regime of mem, all of post
    kind, r = kind_r
    p = _ratio_params(r, n)
    t1, t2 = times
    state = state_from_bloch(*bloch)
    bridge = intermediate_map(kind, p, t1, t2)
    via = apply_map(bridge, apply_map(snapshot(kind, p, t1), state))
    direct = apply_map(snapshot(kind, p, t2), state)
    assert via.population_e == pytest.approx(direct.population_e, abs=1e-12)
    assert abs(via.coherence - direct.coherence) < 1e-12


def _threshold_by_bisection(kind, r, tau):
    def cp_holds(n):
        p = MapParams.from_ratio(r, n_occ=n)
        return float(choi_eigenvalues(snapshot(kind, p, tau))[0]) >= -1e-15

    if cp_holds(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not cp_holds(hi):
        hi *= 2.0
        if hi > 1e6:
            return math.inf
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if cp_holds(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize(
    "kind,r,tau",
    [
        ("mem", 0.2, 5.0), ("mem", 0.25, 5.0), ("mem", 0.1, 2.0), ("post", 0.4, 3.0),
        # the identity map, CP at N = 0
        ("mem", 0.2, 0.0), ("post", 0.2, 0.0), ("mem", 0.0, 5.0), ("post", 0.0, 5.0),
    ],
)
def test_cp_temperature_threshold_matches_bisection(kind, r, tau):
    closed = cp_temperature_threshold(kind, r, tau)
    oracle = _threshold_by_bisection(kind, r, tau)
    if math.isinf(oracle):
        assert math.isinf(closed)
    else:
        assert closed == pytest.approx(oracle, abs=1e-8)


def test_cp_temperature_threshold_frozen_values():
    assert cp_temperature_threshold("mem", 0.2, 5.0) == pytest.approx(
        0.12339995775742008, rel=1e-12
    )
    assert cp_temperature_threshold("mem", 0.25, 5.0) == pytest.approx(
        0.1269782316008342, rel=1e-12
    )


def test_classify_oscillatory_flagged_unphysical_with_diagnostics():
    # 4 R > 1: flagged unphysical, but the backflow diagnostics still run
    report = classify("mem", MapParams.from_ratio(0.5, n_occ=10.0))
    assert report.verdict == "Unphysical(positivity broken)"
    assert report.params_physical is False
    assert report.measure.value > 1e-3


def test_classify_memory_kernel_nondivisible():
    report = classify("mem", MapParams.from_ratio(0.2, n_occ=1.0))
    assert report.verdict == "TimeDependentMarkovian-Nondivisible"
    assert report.measure.value <= 1e-8
    assert report.params_physical is True
    assert not report.divisibility.divisible


@pytest.mark.parametrize(
    "n_occ, verdict",
    [(0.0, "Unphysical(positivity broken)"), (1.0, "TimeDependentMarkovian-Nondivisible")],
)
def test_params_physical_is_the_4r_condition_alone(n_occ, verdict):
    # mem R = 0.2 has 4R <= 1 at every temperature; at N = 0 the positivity
    # scan still fails, and that decides the verdict
    report = classify("mem", MapParams.from_ratio(0.2, n_occ=n_occ))
    assert report.params_physical is True
    assert report.verdict == verdict
    assert report.positivity.ok is (n_occ > 0)
    if n_occ == 0:
        assert report.positivity.worst_value == pytest.approx(1.0051549551866237, rel=1e-9)


def test_classify_post_markovian_divisible():
    report = classify("post", MapParams.from_ratio(0.6, n_occ=1.0))
    assert report.verdict == "TimeDependentMarkovian-Divisible"
    assert report.divisibility.divisible
    assert report.positivity.ok


def test_classify_flags_the_band_point_unphysical():
    kind, r, n = BAND_POINT
    assert classify(kind, MapParams.from_ratio(r, n)).verdict == "Unphysical(positivity broken)"


def test_classify_unphysical_zero_occupation():
    report = classify("mem", MapParams.from_ratio(5.0, n_occ=0.0))
    assert report.verdict == "Unphysical(positivity broken)"
    assert not report.positivity.ok


def test_classify_report_is_coherent():
    p = MapParams.from_ratio(0.6, n_occ=1.0)
    report = classify("post", p)
    assert report.tau_end == certified_horizon("post", p) > 0.0
    assert report.measure.tau_end == report.tau_end
    assert report.divisibility.tau_end == report.tau_end
    assert report.divisibility.grid == analysis.CLASSIFY_DIVISIBILITY_GRID
    assert report.measure.method == "analytic-sigma"
    assert report.cp.ok


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


_QUARTER = (
    0.25, math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0), 0.2500001, 0.2499999
)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["mem", "post"]),
    r=st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e300, *_QUARTER]),
        st.floats(0.2499, 0.2501),
        st.floats(5e-324, 1e300),
    ),
    n_occ=st.one_of(st.sampled_from([0.0, 1.0, 1e300]), st.floats(0.0, 1e300)),
)
def test_regime_verdict_is_the_classify_verdict(kind, r, n_occ):
    # the lazy verdict, which reads only the deciding scans, is the verdict
    # of a report whose every scan was read first
    p = _outcome(MapParams.from_ratio, r, n_occ)
    assume(isinstance(p, MapParams))
    expected = _outcome(_verdict_after_every_scan, kind, p)
    assert _outcome(lambda k, q: classify(k, q).verdict, kind, p) == expected


def _verdict_after_every_scan(kind, p):
    report = classify(kind, p)
    for field in ("params_physical", "positivity", "cp", "measure", "divisibility"):
        getattr(report, field)
    return report.verdict


def _spy_on_scans(monkeypatch) -> dict:
    """The number of runs of each scan a report reads, by field name, counted from now."""
    calls = {}
    for field, module, name in (
        ("positivity", analysis, "positivity_scan"),
        ("cp", analysis, "cp_scan"),
        ("measure", analysis.measure_mod, "measure"),
        ("divisibility", analysis, "divisibility_scan"),
    ):
        calls[field] = 0

        def spy(*args, _field=field, _real=getattr(module, name), **kwargs):
            calls[_field] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_classify_runs_no_scan_until_one_is_read(monkeypatch):
    calls = _spy_on_scans(monkeypatch)
    classify("mem", MapParams.from_ratio(0.2, n_occ=1.0))
    assert calls == {"positivity": 0, "cp": 0, "measure": 0, "divisibility": 0}


def test_classify_verdict_runs_only_the_deciding_scans(monkeypatch):
    calls = _spy_on_scans(monkeypatch)
    # 4R > 1 decides before any scan
    assert classify("mem", MapParams.from_ratio(5.0, n_occ=0.0)).verdict == (
        "Unphysical(positivity broken)"
    )
    assert calls == {"positivity": 0, "cp": 0, "measure": 0, "divisibility": 0}
    # a physical point needs every scan but the CP scan, which never decides
    report = classify("mem", MapParams.from_ratio(0.2, n_occ=1.0))
    assert report.verdict == "TimeDependentMarkovian-Nondivisible"
    assert calls == {"positivity": 1, "cp": 0, "measure": 1, "divisibility": 1}
    # each scan runs once, however often it is read
    assert report.cp is report.cp
    assert report.verdict == "TimeDependentMarkovian-Nondivisible"
    assert calls == {"positivity": 1, "cp": 1, "measure": 1, "divisibility": 1}
