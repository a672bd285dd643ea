"""Deformed-CDF family: gap function, critical points, auxiliary derivatives.

Expected values carry their oracle: high-precision CDF values were pinned from
a 40-digit erf evaluation (mpmath), suprema from the in-suite grid oracle, and
derivatives are checked against finite differences computed here.
"""

import functools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from spherecdf import (BoundInputs, DomainError,
                       GapEvaluation, TANGENT_SLOPE, alpha, alpha_prime,
                       f_minus, f_minus_prime, f_plus, gamma_closed,
                       gamma_oracle, lambda_concentration_bound, phi_deformed,
                       run_lambda_trials, secant_interval, std_normal_cdf,
                       verify_lemmas, x_minus, x_plus)
from spherecdf import deformation as dfm
from spherecdf.deformation import _g_minus, _gamma, _log1p_over, _log1p_over_prime

# pinned against mpmath.ncdf at 40 digits
PHI_1 = 0.8413447460685429
PHI_2 = 0.9772498680518208
# pinned from the grid-sup oracle (grid_points=200001, refine 1e-12)
GAMMA_HALF = 0.1613372844173843

finite_floats = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
t_values = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_limit(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15

    def test_erf_oracle_value(self):
        assert abs(std_normal_cdf(1.0) - PHI_1) <= 1e-15

    @given(finite_floats)
    def test_reflection(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-12.0, 12.0, 4001)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestPhiDeformed:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
    def test_zero_pins_half(self, t):
        assert phi_deformed(0.0, t, "plus") == 0.5
        assert phi_deformed(0.0, t, "minus") == 0.5

    def test_identity_at_t_zero(self):
        xs = np.linspace(-6.0, 6.0, 101)
        for sign in ("plus", "minus"):
            assert np.array_equal(phi_deformed(xs, 0.0, sign), std_normal_cdf(xs))

    def test_direct_value(self):
        # Phi(1 / (1 - 0.5)) = Phi(2)
        assert abs(phi_deformed(1.0, 0.5, "plus") - PHI_2) <= 1e-15

    @given(t_values)
    def test_nondecreasing_in_x(self, t):
        xs = np.linspace(-10.0, 10.0, 801)
        for sign in ("plus", "minus"):
            assert np.all(np.diff(phi_deformed(xs, t, sign)) >= 0.0)

    @given(finite_floats, st.floats(min_value=0.0, max_value=0.99))
    def test_pointwise_reflection(self, x, t):
        lhs = phi_deformed(x, t, "plus") - std_normal_cdf(x)
        rhs = std_normal_cdf(-x) - phi_deformed(-x, t, "minus")
        assert abs(lhs - rhs) <= 1e-14

    def test_envelope_brackets_rescalings(self):
        rng = np.random.default_rng(7)
        xs = np.linspace(-8.0, 8.0, 401)
        for _ in range(50):
            t = float(rng.uniform(0.01, 0.99))
            lam = float(rng.uniform(1.0 - t, 1.0 + t))
            mid = std_normal_cdf(xs / lam)
            assert np.all(phi_deformed(xs, t, "minus") <= mid + 1e-14)
            assert np.all(mid <= phi_deformed(xs, t, "plus") + 1e-14)

    @pytest.mark.parametrize("sign, s", [("plus", -1.0), ("minus", 1.0)])
    def test_divisor_formula_bytes(self, sign, s):
        # byte for byte ndtr(x / (1 + s sgn(x) t)), signed zeros and extreme t included
        x = np.array([-0.0, 0.0, -5e-324, 5e-324, -1.5, 1.5, -12.0, 12.0])
        t = np.array([0.0, 5e-324, 1.0 - 2.0 ** -53])[:, None]
        want = special.ndtr(x / (1.0 + s * np.sign(x) * t))
        assert phi_deformed(x, t, sign).tobytes() == want.tobytes()
        assert [phi_deformed(xv, tv, sign).hex() for tv in t.ravel().tolist()
                for xv in x.tolist()] == _hex(want.ravel())

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            phi_deformed(1.0, 0.5, "up")

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_shapes_that_do_not_broadcast(self, sign):
        with pytest.raises(DomainError, match=r"\(3,\) and t shape \(2,\) do not"):
            phi_deformed(np.ones(3), np.full(2, 0.1), sign)
        assert phi_deformed(np.ones((2, 1)), np.full(3, 0.1), sign).shape == (2, 3)


class TestCriticalPoints:
    def test_small_t_limits(self):
        assert abs(x_plus(1e-12) - 1.0) <= 1e-9
        assert abs(x_minus(1e-12) + 1.0) <= 1e-9

    def test_half_values(self):
        # direct evaluation of the closed forms at 40 digits
        assert abs(x_plus(0.5) - 0.6797779934458726) <= 1e-15
        assert abs(x_minus(0.5) + 1.2081698511340993) <= 1e-14

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_x_plus_is_critical(self, t):
        # derivative of the gap curve vanishes there (finite-difference oracle)
        xp = x_plus(t)

        def d(x):
            return phi_deformed(x, t, "plus") - std_normal_cdf(x)

        h = 1e-6
        assert abs((d(xp + h) - d(xp - h)) / (2 * h)) <= 1e-7

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_x_minus_is_local_max(self, t):
        xm = x_minus(t)

        def d(x):
            return phi_deformed(x, t, "plus") - std_normal_cdf(x)

        assert d(xm) > d(xm - 1e-3)
        assert d(xm) > d(xm + 1e-3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            x_plus(bad)
        with pytest.raises(DomainError):
            x_minus(bad)


class TestGamma:
    def test_zero(self):
        g = gamma_closed(0.0)
        assert g.gamma == 0.0
        assert math.isnan(g.maximizer_x)

    def test_approaches_half(self):
        assert gamma_closed(0.999999).gamma > 0.4995
        assert gamma_closed(0.999999).gamma < 0.5

    def test_pinned_sup(self):
        assert abs(gamma_closed(0.5).gamma - GAMMA_HALF) <= 1e-12
        assert abs(gamma_oracle(0.5) - GAMMA_HALF) <= 1e-12

    def test_oracle_at_zero(self):
        assert gamma_oracle(0.0) <= 1e-10

    def test_oracle_cross_validation(self):
        for t in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert abs(gamma_closed(t).gamma - gamma_oracle(t)) <= 1e-7

    def test_oracle_terminates_at_zero_tolerance(self):
        # the refinement bracket stalls at one ulp instead of reaching width 0
        assert abs(gamma_oracle(0.5, refine_tolerance=0.0) - gamma_closed(0.5).gamma) <= 1e-7

    def test_oracle_minus_side_symmetry(self):
        for t in (0.05, 0.3, 0.6, 0.9):
            assert abs(gamma_oracle(t) - gamma_oracle(t, side="minus")) <= 1e-9

    def test_below_half_t(self):
        ts = np.linspace(0.0, 0.999, 500)
        for t in ts:
            assert gamma_closed(float(t)).gamma <= 0.5 * t + 1e-12

    def test_maximizer_reported(self):
        g = gamma_closed(0.5)
        assert g.maximizer_x == x_plus(0.5)

    def test_oracle_grid_validation(self):
        with pytest.raises(DomainError):
            gamma_oracle(0.5, grid_points=100)

    def test_oracle_lanes_match_scalar_calls(self):
        # 40 t span three 16-t scan blocks; each lane must equal its own scalar call
        ts = np.concatenate([[0.0, 1.0 - 1e-12], np.linspace(0.003, 0.997, 38)])
        for tol in (1e-10, 0.0):
            for side in ("plus", "minus"):
                got = gamma_oracle(ts, refine_tolerance=tol, side=side)
                assert got.tolist() == [gamma_oracle(t, refine_tolerance=tol, side=side)
                                        for t in ts.tolist()]
        assert gamma_oracle(ts.reshape(4, 10)).tolist() == gamma_oracle(ts).reshape(4, 10).tolist()

    def test_oracle_scalar_and_empty_forms(self):
        assert type(gamma_oracle(0.5)) is float
        assert gamma_oracle(np.array([0.5])).tolist() == [gamma_oracle(0.5)]
        empty = gamma_oracle(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.0])
    def test_oracle_domain(self, bad):
        for t in (bad, np.array([0.2, bad])):
            with pytest.raises(DomainError, match=r"t must lie in \[0, 1\)"):
                gamma_oracle(t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "0.1", None])
    def test_oracle_refine_tolerance_domain(self, bad):
        # a nan tolerance would skip the refinement and return the coarse maximum
        with pytest.raises(DomainError, match="refine_tolerance"):
            gamma_oracle(0.5, refine_tolerance=bad)

    def test_oracle_bad_side(self):
        with pytest.raises(DomainError, match="side must be"):
            gamma_oracle(0.5, side="up")


def _hex(values):
    return [float(v).hex() for v in values]


# the gap gamma_oracle maximizes on each side, as its scan evaluates it: at x,
# from phi = Phi(x) and the divisor div of x's lane
GAPS = {"plus": lambda x, phi, div: dfm._phi_def(x, div) - phi,
        "minus": lambda x, phi, div: phi - dfm._phi_def(x, div)}
NEAR = {"plus": 1.0, "minus": -1.0}  # the sign of x where the divisor is 1 - t


def _divisor(side, x, t):
    # 1 + s sgn(x) t, s = -1 on the plus side and 1 on the minus side, as phi_deformed forms it
    return 1.0 + -NEAR[side] * np.sign(x) * t


def _gap(side, x, t):
    # the gap with Phi(x) and the divisor computed afresh at every x
    return GAPS[side](x, special.ndtr(x), _divisor(side, x, t))


def _full_lanes(side, ts, grid_points):
    """The oracle's coarse scan over every grid point, the reference for _oracle_scan.

    Returns the grid maximum per t, then each half-line's maximum, divisor and
    the bracket around its first argmax as (half-line, t) arrays.
    """
    half = np.linspace(0.0, dfm.SUP_WINDOW, grid_points // 2 + 1)
    xs = np.concatenate([-half[:0:-1], half])
    n, m = len(xs), len(half) - 1
    vals = _gap(side, xs, ts[:, None])
    div = _divisor(side, np.array([[-1.0], [1.0]]), ts)
    top, lo, hi = np.empty((3, 2, ts.size))
    for h, (start, stop) in enumerate(((0, m), (m + 1, n))):
        k = start + np.argmax(vals[:, start:stop], axis=1)
        top[h] = vals[:, start:stop].max(axis=1)
        lo[h], hi[h] = xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, n - 1)]
    return vals.max(axis=1), top, div, lo, hi


def _full_scan(diff, ts, grid_points, near):
    """_full_lanes in _oracle_scan's form, every lane kept.

    It takes the side from near and ignores diff, standing in for _oracle_scan.
    """
    best, _, div, lo, hi = _full_lanes("plus" if near == 1.0 else "minus", ts, grid_points)
    i, h = np.nonzero(np.ones((ts.size, 2), dtype=bool))
    return best, h, i, div[h, i], lo[h, i], hi[h, i]


ORACLE_EDGES = [0.0, 5e-324, 1e-12, 1.0 - 2.0 ** -53]
# edge t mixed with mid-range t, then a reversed run: on the default grid the
# scan's point budget cuts a first chunk after 51 t (three of them whole-grid
# edge t) and leaves the last chunk part full (test_mixed_chunks_layout)
MID = np.linspace(0.02, 0.98, 60)
MIXED_CHUNKS = np.concatenate([np.insert(MID, [0, 20, 40, MID.size], ORACLE_EDGES),
                               np.linspace(0.99, 0.3, 30)])


def _assert_scan_exact(ts, side, grid_points, probes=None):
    """_oracle_scan against the full scan, and gamma_oracle with each scan, bit for bit.

    The grid maxima and every kept lane's divisor and bracket equal the full
    scan's.  A dropped lane's full-scan maximum, and a golden-section search
    over its full-scan bracket, stay strictly below the grid maximum of its
    t, so refining it could change nothing.
    """
    scan = dfm._oracle_scan if probes is None else functools.partial(dfm._oracle_scan,
                                                                      probes=probes)
    best, h, i, div, lo, hi = scan(GAPS[side], ts, grid_points, NEAR[side])
    want, top, want_div, want_lo, want_hi = _full_lanes(side, ts, grid_points)
    assert best.shape == ts.shape and _hex(best) == _hex(want)
    # lanes in t-major order, negative half-line first, and each t keeps one
    assert (np.lexsort((h, i)) == np.arange(h.size)).all()
    kept = np.zeros((2, ts.size), dtype=bool)
    kept[h, i] = True
    assert kept.sum() == h.size and kept.any(axis=0).all()
    assert _hex(div) == _hex(want_div[h, i])
    assert _hex(lo) == _hex(want_lo[h, i]) and _hex(hi) == _hex(want_hi[h, i])
    for dh, di in zip(*np.nonzero(~kept)):
        assert top[dh, di] < best[di]
        t = float(ts[di])
        _, f = dfm._golden_min(lambda x: -float(_gap(side, x, t)), want_lo[dh, di],
                               want_hi[dh, di], 1e-10, (math.nan, math.inf))
        assert -f < best[di]
    with mock.patch.object(dfm, "_oracle_scan", scan):
        fast = gamma_oracle(ts, grid_points=grid_points, side=side)
    with mock.patch.object(dfm, "_oracle_scan", _full_scan):
        assert _hex(fast) == _hex(gamma_oracle(ts, grid_points=grid_points, side=side))


class TestOracleScan:
    """The windowed coarse scan against the scan of every grid point.

    Outputs alone would miss a wrong bracket: the maximum nearly always comes
    from the positive hump, so each half-line's bracket is compared too.
    """

    # one probe per half-line at each |x|: a cap far below the maximum widens
    # the windows but must not change a result
    @pytest.mark.parametrize("probe", [0.05, 0.1, 0.2, 0.3, 0.45])
    @pytest.mark.parametrize("grid_points", [1000, 1001, 2001, 4001])
    def test_grids_match_full_scan(self, grid_points, probe):
        ts = np.concatenate([MIXED_CHUNKS, np.linspace(0.0, 0.99, 100)])
        for side in ("plus", "minus"):
            _assert_scan_exact(ts, side, grid_points, (probe,))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_fine_grid_matches_full_scan(self, side):
        _assert_scan_exact(MIXED_CHUNKS, side, 20001)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_empty_t(self, side):
        _assert_scan_exact(np.array([]), side, 2001)

    @settings(max_examples=60)
    @given(st.lists(st.one_of(st.sampled_from(ORACLE_EDGES),
                              st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=80),
           st.sampled_from(["plus", "minus"]), st.sampled_from([1000, 1001, 2001, 4001]))
    @example([0.0] + np.linspace(0.985, 0.999, 15).tolist(), "plus", 2001)
    @example((10.0 ** np.linspace(-15.0, 0.0, 70) * (1.0 - 2.0 ** -53)).tolist(), "minus", 1001)
    def test_unsorted_t_with_repeats(self, ts, side, grid_points):
        _assert_scan_exact(np.array(ts + ts[::3]), side, grid_points)

    def test_mixed_chunks_layout(self):
        # one chunk that the point budget cuts, holding whole-grid edge t, and a
        # part-full last chunk
        sizes, lanes = [], []

        def counted(x, phi, div):
            if np.ndim(x) == 1:  # a chunk's flat evaluation, not the probes
                sizes.append(x.size)
                # a lane is a run of points with one half-line and one divisor
                new = np.diff(div, prepend=np.nan) != 0.0
                lanes.append(np.count_nonzero(new | (np.diff(np.sign(x), prepend=0.0) != 0.0)))
            return GAPS["plus"](x, phi, div)

        i = dfm._oracle_scan(counted, MIXED_CHUNKS, 2001, NEAR["plus"])[2]
        assert len(sizes) == 2 and sizes[1] < dfm._ORACLE_POINTS / 2 < sizes[0]
        assert sum(lanes) == i.size  # the chunks hold the kept lanes in order
        ts = [set(MIXED_CHUNKS[i[:lanes[0]]].tolist()), set(MIXED_CHUNKS[i[lanes[0]:]].tolist())]
        assert {0.0, 5e-324, 1e-12} < ts[0] and 1.0 - 2.0 ** -53 in ts[1]

    def test_tiny_t_memory(self):
        # t = 0 opens both whole half-lines; the point budget keeps one call over
        # 1000 of them near the memory of verify's 1000-t grid (0.7 MiB)
        ts = np.zeros(1000)
        gamma_oracle(ts)
        tracemalloc.start()
        try:
            gamma_oracle(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_scan_skips_most_of_the_grid(self):
        # on verify's 1000-t grid the scan evaluates under 3% of the (t, x)
        # points of the default 2001-point grid, probes and the grid's own Phi
        # included, and keeps one lane per t, two at t = 0
        ts = np.linspace(0.0, 0.99, 1000)
        calls = []

        def counted(x, phi, div):
            calls.append(np.broadcast(x, phi, div).size)
            return GAPS["plus"](x, phi, div)

        h = dfm._oracle_scan(counted, ts, 2001, NEAR["plus"])[1]
        assert sum(calls) + 2001 < 0.03 * ts.size * 2001 and h.size == ts.size + 1

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_mean_value_bound(self, side):
        # the scan's skip rule: the computed gap is at most min(Phi(-a), phi(a) a c)
        # plus the scan's 1e-12 slack, with (a, c) = (|x|, t/(1-t)) where the
        # divisor is 1 - t and (|x|/(1+t), t) on the other half-line
        x = np.linspace(-12.0, 12.0, 4801)
        t = np.concatenate([np.linspace(0.0, 0.999, 1000), ORACLE_EDGES, [1.0 - 1e-12]])[:, None]
        near = NEAR[side] * x > 0.0
        bound = np.where(near, dfm._gap_bound(np.abs(x), t / (1.0 - t)),
                         dfm._gap_bound(np.abs(x) / (1.0 + t), t))
        assert (_gap(side, x, t) <= bound + 1e-12).all()

    def test_ndtr_absolute_error(self):
        # the scan's 1e-12 slack must cover ndtr's absolute error on the window
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            err = max(abs(float(special.ndtr(v)) - mpmath.ncdf(v))
                      for v in np.linspace(-12.0, 12.0, 2401).tolist())
        assert err < 1e-15


# gamma_oracle's values as float.hex, per side and grid_points, on PINNED_T;
# recorded from the oracle that called ndtr afresh at every window point and
# probe, and rebuilt each probe's divisor 1 + s sgn(x) t
ORACLE_PINS = Path(__file__).resolve().with_name("oracle_pins.json")
PINNED_T = np.concatenate([ORACLE_EDGES, MIXED_CHUNKS, np.linspace(0.0, 0.99, 1000)[::37]])


@pytest.mark.parametrize("grid_points", [1000, 2001, 4001])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_oracle_pinned(side, grid_points):
    want = json.loads(ORACLE_PINS.read_text())[side][str(grid_points)]
    assert _hex(gamma_oracle(PINNED_T, grid_points=grid_points, side=side)) == want


# t = 0, the 1e-4 series window of log1p(-t)/(-t) and both sides of its
# edge, and the top of the feasible range
GAMMA_EDGES = [0.0, 5e-324, 1e-12, 5e-5, 1e-4 - 1e-20, 1e-4, 0.5, 1.0 - 1e-12]
unit_t = st.one_of(st.floats(0.0, 1e-4), st.floats(0.0, 1.0 - 1e-12))


class TestGammaKernel:
    """The array path of the private gap kernel against its float path."""

    @given(st.lists(unit_t, max_size=64))
    def test_array_entries_equal_float_calls(self, ts):
        t = np.array(GAMMA_EDGES + ts)
        got = _gamma(t)
        assert got.shape == t.shape
        assert _hex(got) == _hex(_gamma(v) for v in t.tolist())

    @pytest.mark.parametrize("bad", [-1e-300, 1.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\)"):
            _gamma(bad)
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\)"):
            _gamma(np.array([0.2, bad]))

    @given(st.lists(unit_t, min_size=1, max_size=64))
    def test_g_minus_float_equals_array_entry(self, ts):
        # math.sqrt (float) and np.sqrt (array) both round correctly; the two
        # paths differ only where libm's pow(1 - t, 2) and numpy's (1 - t)**2,
        # which is (1 - t) * (1 - t), round apart (about 9 in 10^4 uniform t)
        arr = _g_minus(np.array(ts)).tolist()
        for t, a in zip(ts, arr):
            g = _g_minus(t)
            assert type(g) is float
            # the float path equals the np.sqrt form it replaced
            assert g.hex() == float(0.5 * (np.sqrt(2.0 / (1.0 - t) ** 2 - 1.0) - 1.0)).hex()
            if (1.0 - t) ** 2 == (1.0 - t) * (1.0 - t):
                assert g.hex() == a.hex()


def _switch_points(signs, edges=(1e-4, 1e-3, 1e-2)):
    """The series switches in edges, +-1 ulp and +-k*1e6 ulp around each.

    1e-4 is _SERIES_CUTOFF and 1e-2 the series window of _log1p_over_prime,
    which only alpha_prime uses; 1e-3 stays because a 6-term series switching
    there lost about 4,000 ulp just outside it.
    """
    out = []
    for edge in edges:
        for base in (s * edge for s in signs):
            ulp = math.ulp(base)
            out += [base, math.nextafter(base, 1.0), math.nextafter(base, -1.0)]
            out += [base + s * k * 1e6 * ulp for k in (1, 10, 100, 1000) for s in (1, -1)]
    return out


def _mp_x_plus(mp, t):
    t = mp.mpf(t)
    return mp.sqrt(2 * (1 - t) ** 2 / (2 - t) * (mp.log1p(-t) / -t))


class TestSeriesSwitches:
    """40-digit mpmath values on both sides of every series switch.

    Each tolerance is the worst error measured at these points, rounded up.
    _log1p_over_prime's direct quotient cancels just outside its 1e-2 series
    window: 2.4e-14 relative at these points, and about 400 ulp at worst
    over [-0.2, 0.2].
    """

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    def test_log1p_over_within_one_ulp(self, mp):
        for u in _switch_points((1, -1)):
            ref = mp.log1p(u) / u
            assert abs(_log1p_over(u) - ref) <= math.ulp(float(ref))

    def test_x_plus_within_one_ulp(self, mp):
        for t in [*_switch_points((1,), (1e-4, 1e-3)), 1.0 - 1e-12]:
            ref = _mp_x_plus(mp, t)
            assert abs(x_plus(t) - ref) <= math.ulp(float(ref))

    def test_gamma_closed_absolute(self, mp):
        for t in _switch_points((1,), (1e-4, 1e-3)):
            xp = _mp_x_plus(mp, t)
            ref = mp.ncdf(xp / (1 - mp.mpf(t))) - mp.ncdf(xp)
            assert abs(gamma_closed(t).gamma - ref) <= 5e-16

    def test_log1p_over_prime_relative(self, mp):
        for u in _switch_points((1, -1)):
            u_mp = mp.mpf(u)
            ref = (1 / (1 + u_mp) - mp.log1p(u_mp) / u_mp) / u_mp
            assert abs(_log1p_over_prime(u) - ref) <= 3e-14 * abs(ref)


class TestPeakFunctions:
    def test_zero(self):
        assert f_minus(0.0) == 0.0
        assert f_plus(0.0) == 0.0

    @given(st.floats(min_value=-0.99, max_value=0.99))
    def test_reflection_identity(self, t):
        assert abs(f_plus(t) + f_minus(-t)) <= 1e-12

    def test_plus_dominates(self):
        for t in np.linspace(0.01, 0.99, 99):
            assert f_plus(float(t)) >= f_minus(float(t)) - 1e-12

    def test_shared_slope_at_zero(self):
        h = 1e-5
        for f in (f_minus, f_plus):
            fd = (f(h) - f(-h)) / (2 * h)
            assert abs(fd - TANGENT_SLOPE) <= 1e-6

    @pytest.mark.parametrize("bad", [-1.0, 1.0, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            f_minus(bad)
        with pytest.raises(DomainError):
            f_plus(bad)


def _old_plus_peak(t):
    # the positive-peak kernel that _peak(t, 1.0) replaced
    xp = dfm._x_plus_ext(t)
    return xp, float(special.ndtr(xp / (1.0 - t)) - special.ndtr(xp))


def _old_minus_peak(t):
    # the f_minus kernel that _peak(t, -1.0) replaced, with its location
    xm = -dfm._x_plus_ext(-t)
    return xm, float(special.ndtr(xm / (1.0 + t)) - special.ndtr(xm))


open_unit = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


class TestKernels:
    """verify's appendix checks call the unvalidated kernels of the peak functions."""

    @given(open_unit)
    @example(0.0)
    @example(1e-4)
    @example(-1e-3)
    def test_kernels_equal_public_functions(self, t):
        for kernel, public in ((lambda u: dfm._peak(u, -1.0)[1], f_minus),
                               (lambda u: dfm._peak(u, 1.0)[1], f_plus),
                               (dfm._alpha, alpha), (dfm._alpha_prime, alpha_prime),
                               (dfm._f_minus_prime, f_minus_prime)):
            assert kernel(t).hex() == public(t).hex()

    @given(st.lists(open_unit, min_size=1, max_size=16))
    @example([0.0, -0.0, 1e-4, -1e-4, 1e-3, -1e-3, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53)])
    def test_peak_sides_match_deleted_kernels(self, ts):
        for side, old in ((1.0, _old_plus_peak), (-1.0, _old_minus_peak)):
            xs, heights = dfm._peak(np.array(ts), side)
            for t, x, height in zip(ts, xs.tolist(), heights.tolist()):
                got = dfm._peak(t, side)
                assert type(got[1]) is float
                assert [v.hex() for v in got] == [x.hex(), height.hex()]
                assert [v.hex() for v in got] == [v.hex() for v in old(t)]

    def test_gamma_is_positive_zero_at_zero(self):
        for t in (0.0, -0.0):
            assert _gamma(t).hex() == "0x0.0p+0"
        out = _gamma(np.array([0.0, -0.0]))
        assert out.tolist() == [0.0, 0.0] and not np.signbit(out).any()

    def test_appendix_loops_skip_validation(self):
        # only the two gamma_closed calls of the tangent-slope check validate;
        # each grid point used to cost one to three check_real calls
        with mock.patch.object(dfm, "check_real", wraps=dfm.check_real) as check:
            report = verify_lemmas(100, scope="appendix")
        assert report.all_passed and check.call_count == 2


def _kernel_edges():
    """The series switches with their neighbours, signed zeros, the ends of (-1, 1), 5e-324."""
    out = [0.0, -0.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 5e-324, -5e-324]
    for edge in (dfm._SERIES_CUTOFF, 1e-2):
        for base in (edge, -edge):
            out += [base, float(np.nextafter(base, 1.0)), float(np.nextafter(base, -1.0))]
    return out


# every kernel that maps libm over an array (dfm._MAPPED), as verify and _gamma call them
MAPPED_KERNELS = {
    "_log1p_over": dfm._log1p_over, "_log1p_over_prime": dfm._log1p_over_prime,
    "_x_plus_ext": dfm._x_plus_ext,
    "_peak x plus": lambda t: dfm._peak(t, 1.0)[0], "_peak plus": lambda t: dfm._peak(t, 1.0)[1],
    "_peak x minus": lambda t: dfm._peak(t, -1.0)[0],
    "_peak minus": lambda t: dfm._peak(t, -1.0)[1],
    "_alpha": dfm._alpha, "_alpha_prime": dfm._alpha_prime, "_f_minus_prime": dfm._f_minus_prime,
}


class TestMappedKernels:
    """Array kernels apply libm mapped over the entries: each entry is the float call's value."""

    @pytest.fixture(scope="class")
    def ts(self):
        rng = np.random.default_rng(20261019)
        # uniform on (-1, 1), then log-uniform magnitudes down to 1e-12 around the switches
        small = np.exp(rng.uniform(math.log(1e-12), math.log(0.05), 20_000))
        t = np.concatenate([_kernel_edges(), rng.uniform(-1.0, 1.0, 100_000),
                            small * rng.choice([-1.0, 1.0], small.size)])
        assert ((t > -1.0) & (t < 1.0)).all()
        return t

    @pytest.mark.parametrize("name", MAPPED_KERNELS)
    def test_array_equals_float_calls(self, ts, name):
        kernel = MAPPED_KERNELS[name]
        got = kernel(ts)
        want = np.array([kernel(t) for t in ts.tolist()])
        assert got.dtype == np.float64 and got.shape == ts.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_libm_is_needed(self, ts):
        # the maps are not for show: numpy's own log1p and x*x round apart from libm
        u = ts[np.abs(ts) >= dfm._SERIES_CUTOFF]
        assert not np.array_equal(np.log1p(u), dfm._MAPPED.log1p(u))
        assert not np.array_equal(u * u, dfm._MAPPED.pow(u, 2.0))

    def test_float_kernels_keep_float_results(self):
        for t in _kernel_edges():
            for kernel in MAPPED_KERNELS.values():
                assert type(kernel(t)) is float

    def test_empty_arrays(self):
        for kernel in MAPPED_KERNELS.values():
            assert kernel(np.array([])).shape == (0,)


def _lane_fn(x, p):
    # a per-lane objective with its minimum near x = p; NaN for p = NaN
    return np.cos(3.0 * (x - p)) * -np.exp(-(x - p) ** 2) + 1e-3 * x


def _lanes_case(tol):
    """Brackets of every kind for _golden_lanes: wide, a few ulps wide, at or below tol."""
    lo, hi, p = [], [], []
    rng = np.random.default_rng(7)
    for _ in range(40):  # wide brackets
        a = rng.uniform(-3.0, 2.0)
        lo.append(a), hi.append(a + rng.uniform(0.5, 3.0)), p.append(rng.uniform(-2.0, 2.0))
    for k in (1, 2, 3, 5):  # a few ulps: the bracket soon stops shrinking, whatever tol
        a = rng.uniform(-1.0, 1.0)
        lo.append(a), hi.append(a + k * math.ulp(a)), p.append(a)
    for w in (0.0, 0.5 * tol, tol):  # done on entry
        lo.append(0.25), hi.append(0.25 + w), p.append(0.3)
    lo.append(-1.0), hi.append(1.0), p.append(math.nan)  # NaN values never win a compare
    order = rng.permutation(len(lo))  # stopped lanes scattered among live ones
    return (np.array(lo)[order], np.array(hi)[order], np.array(p)[order])


class TestGoldenLanes:
    """The lockstep search against one scalar _golden_min per lane."""

    @pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-6])
    def test_lanes_equal_scalar_searches(self, tol):
        a, b, p = _lanes_case(tol)

        def fn(x, pv):
            assert x.shape == pv.shape  # per-lane args keep the state's shape
            return _lane_fn(x, pv)

        got = dfm._golden_lanes(fn, a, b, tol, p)
        want = []
        for lo, hi, pv in zip(a.tolist(), b.tolist(), p.tolist()):
            def f(x, pv=pv):
                return float(_lane_fn(np.array([x]), np.array([pv]))[0])
            c = hi - dfm._INVPHI * (hi - lo)
            d = lo + dfm._INVPHI * (hi - lo)
            best = (d, f(d)) if f(d) < f(c) else (c, f(c))
            want.append(dfm._golden_min(f, lo, hi, tol, best)[1])
        assert _hex(got) == _hex(want)

    def test_no_lanes(self):
        empty = np.array([])
        assert dfm._golden_lanes(_lane_fn, empty, empty, 1e-10, empty).shape == (0,)

    def test_lanes_done_on_entry_cost_no_step(self):
        # two opening probes, no step: each minimum is the lower opening probe's value
        calls = []
        a = np.array([0.0, 1.0])
        b = a + 1e-12
        got = dfm._golden_lanes(lambda x: calls.append(x.size) or -x, a, b, 1e-10)
        assert calls == [2, 2] and _hex(got) == _hex(-(a + dfm._INVPHI * (b - a)))


class TestAlpha:
    def test_zero_is_half(self):
        assert alpha(0.0) == 0.5
        assert abs(-(1.0 + 0.0) * alpha_prime(0.0) - 0.5) <= 1e-15

    def test_direct_quotient(self):
        t = 0.999
        assert abs(alpha(t) - math.log(1.0 + t) / (t * (2.0 + t))) <= 1e-15

    def test_series_seam_continuity(self):
        below, above = 0.99e-4, 1.01e-4
        slope = (alpha(above) - alpha(below)) / (above - below)
        assert abs(slope - alpha_prime(1e-4)) <= 1e-6

    def test_prime_matches_finite_difference(self):
        h = 1e-5
        for t in (-0.9, -0.4, 0.0, 0.3, 0.8):
            fd = (alpha(t + h) - alpha(t - h)) / (2 * h)
            assert abs(fd - alpha_prime(t)) <= 1e-6 * abs(alpha_prime(t))

    def test_sandwich(self):
        for t in np.linspace(-0.99, 0.99, 500):
            s = -(1.0 + float(t)) * alpha_prime(float(t))
            assert 1e-12 < s < 1.0 - 1e-12

    @pytest.mark.parametrize("bad", [-1.0, 1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            alpha(bad)
        with pytest.raises(DomainError):
            alpha_prime(bad)


class TestFMinusPrime:
    def test_value_at_zero(self):
        assert abs(f_minus_prime(0.0) - TANGENT_SLOPE) <= 1e-15

    @pytest.mark.parametrize("t", [-0.9, -0.5, 0.3, 0.8])
    def test_matches_finite_difference(self, t):
        h = 1e-5
        fd = (f_minus(t + h) - f_minus(t - h)) / (2 * h)
        closed = f_minus_prime(t)
        assert abs(fd - closed) <= 1e-6 * abs(closed)

    def test_positive(self):
        for t in np.linspace(-0.99, 0.99, 300):
            assert f_minus_prime(float(t)) > 0.0


class TestSecantInterval:
    def test_global_slopes_reach_one(self):
        assert secant_interval(0.5, "gamma_upper") == 1.0
        assert secant_interval(0.375, "gplus_lower") == 1.0

    def test_gamma_upper_interior(self):
        t_star = secant_interval(0.3, "gamma_upper")
        assert 0.0 < t_star < 1.0
        assert abs(gamma_closed(t_star).gamma - 0.3 * t_star) <= 1e-9
        for t in np.linspace(0.0, t_star, 200):
            assert gamma_closed(float(t)).gamma <= 0.3 * t + 1e-9

    def test_gplus_lower_interior(self):
        from spherecdf import g_plus

        t_star = secant_interval(0.6, "gplus_lower")
        assert 0.0 < t_star < 1.0
        assert abs(g_plus(t_star) - 0.6 * t_star) <= 1e-9
        for t in np.linspace(0.0, t_star, 200):
            assert g_plus(float(t)) >= 0.6 * t - 1e-9

    @pytest.mark.parametrize("slope,which", [
        (0.24, "gamma_upper"), (0.51, "gamma_upper"),
        (0.37, "gplus_lower"), (1.0, "gplus_lower"),
    ])
    def test_slope_domain(self, slope, which):
        with pytest.raises(DomainError):
            secant_interval(slope, which)

    def test_bad_which(self):
        with pytest.raises(DomainError):
            secant_interval(0.4, "gminus_lower")


class TestTypes:
    # the scalar t rule, as gamma_closed and BoundInputs apply it
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_param_rejects(self, bad):
        with pytest.raises(DomainError, match="^deformation parameter must "):
            gamma_closed(bad)
        with pytest.raises(DomainError, match="^deformation parameter must "):
            BoundInputs(100, 0.1, bad)

    @pytest.mark.parametrize("value", [np.int64(0), np.float32(0.25), np.float64(0.3)])
    def test_numpy_scalars_are_reals(self, value):
        ref = float(value)
        assert type(gamma_closed(value).t) is float and gamma_closed(value).t == ref
        assert type(BoundInputs(100, 0.1, value).t) is float
        assert gamma_closed(value).gamma == gamma_closed(ref).gamma
        assert phi_deformed(0.7, value, "plus") == phi_deformed(0.7, ref, "plus")
        assert BoundInputs(100, 0.1, value) == BoundInputs(100, 0.1, ref)
        assert lambda_concentration_bound(100, value) == lambda_concentration_bound(100, ref)
        assert run_lambda_trials(20, 100, 3, value) == run_lambda_trials(20, 100, 3, ref)

    def test_param_refuses_strings(self):
        with pytest.raises(DomainError, match="finite real"):
            gamma_closed("0.3")
        with pytest.raises(DomainError, match="finite real"):
            BoundInputs(100, 0.1, "0.3")

    def test_param_accepts_boundaries(self):
        for t in (0.0, 0.999):
            assert gamma_closed(t).t == t
            assert BoundInputs(100, 0.1, t).t == t

    def test_gap_invariant(self):
        with pytest.raises(DomainError):
            GapEvaluation(t=0.5, gamma=0.5, maximizer_x=1.0)
