"""Bounds, crossover, geometry fit, deviation coefficient and reference models."""

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from qslab import qsl, scan
from qslab.errors import NumericError, ParameterError

from conftest import Qubit, bernoulli_moments, bhatia_davis_cap, displaced_populations, xi_harmonic


def test_mt_bound_values_and_domain():
    de = 2.0
    tau = np.pi / (2 * de)
    assert qsl.mt_bound(de, 0.0) == pytest.approx(1.0)
    assert qsl.mt_bound(de, tau) == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(qsl.mt_bound(de, 1.5 * tau))
    with pytest.raises(ParameterError):
        qsl.mt_bound(de, -0.1)


def test_bounds_give_a_float_for_a_scalar_time():
    # a scalar t gives a Python float whether or not the rate is positive;
    # an array t keeps its shape
    for bound in (qsl.mt_bound, qsl.ml_bound):
        for rate, t in ((-1.0, 0.5), (0.0, 0.5), (1.0, 0.5), (1.0, 5.0)):
            assert type(bound(rate, t)) is float
        for rate in (0.0, 1.0):
            assert bound(rate, np.zeros((2, 3))).shape == (2, 3)
    assert np.isnan(qsl.mt_bound(0.0, 1.0)) and np.isnan(qsl.ml_bound(0.0, 1.0))


def test_ml_bound_values_and_domain():
    e = 3.0
    tau = np.pi / (2 * e)
    assert qsl.ml_bound(e, 0.0) == pytest.approx(1.0)
    assert qsl.ml_bound(e, tau) == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(qsl.ml_bound(e, 2 * tau))
    assert np.isnan(qsl.ml_bound(0.0, 0.1))  # ground state: bound undefined


def test_unified_bound_switches_at_crossover():
    e, de = 1.0, 2.5          # dE > E: crossover regime
    tau_c = qsl.crossover_time(e, de)
    tau_mt = np.pi / (2 * de)
    assert tau_c == pytest.approx(tau_mt**2 / (np.pi / (2 * e)), rel=1e-12)
    assert 0.0 < tau_c < tau_mt
    # equality of the two bounds exactly at tau_c
    assert qsl.mt_bound(de, tau_c) == pytest.approx(qsl.ml_bound(e, tau_c), abs=1e-12)
    below, above = 0.9 * tau_c, min(1.1 * tau_c, tau_mt)
    assert qsl.unified_bound(e, de, below) == pytest.approx(qsl.mt_bound(de, below))
    assert qsl.unified_bound(e, de, above) == pytest.approx(qsl.ml_bound(e, above))
    # mean-energy regime: the uncertainty bound binds on its whole domain
    ts = np.linspace(0.0, np.pi / (2 * 2.5), 50)
    u = qsl.unified_bound(2.5, 1.0, ts)
    assert np.allclose(u, qsl.mt_bound(1.0, ts), equal_nan=True)
    # degenerate: all three times coincide
    assert qsl.crossover_time(2.0, 2.0) is None
    assert qsl.crossover_time(2.5, 1.0) is None


def test_ml_bound_overtakes_mt_after_crossover_on_lattice(solver):
    # crossover-regime lattice point: beyond tau_c the mean-energy bound is
    # the binding one
    _, _, _, _, moms = solver.spectral_point(0, 0.08)
    assert moms.de > moms.e
    tau_c = qsl.crossover_time(moms.e, moms.de)
    t_star = 0.5 * (tau_c + moms.tau_mt)
    assert tau_c < t_star < moms.tau_mt
    assert qsl.ml_bound(moms.e, t_star) > qsl.mt_bound(moms.de, t_star)


def test_deviation_from_kurtosis():
    assert qsl.deviation_from_kurtosis(1.0) == 0.0
    assert qsl.deviation_from_kurtosis(3.0) == pytest.approx(1.0)
    with pytest.raises(NumericError):
        qsl.deviation_from_kurtosis(0.5)
    # Poisson spectrum: beta2 = 3 + 1/x - ... gives xi = 1 + 1/(2x)
    x = 2.7
    k = np.arange(200)
    p = np.exp(-x + k * np.log(x) - gammaln(k + 1))
    mean = (p * k).sum()
    var = (p * (k - mean) ** 2).sum()
    beta2 = (p * (k - mean) ** 4).sum() / var**2
    assert qsl.deviation_from_kurtosis(beta2) == pytest.approx(1 + 1 / (2 * x), rel=1e-9)


def test_geometry_fit_round_trip_and_qubit():
    tau_mt = 2.0
    de = np.pi / (2 * tau_mt)
    t = np.linspace(0.0, tau_mt, 64)
    ratio = 1.0 - (np.pi**2 * 1.0 / 48.0) * (t / tau_mt) ** 2   # xi = 1, no noise
    vis = np.cos(de * t * ratio)    # the series whose arccos(V) / (dE t) is that ratio
    xi, xi_err = qsl.deviation_from_visibility(t, vis, de)
    assert xi == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= xi_err < 1e-6
    # balanced two-level evolution moves along a geodesic: ratio identically 1
    xi_qubit, _ = qsl.deviation_from_visibility(t, np.abs(np.cos(de * t)), de)
    assert xi_qubit == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ParameterError):
        qsl.deviation_from_visibility(t[:4], vis[:4], de)
    for stationary in (0.0, np.float64(0.0), -de):
        with pytest.raises(ParameterError):
            qsl.deviation_from_visibility(t, vis, stationary)


def test_report_xi_is_the_visibility_fit_on_the_default_scan(solver):
    # one xi fit: the report's xi_fit is deviation_from_visibility of the
    # exact visibility with the record's dE, bit for bit, at every default point
    config = scan.ScanConfig(curves=False)
    for n, dx in scan.default_grid():
        r = scan.run_point(n, dx, config, solver.solve(dx)[:3])
        xi, _ = qsl.deviation_from_visibility(r.trace.times, r.trace.visibility, r.de)
        assert xi == r.xi_fit, r.label


def test_geometric_and_overlap_forms_agree(solver):
    # ell(t) >= ell_geo(t) exactly when |A(t)| >= cos(dE t), margins consistent
    from qslab import dynamics as dyn

    _, _, _, spectral, moms = solver.spectral_point(0, 0.08)
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    times = trace.times
    overlap_margin = trace.visibility - np.cos(moms.de * times)
    geo_margin = moms.de * times - trace.fs_distance
    # identical sign wherever the overlap margin is numerically resolved; the
    # arccos map amplifies rounding near |A| = 1 by 1/sqrt(1 - A^2), so the
    # geodesic margin gets a correspondingly scaled floor
    for om, gm, vis in zip(overlap_margin, geo_margin, trace.visibility):
        if abs(om) > 1e-12:
            assert np.sign(om) == np.sign(gm)
        amplify = 1.0 / np.sqrt(max(1.0 - vis**2, 1e-14))
        assert gm >= -1e-12 * amplify
    assert trace.fs_distance[0] == pytest.approx(0.0, abs=1e-6)
    assert np.all(overlap_margin >= -1e-12)


def test_bhatia_davis_cap_qubit_and_loose_cases():
    omega = 1.0
    # the cap bounds xi for every mixing angle and becomes tight as the
    # excitation vanishes (population concentrated at the spectrum edge)
    for e, de, xi in zip(*qsl.qubit_moments(np.linspace(0.05, np.pi / 2, 12), omega)):
        cap = bhatia_davis_cap(e, de, omega)
        assert cap >= xi - 1e-12
    e, de, xi = qsl.qubit_moments(0.02, omega)
    cap = bhatia_davis_cap(e, de, omega)
    assert cap == pytest.approx(xi, rel=1e-3)
    # broad truncated coherent spectrum: xi ~ 1, cap far above it
    x = 40.0
    k = np.arange(400)
    p = np.exp(-x + k * np.log(x) - gammaln(k + 1))
    e = (p * k).sum()
    de = np.sqrt((p * (k - e) ** 2).sum())
    beta2 = (p * (k - e) ** 4).sum() / de**4
    xi = qsl.deviation_from_kurtosis(beta2)
    cap = bhatia_davis_cap(e, de, float(k[-1]))
    assert xi == pytest.approx(1.0, abs=0.05)
    assert cap > 10 * xi
    with pytest.raises(ParameterError):
        bhatia_davis_cap(5.0, 1.0, 4.0)


def _poisson_family_moments(n, x):
    k = np.arange(int(x + 40 * np.sqrt(x + 1)) + 20)
    base = np.exp(-x + k * np.log(x) - gammaln(k + 1))
    if n == 0:
        p = base
    elif n == 1:
        p = (x - k) ** 2 / x * base
    else:
        p = (x**2 - 2 * k * x + k**2 - k) ** 2 / (2 * x**2) * base
    mean = (p * k).sum()
    var = (p * (k - mean) ** 2).sum()
    mu4 = (p * (k - mean) ** 4).sum()
    return p.sum(), mean, var, mu4


@pytest.mark.parametrize("n,offset", [(0, 1.0), (1, 1.0 / 3.0), (2, 7.0 / 25.0)])
def test_xi_harmonic_matches_population_oracle(n, offset):
    omega = 1.0
    for x in (0.4, 1.3, 6.0):
        total, mean, var, mu4 = _poisson_family_moments(n, x)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(x + n, rel=1e-10)
        assert var == pytest.approx((2 * n + 1) * x, rel=1e-10)
        xi_oracle = (mu4 / var**2 - 1.0) / 2.0
        de = omega * np.sqrt(var)
        assert xi_harmonic(n, de, omega) == pytest.approx(xi_oracle, rel=1e-9)
    # infinite-displacement asymptote
    assert xi_harmonic(n, 1e9, omega) == pytest.approx(offset, abs=1e-12)


def test_xi_harmonic_coherent_form():
    omega = 2.0
    alpha = 0.6
    de = omega * alpha
    assert xi_harmonic(0, de, omega) == pytest.approx(1 + 1 / (2 * alpha**2), rel=1e-12)


def test_displaced_populations_normalization_and_values():
    assert displaced_populations(0, 0.0)[0] == 1.0
    p = displaced_populations(0, 1.0)
    assert p[0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert p[1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    for n in (0, 1, 2):
        for alpha in (0.3, 1.0, 2.4):
            pops = displaced_populations(n, alpha)
            assert pops.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(pops >= -1e-15)
    # alpha = 0 with n > 0: delta at the original level
    p2 = displaced_populations(2, 0.0)
    assert p2[2] == 1.0 and p2.sum() == 1.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_displaced_populations_match_displacement_operator(n):
    # oracle: |<k|exp(-i p dx)|n>|^2 via associated Laguerre matrix elements
    for alpha in (0.45, 1.2):
        x = alpha**2
        pops = displaced_populations(n, alpha, n_max=60)
        for k in range(12):
            lo, hi = min(k, n), max(k, n)
            amp2 = (np.exp(gammaln(lo + 1) - gammaln(hi + 1)) * x ** (hi - lo)
                    * np.exp(-x) * eval_genlaguerre(lo, hi - lo, x) ** 2)
            assert pops[k] == pytest.approx(amp2, abs=1e-12)


def test_qubit_model_contract():
    omega = 2.0
    e, de, xi = qsl.qubit_moments(np.pi / 2, omega)
    assert de == pytest.approx(omega / 2.0)
    assert xi == pytest.approx(0.0, abs=1e-12)
    qb = Qubit(np.pi / 2, omega)
    t = np.linspace(0.0, np.pi / omega, 100)     # up to tau_MT
    assert np.abs(qb.overlap(t) - np.abs(np.cos(omega * t / 2))).max() < 1e-12
    # no inversion: uncertainty exceeds the mean energy (crossover regime)
    e, de, _ = qsl.qubit_moments(np.array([0.3, 1.0, 1.5]), omega)
    assert np.all(de > e)
    # 40 degree precession: minimum overlap cos(40 deg)
    qb40 = Qubit(np.deg2rad(40.0), omega)
    t_star = np.pi / omega
    assert qb40.overlap(t_star) == pytest.approx(np.cos(np.deg2rad(40.0)), abs=1e-12)
    # inverted population: the energy-from-above bound holds
    qb_inv = Qubit(2.2, omega)
    ts = np.linspace(0.0, 1.2, 300)
    bound = qb_inv.inverted_population_bound(ts)
    assert np.all(qb_inv.overlap(ts) >= bound - 1e-12)
    # zeta outside (0, pi) is stationary, a NaN angle is no angle
    for zeta in (0.0, np.pi, -0.1, np.nan, [0.5, 0.0]):
        with pytest.raises(ParameterError, match="zeta in"):
            qsl.qubit_moments(zeta, omega)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ParameterError, match="precession frequency"):
            qsl.qubit_moments(1.0, bad)
    with pytest.raises(ParameterError):
        Qubit(1.0, omega).inverted_population_bound(0.1)


def test_qubit_xi_equals_bernoulli_kurtosis():
    omega = 1.7
    zetas = np.linspace(0.05, np.pi - 0.05, 20)
    for zeta, xi in zip(zetas, qsl.qubit_moments(zetas, omega)[2]):
        _, _, xi_direct = bernoulli_moments(Qubit(zeta, omega))
        assert xi == pytest.approx(xi_direct, abs=1e-12)


def test_report_fields_and_regimes(solver):
    from qslab import dynamics as dyn

    for dx, regime in ((0.04, "ML"), (0.16, "MT")):
        _, _, _, spectral, moms = solver.spectral_point(0, dx)
        trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
        rep = qsl.report(moms, trace)
        assert rep["regime"] == regime
        assert rep["min_margin"] >= -1e-9
        if regime == "ML":
            assert 0.0 < rep["tau_c"] < rep["tau_mt"]
        else:
            assert rep["tau_c"] is None
    # a stationary state has tau_MT = inf, which no trace reaches
    model, _, _, spectral, moms = solver.spectral_point(1, 0.0)
    trace = dyn.evolve_overlap(spectral, 1.0, 16)
    with pytest.raises(ParameterError, match="tau_MT = inf"):
        qsl.report(moms, trace)


def test_report_requires_full_trace(solver):
    from qslab import dynamics as dyn

    _, _, _, spectral, moms = solver.spectral_point(0, 0.08)
    short = dyn.evolve_overlap(spectral, 0.5 * moms.tau_mt, 32)
    with pytest.raises(ParameterError):
        qsl.report(moms, short)
