"""Fringe synthesis, cosine fits and the estimator chain."""

import numpy as np
import pytest

from qslab import dynamics as dyn
from qslab import interferometer as ifm
from qslab import qsl
from qslab.errors import EstimationError, ParameterError

from conftest import fit_fringe_oracle


def test_fringe_probabilities_shapes():
    phis = ifm.phase_grid(48)
    lossless = ifm.RamseyConfig(phases=48, loss_fraction=0.0)
    # t = 0: V = 1, phi = 0
    p = ifm.fringe_probabilities(1.0, 0.0, lossless)
    assert p.shape == (48,)
    assert np.abs(p - (1 - np.cos(phis)) / 2).max() < 1e-15
    # a series gives one row per time, each with its own visibility and phase
    series = ifm.fringe_probabilities([1.0, 0.5, 0.0], [0.0, 0.3, 1.3], lossless)
    assert series.shape == (3, 48)
    assert np.array_equal(series[0], p)
    # vanishing visibility: flat fringe at one half
    assert np.abs(series[2] - 0.5).max() < 1e-15
    # amplitude equals the visibility (phase on the grid, so both extremes,
    # at ph and ph + pi, are hit)
    for v, ph in ((0.3, phis[5]), (0.9, phis[33] - 2 * np.pi)):
        p = ifm.fringe_probabilities(v, ph, lossless)
        assert p.max() - p.min() == pytest.approx(v, abs=1e-12)
    with pytest.raises(ParameterError):
        ifm.fringe_probabilities(1.2, 0.0, lossless)
    with pytest.raises(ParameterError):
        ifm.fringe_probabilities([1.0, 1.2], [0.0, 0.0], lossless)


def test_simulate_series_deterministic_and_envelope():
    config = ifm.RamseyConfig()
    vis, phase = np.full(4, 0.8), np.full(4, 0.4)
    a = ifm.simulate_series(vis, phase, config, 42).n_down
    b = ifm.simulate_series(vis, phase, config, 42).n_down
    assert a.shape == (4, config.phases)
    assert np.array_equal(a, b)
    c = ifm.simulate_series(vis, phase, config, 43).n_down
    assert not np.array_equal(a, c)
    # large-count limit: empirical probabilities within 3.5 sigma of ideal
    big = ifm.RamseyConfig(atoms_per_shot=1000, repetitions=1000, loss_fraction=0.0)
    counts = ifm.simulate_series([0.6], [1.0], big, 1).n_down
    n = big.detections_per_point
    p_true = ifm.fringe_probabilities(0.6, 1.0, big)
    sigma = np.sqrt(p_true * (1 - p_true) / n)
    assert np.all(np.abs(counts / n - p_true) <= 3.5 * sigma + 1e-9)


def test_fit_fringe_exact_recovery():
    v_true, phi_true = 0.8, 1.0
    y = ifm.fringe_probabilities(v_true, phi_true, ifm.RamseyConfig(loss_fraction=0.0))
    fit = ifm.fit_fringes([y * 200], 200.0)
    assert fit.v[0] == pytest.approx(v_true, abs=1e-10)
    assert fit.phi[0] == pytest.approx(phi_true, abs=1e-10)
    # loss renormalization cancels exactly
    y_loss = ifm.fringe_probabilities(v_true, phi_true, ifm.RamseyConfig(loss_fraction=0.05))
    fit2 = ifm.fit_fringes([y_loss * 200], 200.0, loss_fraction=0.05)
    assert fit2.v[0] == pytest.approx(v_true, abs=1e-10)


def test_fit_fringe_flags_vanishing_visibility():
    rng = np.random.default_rng(5)
    counts = rng.binomial(200, 0.5, size=(1, 12))
    fit = ifm.fit_fringes(counts, 200.0)
    assert fit.phi_err[0] > 0.3
    with pytest.raises(ParameterError):
        ifm.fit_fringes(counts[:, :5], 200.0)


@pytest.mark.parametrize("k", [6, 8, 12, 24])
def test_batched_fit_matches_per_record_oracle(k):
    # random binomial counts over the K-phase grid, with a flat row whose
    # amplitude vanishes (v_raw <= 1e-12, phi_err = pi); every resolved row
    # agrees with the one-lstsq-per-record fit
    rng = np.random.default_rng(k)
    phis = ifm.phase_grid(k)
    n_total, loss = 200, 0.05
    v = rng.uniform(0.0, 1.0, 50)
    p = (1.0 - v[:, None] * np.cos(phis - rng.uniform(-np.pi, np.pi, 50)[:, None])) / 2.0
    counts = rng.binomial(n_total, p * (1.0 - loss)).astype(float)
    counts[7] = 95.0
    fit = ifm.fit_fringes(counts, n_total, loss)
    assert fit.v_raw[7] <= 1e-12 and fit.phi_err[7] == np.pi
    resolved = np.arange(50) != 7
    for name in ("v", "v_raw", "v_err", "phi", "phi_err"):
        got = getattr(fit, name)
        want = np.array([fit_fringe_oracle(phis, row, n_total, loss)[name] for row in counts])
        assert got.shape == (50,)
        np.testing.assert_allclose(got[resolved], want[resolved], rtol=1e-12, atol=0.0,
                                   err_msg=name)
        # the flat row's amplitude and its errors are rounding noise of an exact
        # zero in both fits; its phi is the angle of that noise, hence phi_err = pi
        if name != "phi":
            np.testing.assert_allclose(got[7], want[7], rtol=0.0, atol=1e-15, err_msg=name)
    # a batched matrix product may round a row by the batch size, so a
    # one-row batch agrees with the full batch's row 0 to the same 1e-12
    one = ifm.fit_fringes(counts[:1], n_total, loss)
    for name in ("v", "v_raw", "v_err", "phi", "phi_err"):
        assert getattr(one, name)[0] == pytest.approx(getattr(fit, name)[0], rel=1e-12, abs=0.0)
    for width in (5, 3, 0):
        with pytest.raises(ParameterError):
            ifm.fit_fringes(counts[:, :width], n_total)


def test_visibility_estimator_calibration():
    # frozen calibration: V = 1, K = 12, 200 detections -> clipped estimate
    # inside [0.9, 1.0] for at least 95 percent of seeds
    hits = 0
    trials = 1000
    config = ifm.RamseyConfig(phases=12, loss_fraction=0.0)
    for seed in range(trials):
        fit = ifm.simulate_series([1.0], [0.7], config, seed)
        if 0.9 <= fit.v[0] <= 1.0:
            hits += 1
    assert hits >= 950
    assert hits <= trials


def test_visibility_never_exceeds_error_band(point_008):
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 32)
    phase = ifm.fringe_phase(trace, 0.0)
    fit = ifm.simulate_series(trace.visibility, phase, ifm.RamseyConfig(), 9)
    assert np.all(fit.v_raw <= 1.0 + 3.0 * fit.v_err)
    assert np.all((0.0 <= fit.v) & (fit.v <= 1.0))


def test_noiseless_round_trip_reproduces_overlap(point_008):
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    e_n = 0.0
    phase = ifm.fringe_phase(trace, e_n)
    config = ifm.RamseyConfig()
    n = config.detections_per_point
    expected = n * ifm.fringe_probabilities(trace.visibility, phase, config)
    fit = ifm.fit_fringes(expected, n, config.loss_fraction)
    v_hat = fit.v
    phi_hat = np.unwrap(fit.phi)
    assert np.abs(v_hat - trace.visibility).max() < 1e-9
    assert np.abs(phi_hat - phase).max() < 1e-9


def test_extract_mean_energy_noiseless_and_stationary(point_008):
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    times = trace.times
    phase = ifm.fringe_phase(trace, 0.0)
    e_hat, e_err = ifm.extract_mean_energy(times, phase, 0.0, moms.tau_mt)
    assert e_hat == pytest.approx(moms.e, rel=0.01)
    # stationary series: zero slope recovers E = E_n
    e_n = 31.0
    flat = np.zeros_like(times)
    e_flat, _ = ifm.extract_mean_energy(times, flat, e_n, moms.tau_mt)
    assert e_flat == pytest.approx(e_n, abs=1e-9)
    with pytest.raises(ParameterError):
        ifm.extract_mean_energy(times[:5], phase[:5], 0.0, moms.tau_mt)


def test_light_shift_injected_then_subtracted(point_008):
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    times = trace.times
    # 81 rad/us, as the scan forms it; the fitted phase lies in (-pi, pi], and
    # the scan subtracts the shift from it before the estimator rewraps it
    light = 81.0 * (times * model.time_us_per_unit)
    phase = ifm.fringe_phase(trace, 0.0)
    e_clean, _ = ifm.extract_mean_energy(times, phase, 0.0, moms.tau_mt)
    fitted = np.angle(np.exp(1j * (phase + light)))
    e_shifted, _ = ifm.extract_mean_energy(times, fitted - light, 0.0, moms.tau_mt)
    assert e_shifted == pytest.approx(e_clean, abs=1e-9)


def test_extract_uncertainty_noiseless(solver):
    # exact series at the reference displacement recovers dE within 2 percent
    model, eig, state, spectral, moms = solver.spectral_point(0, 0.16)
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    de_hat, de_err = ifm.extract_uncertainty(trace.times, trace.visibility, moms.tau_mt)
    assert de_hat == pytest.approx(moms.de, rel=0.02)


def test_extract_uncertainty_qubit_taylor_limit():
    # |cos(de t)| series: the fitted quadratic coefficient approaches
    # -de^2/2 as the window [0, window * tau_mt] shrinks
    de = 0.8
    tau_mt = np.pi / (2 * de)
    times = np.linspace(0.0, tau_mt, 4096)
    vis = np.abs(np.cos(de * times))
    for window, tol in ((1.0, 2e-3), (0.25, 2e-5)):
        de_hat, _ = ifm.extract_uncertainty(times, vis, window * tau_mt)
        assert de_hat == pytest.approx(de, rel=tol)


def test_extract_uncertainty_flat_signal_errors():
    times = np.linspace(0.0, 10.0, 32)
    with pytest.raises(EstimationError):
        ifm.extract_uncertainty(times, np.ones_like(times), 10.0)
    with pytest.raises(ParameterError):
        ifm.extract_uncertainty(times[:5], np.ones(5), 10.0)


def test_extract_xi_gaussian_and_qubit():
    # synthetic spectrum with Gaussian level populations: xi = 1
    levels = np.arange(400, dtype=float)
    center, width = 200.0, 25.0
    pops = np.exp(-((levels - center) ** 2) / (2 * width**2))
    pops /= pops.sum()
    e = (pops * levels).sum()
    de = np.sqrt((pops * (levels - e) ** 2).sum())
    tau_mt = np.pi / (2 * de)
    times = np.linspace(0.0, tau_mt, 64)
    amp = np.abs(np.exp(-1j * np.outer(times, levels)) @ pops)
    xi, _ = qsl.deviation_from_visibility(times, amp, de)
    assert xi == pytest.approx(1.0, rel=0.02)
    # balanced qubit series: geodesic evolution, xi = 0
    de_q = 1.3
    tau_q = np.pi / (2 * de_q)
    tq = np.linspace(0.0, tau_q, 64)
    xi_q, _ = qsl.deviation_from_visibility(tq, np.abs(np.cos(de_q * tq)), de_q)
    assert xi_q == pytest.approx(0.0, abs=1e-6)


def test_xi_chain_matches_spectral_on_lattice(point_008):
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    xi_hat, _ = qsl.deviation_from_visibility(trace.times, trace.visibility, moms.de)
    xi_spec = (moms.beta2 - 1.0) / 2.0
    assert xi_hat == pytest.approx(xi_spec, rel=0.02)


def test_noisy_uncertainty_calibration_quick(point_008):
    # thinned version of the frozen 200-seed calibration (acceptance runs it
    # in full): >= 85 percent of 40 seeds within 5 percent
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    phase = ifm.fringe_phase(trace, 0.0)
    hits = 0
    config = ifm.RamseyConfig()
    for seed in range(40):
        v_raw = ifm.simulate_series(trace.visibility, phase, config, seed).v_raw
        try:
            de_hat, _ = ifm.extract_uncertainty(trace.times, v_raw, moms.tau_mt)
        except EstimationError:
            continue
        if abs(de_hat / moms.de - 1.0) <= 0.05:
            hits += 1
    assert hits >= 34


def test_bounds_hold_on_estimated_quantities(point_008):
    # the uncertainty bound evaluated with the *estimated* dE stays below
    # the measured visibility within counting-noise tolerance
    model, eig, state, spectral, moms = point_008
    trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
    times = trace.times
    phase = ifm.fringe_phase(trace, 0.0)
    config = ifm.RamseyConfig()
    for seed in (0, 1, 2):
        fit = ifm.simulate_series(trace.visibility, phase, config, seed)
        v_raw, v_err = fit.v_raw, fit.v_err
        de_hat, _ = ifm.extract_uncertainty(times, v_raw, moms.tau_mt)
        bound = np.asarray(qsl.mt_bound(de_hat, times))
        valid = ~np.isnan(bound)
        slack = 4.0 * v_err[valid] + 0.02
        assert np.all(v_raw[valid] >= bound[valid] - slack)


def test_xi_coalesces_near_one_in_nonharmonic_range(solver):
    # nonharmonic displacements: the fitted deviation coefficient gathers
    # around one; the spread widens again beyond dx ~ 0.35 as the packet
    # reaches the inverted-curvature region (see repository notes)
    xis = {}
    for dx in (0.2016, 0.254, 0.32):
        model, _, _, spectral, moms = solver.spectral_point(0, dx)
        trace = dyn.evolve_overlap(spectral, moms.tau_mt, 64)
        xi, _ = qsl.deviation_from_visibility(trace.times, trace.visibility, moms.de)
        xis[dx] = xi
        assert 0.7 <= xi <= 1.3
    assert abs(xis[0.32] - 1.0) < abs(xis[0.2016] - 1.0)


def test_ramsey_config_validation():
    for phases in (5, 0, -3):
        with pytest.raises(ParameterError, match="ramsey.phases"):
            ifm.RamseyConfig(phases=phases)
    assert ifm.RamseyConfig(phases=6).phases == 6
    with pytest.raises(ParameterError):
        ifm.RamseyConfig(loss_fraction=1.0)
    with pytest.raises(ParameterError):
        ifm.RamseyConfig(atoms_per_shot=0)
    # the counts are integers: a float or a bool from a library caller is refused,
    # as YAML input is by the config reader (12.5 phases ran and estimated E wrongly)
    for name in ("phases", "atoms_per_shot", "repetitions"):
        for value in (12.5, 12.0, True, "12"):
            with pytest.raises(ParameterError, match=f"ramsey.{name}"):
                ifm.RamseyConfig(**{name: value})
    assert ifm.RamseyConfig(phases=np.int64(8)).phases == 8
