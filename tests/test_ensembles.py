"""Samplers: determinism, Haar invariance, marginals, mean-energy ensemble."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from purestat import (
    SETUP_DOMAIN,
    complex_normals,
    ensembles,
    expectation_values,
    haar_coefficient_blocks,
    haar_unitary,
    hamiltonians,
    harmonic_mean,
    mean_energy_coefficients,
    partial_trace,
    reduced_marginals,
    sample_gue,
    sample_haar_state,
    sample_product_state,
    sample_random_hamiltonian,
    sample_spectrum,
    stream,
    trace_distance,
    trial_stream,
    von_neumann_entropy,
)
from purestat import experiments
from purestat.experiments import EXPERIMENTS, _haar_expectations
from purestat.harness import ExperimentSpec, run_experiment
from purestat.linalg import BLOCK_ENTRIES, hermitian_spectrum


def mutual_information(rho, dims):
    """I_SB = S(rho^S) + S(rho^B) - S(rho) of a density matrix on d_S x d_B."""
    return (von_neumann_entropy(partial_trace(rho, *dims, "S"))
            + von_neumann_entropy(partial_trace(rho, *dims, "B")) - von_neumann_entropy(rho))


def test_trial_stream_determinism():
    a = trial_stream(42, 3).standard_normal(8)
    b = trial_stream(42, 3).standard_normal(8)
    c = trial_stream(42, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_setup_and_trial_streams_differ():
    assert not np.array_equal(stream(1, 0).standard_normal(4),
                              trial_stream(1, 0).standard_normal(4))


@pytest.mark.parametrize("d", [1, 32, 256])
def test_haar_coefficient_blocks_are_successive_per_sample_draws(d):
    # row i is the normalised complex_normals row of the i-th
    # standard_normal((2, d)) draw of the stream: one layout everywhere
    rows = max(1, BLOCK_ENTRIES // d)
    for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
        ref, per_sample, blocked = (np.random.Generator(np.random.Philox(n)) for _ in range(3))
        for rng in (ref, per_sample, blocked):
            rng.random(dtype=np.float32)            # a half-used 32-bit buffer
        x = np.array([ref.standard_normal((2, d)) for _ in range(n)])
        z = x[:, 0] + 1j * x[:, 1]
        assert complex_normals(n, (d,), itertools.repeat(per_sample, n)).tobytes() == z.tobytes()
        want = z / np.linalg.norm(z, axis=1, keepdims=True)
        blocks = list(haar_coefficient_blocks(n, d, blocked))
        assert [len(b) for b in blocks] == [min(rows, n - lo) for lo in range(0, n, rows)]
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        assert repr(blocked.bit_generator.state) == repr(ref.bit_generator.state)
        assert repr(per_sample.bit_generator.state) == repr(ref.bit_generator.state)


@pytest.mark.parametrize("shape", [(1,), (5,), (3, 4)])
def test_complex_normals_over_generators_are_the_one_sample_draws(shape):
    # sample i from the i-th generator, bitwise its one-sample draw, and each
    # generator left where that draw leaves it
    seeds = range(4)
    gens, refs = ([np.random.Generator(np.random.Philox(s)) for s in seeds] for _ in range(2))
    for g, ref in zip(gens, refs):
        g.random(dtype=np.float32)                   # a half-used 32-bit buffer
        ref.random(dtype=np.float32)
    z = complex_normals(len(gens), shape, gens)
    want = np.concatenate([complex_normals(1, shape, ref) for ref in refs])
    assert z.shape == (len(gens), *shape) and z.tobytes() == want.tobytes()
    assert [repr(g.bit_generator.state) for g in gens] == \
        [repr(ref.bit_generator.state) for ref in refs]
    # a lazy iterable: each generator is drawn from as it is taken
    lazy = complex_normals(3, shape, (trial_stream(9, k) for k in range(3)))
    assert lazy.tobytes() == np.concatenate(
        [complex_normals(1, shape, trial_stream(9, k)) for k in range(3)]).tobytes()


def test_complex_normals_reject_a_wrong_generator_count():
    # too few would leave rows unfilled, too many would drop draws
    for count in (0, 2, 4):
        with pytest.raises(ValueError):
            complex_normals(3, (2,), [trial_stream(9, k) for k in range(count)])


def test_haar_expectations_equal_the_dense_diagonal_observable():
    d = 32
    n = BLOCK_ENTRIES // d + 3                       # across a block edge
    spectrum = trial_stream(5, 0).standard_normal(d)
    x = _haar_expectations(spectrum, n, trial_stream(5, 1))
    a = np.concatenate(list(haar_coefficient_blocks(n, d, trial_stream(5, 1))))
    assert np.abs(x - expectation_values(a, np.diag(spectrum))).max() <= 1e-12


def test_mc_variance_identity_memory_does_not_grow_with_the_samples():
    # 10^5 samples at d_r = 32: the one-shot draw and its temporaries peaked at 146 MB
    exp = EXPERIMENTS["MC_VARIANCE_IDENTITY"]
    setup = exp.setup(exp.defaults, stream(7, SETUP_DOMAIN))
    tracemalloc.start()
    try:
        exp.trial(setup, exp.defaults, 0, trial_stream(7, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _bootstrap_variance_se(x, resamples, rng):
    """Reference: the spread of the sample variance over resamples of x,
    drawn with replacement."""
    n = len(x)
    return float(np.std([x[rng.integers(0, n, size=n)].var(ddof=1)
                         for _ in range(resamples)], ddof=1))


def test_mc_variance_identity_stderr_matches_a_bootstrap():
    exp = EXPERIMENTS["MC_VARIANCE_IDENTITY"]
    setup = exp.setup(exp.defaults, stream(7, SETUP_DOMAIN))
    row = exp.trial(setup, exp.defaults, 0, trial_stream(7, 0))
    x = _haar_expectations(setup["spectrum"], exp.defaults["n_samples"], trial_stream(7, 0))
    assert row.lhs == x.var(ddof=1)
    reference = _bootstrap_variance_se(x, 400, np.random.default_rng(0))
    assert abs(row.stderr / reference - 1) <= 0.15


@pytest.mark.parametrize("x, want", [
    (trial_stream(3, 0).standard_normal(100_000), np.sqrt(2 / 99_999)),
    (np.array([0.25, 1.5]), None),
    (np.full(7, 0.1), None),
], ids=["normal", "two-samples", "constant"])
def test_variance_se_is_the_delta_method_and_never_negative(x, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        se = experiments._variance_se(x)
    assert np.isfinite(se) and se >= 0
    if want is not None:
        assert se == pytest.approx(want, rel=0.03)


def test_haar_unitary_is_unitary():
    rng = trial_stream(0, 0)
    for d in (2, 7, 16):
        u = haar_unitary(d, rng)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12


def _haar_reference(d, k, rng):
    """The Haar draw of k columns written out: real parts, then imaginary
    parts, thin QR, and the R-diagonal phase fix."""
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    q, r = np.linalg.qr(z)
    ph = r.diagonal() / np.abs(r.diagonal())
    return q * ph.conj()


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_a_square_haar_draw_is_bitwise_the_reference(d):
    # and so is an isometry of k columns, and each leaves the stream where
    # the reference does
    for seed in range(4):
        for k in (None, 1, (d + 1) // 2, d):
            ref, rng = trial_stream(seed, d), trial_stream(seed, d)
            want = _haar_reference(d, d if k is None else k, ref)
            assert haar_unitary(d, rng, k).tobytes() == want.tobytes()
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


@pytest.mark.parametrize("d, k", [(1, 1), (5, 1), (8, 3), (64, 64), (128, 17)])
def test_a_haar_isometry_has_orthonormal_columns(d, k):
    w = haar_unitary(d, trial_stream(1, d), k)
    assert w.shape == (d, k)
    assert np.abs(w.conj().T @ w - np.eye(k)).max() < 1e-12


def test_haar_isometry_entry_moments():
    # every entry of a Haar isometry (d = 4, k = 2) has E|W_ij|^2 = 1/d,
    # E|W_ij|^4 = 2/(d(d+1)) and E[W_ij] = 0.  Without the R-diagonal phase
    # fix the diagonal entries lean negative: mean Re W_11 near -0.29
    d, k, n = 4, 2, 20_000
    rng = trial_stream(2, 0)
    w = np.array([haar_unitary(d, rng, k) for _ in range(n)])
    for x, want in ((np.abs(w) ** 2, 1 / d), (np.abs(w) ** 4, 2 / (d * (d + 1))),
                    (w.real, 0.0), (w.imag, 0.0)):
        se = x.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - want) <= 4 * se)


def _traced_setup_peak(experiment_id, params) -> int:
    exp = EXPERIMENTS[experiment_id]
    tracemalloc.start()
    try:
        exp.setup({**exp.defaults, **params}, stream(7, SETUP_DOMAIN))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the d x d Haar unitary these setups drew before reading d_R of its rows
# peaked at 65 MiB of traced allocations at d = 1024; CANONICAL_REDUCTION's
# d x d microcanonical state peaked at 21.7 MiB
@pytest.mark.parametrize("experiment_id, params, limit_mib", [
    ("DEFF_SUBSPACE_MEAN", {"d_r": 512, "ambient": 1024}, 40),
    ("COARSE_GRAINED", {"d": 1024, "d_r": 64}, 8),
    ("CANONICAL_REDUCTION", {"d_s": 2, "d_b": 512, "d_r": 64}, 12),
])
def test_subspace_setups_draw_only_the_rows_they_read(experiment_id, params, limit_mib):
    assert _traced_setup_peak(experiment_id, params) < limit_mib * 2**20


# a random spectrum at d = 512 or 1024 cannot be certified non-resonant at
# DEFAULT_GAP_TOL, and these experiments read eigenvectors only
@pytest.mark.parametrize("experiment_id, params", [
    ("ENTANGLED_EIGS_TAIL", {"d_s": 2, "d_b": 512, "trials": 1}),
    ("ISI_LINDEN_DELTA", {"d_s": 2, "d_b": 256}),
])
def test_eigenvector_only_experiments_draw_no_spectrum(experiment_id, params, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    res = run_experiment(ExperimentSpec(experiment_id, params))
    assert res.summary["rows"] == res.spec.params["trials"]
    assert res.violations == 0


# these read a spectrum and, by unitary invariance, no eigenbasis: a Haar psi0
# and a GUE observable are drawn in eigenbasis coordinates.  DEFF_MEAN_ENERGY
# and EQ_TIME_HEISENBERG take no time average, so their spectrum needs no
# certificate, which raised the non-resonance error at d = 1024
@pytest.mark.parametrize("experiment_id, params", [
    ("EXPECTATION_EQUILIBRATION", {"trials": 2, "n_times": 50}),
    ("ERGODICITY", {"trials": 8}),
    ("EQ_TIME_HEISENBERG", {"d": 1024}),
    ("DEFF_MEAN_ENERGY", {"d": 1024, "trials": 512}),
])
def test_spectrum_only_experiments_draw_no_eigenbasis(experiment_id, params, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)

    def no_haar_unitary(*args, **kwargs):
        raise AssertionError("a Haar eigenbasis was drawn")
    monkeypatch.setattr(ensembles, "haar_unitary", no_haar_unitary)
    monkeypatch.setattr(experiments, "haar_unitary", no_haar_unitary)
    res = run_experiment(ExperimentSpec(experiment_id, params))
    assert res.summary["rows"] == res.spec.params["trials"]
    assert res.violations == 0


def test_haar_state_single_dim_subspace():
    rng = trial_stream(0, 1)
    v = np.eye(5)[:, [2]]
    psi = sample_haar_state(v, rng)
    proj = np.outer(psi, psi.conj())
    assert np.abs(proj - v @ v.conj().T).max() < 1e-12


def test_haar_state_rejects_a_basis_that_is_not_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        sample_haar_state(np.ones((5, 2)), trial_stream(0, 1))


def test_haar_state_mean_projector_oracle():
    # empirical mean of psi psi^dag approaches Pi_R/d_R
    rng = trial_stream(0, 2)
    d, d_r, n = 12, 8, 20_000
    basis = np.eye(d, d_r)
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        psi = sample_haar_state(basis, rng)
        acc += np.outer(psi, psi.conj())
    acc /= n
    target = basis @ basis.conj().T / d_r
    assert np.abs(acc - target).max() <= 3 / np.sqrt(n)


def test_haar_invariance_ks_probe():
    # |<phi|W psi>|^2 must be distributed like |<phi|psi>|^2 for fixed W
    rng = trial_stream(0, 3)
    d, n = 8, 5000
    w = haar_unitary(d, rng)
    phi = sample_haar_state(np.eye(d), rng)
    basis = np.eye(d)
    x = np.empty(n); y = np.empty(n)
    for i in range(n):
        psi = sample_haar_state(basis, rng)
        x[i] = abs(np.vdot(phi, w @ psi)) ** 2
        y[i] = abs(np.vdot(phi, psi)) ** 2
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / n
    cdf_y = np.searchsorted(ys, grid, side="right") / n
    ks = np.abs(cdf_x - cdf_y).max()
    critical_1pct = 1.628 * np.sqrt(2 / n)  # two-sample KS, alpha = 0.01
    assert ks < critical_1pct


def test_haar_marginals_highly_entangled():
    # on 2 x 64 the subsystem marginal is near maximally mixed >= 99% of the time
    rng = trial_stream(0, 4)
    n = 1000
    close = 0
    for _ in range(n):
        psi = sample_haar_state(np.eye(128), rng)
        if trace_distance(reduced_marginals(psi, (2, 64)), np.eye(2) / 2) <= 0.25:
            close += 1
    assert close >= 0.99 * n


def test_sample_product_state():
    rng = trial_stream(0, 5)
    psi = sample_product_state(3, 5, rng)
    assert psi.shape == (15,)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    # Schmidt rank 1: marginal purity exactly 1
    rho_s = reduced_marginals(psi, (3, 5))
    assert np.trace(rho_s @ rho_s).real == pytest.approx(1.0, abs=1e-12)
    assert mutual_information(np.outer(psi, psi.conj()), (3, 5)) \
        == pytest.approx(0.0, abs=1e-10)
    # the kron of two Haar factors, drawn S first, from the one stream
    factors = trial_stream(0, 6)
    want = np.kron(sample_haar_state(3, factors), sample_haar_state(5, factors))
    assert sample_product_state(3, 5, trial_stream(0, 6)).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 64, 256, 1024])
def test_an_integer_dimension_draws_the_identity_basis_state_bitwise(d):
    # both are the normalised standard_normal(d) + 1j * standard_normal(d),
    # mapped through the basis, and leave the stream where that draw does
    basis = np.eye(d + 1)[:, 1:] * np.exp(1j * np.arange(d))    # orthonormal columns
    for seed in range(5):
        ref = trial_stream(seed, d)
        z = ref.standard_normal(d) + 1j * ref.standard_normal(d)
        c = z / np.linalg.norm(z)
        for space, want in ((d, c), (basis, basis @ c)):
            rng = trial_stream(seed, d)
            assert sample_haar_state(space, rng).tobytes() == want.tobytes()
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        want = sample_haar_state(np.eye(d), trial_stream(seed, d))
        got = sample_haar_state(d, trial_stream(seed, d))
        assert got.tobytes() == want.tobytes()
        factors = trial_stream(seed, d)
        want = np.kron(sample_haar_state(np.eye(2), factors),
                       sample_haar_state(np.eye(d // 2), factors))
        got = sample_product_state(2, d // 2, trial_stream(seed, d))
        assert got.tobytes() == want.tobytes()
    for empty in (0, -1):
        with pytest.raises(ValueError, match="empty"):
            sample_haar_state(empty, trial_stream(0, 0))


def test_random_hamiltonian_contracts():
    rng = trial_stream(0, 7)
    h = sample_random_hamiltonian((2, 1), rng, spectrum=(5.0, 6.0))
    assert 5.0 <= h.eigenvalues[0] < h.eigenvalues[1] < 6.0
    assert h.gap_report.non_resonant

    h16 = sample_random_hamiltonian((16, 1), rng)
    assert h16.gap_report.non_resonant
    assert np.abs(h16.eigenbasis @ h16.eigenbasis.conj().T - np.eye(16)).max() < 1e-10
    assert np.all(np.diff(h16.eigenvalues) > 0)


def test_sample_gue_is_hermitian_at_the_requested_norm():
    for traceless in (False, True):
        rng = trial_stream(0, 12)
        h = sample_gue(6, rng, norm=0.3, traceless=traceless)
        assert np.array_equal(h, h.conj().T)
        assert np.abs(np.linalg.eigvalsh(h)).max() == pytest.approx(0.3, rel=1e-12)
        assert (abs(np.trace(h)) < 1e-15) == traceless
    # (Z + Z^dagger)/2 of one d x d draw, real parts first, made traceless on
    # request and scaled by norm / |H|; the stream is left where that draw leaves it
    for traceless in (False, True):
        ref, rng = trial_stream(0, 12), trial_stream(0, 12)
        z = ref.standard_normal((6, 6)) + 1j * ref.standard_normal((6, 6))
        g = (z + z.conj().T) / 2
        if traceless:
            g -= np.trace(g) / 6 * np.eye(6)
        want = g * (0.3 / np.abs(np.linalg.eigvalsh(g)).max())
        assert sample_gue(6, rng, norm=0.3, traceless=traceless).tobytes() == want.tobytes()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


# the mean ratio of consecutive level spacings needs no unfolding of the
# density of states: about 0.5996 for GUE levels and 2 ln 2 - 1 for Poisson
# (independent) levels (Atas, Bogomolny, Giraud & Roux, PRL 110, 084101 (2013))
GUE_SPACING_RATIO = 0.5996
POISSON_SPACING_RATIO = 2 * np.log(2) - 1
SPACING_RATIO_TOL = 0.03   # at 4 spectra of 256 levels the statistic's spread is about 0.01


def mean_spacing_ratio(spectra) -> float:
    """<r>, the mean over ascending spectra (one per row) of
    min(s_i, s_i+1) / max(s_i, s_i+1) over consecutive level spacings s_i."""
    s = np.diff(spectra, axis=-1)
    return float((np.minimum(s[:, 1:], s[:, :-1]) / np.maximum(s[:, 1:], s[:, :-1])).mean())


def gue_spacing_ratio() -> float:
    """<r> of 4 ensembles.sample_gue(256) spectra, looked up at call time."""
    rng = np.random.default_rng(1)
    return mean_spacing_ratio(np.stack([hermitian_spectrum(ensembles.sample_gue(256, rng))
                                        for _ in range(4)]))


def test_sample_gue_levels_repel_as_gue_levels():
    # a real symmetric (GOE) draw reads about 0.53
    assert abs(gue_spacing_ratio() - GUE_SPACING_RATIO) < SPACING_RATIO_TOL


def test_sample_spectrum_levels_are_poisson():
    rng = np.random.default_rng(1)
    r = mean_spacing_ratio(np.stack([sample_spectrum(256, rng) for _ in range(4)]))
    assert abs(r - POISSON_SPACING_RATIO) < SPACING_RATIO_TOL


def test_random_hamiltonian_entangled_eigenvectors():
    rng = trial_stream(0, 8)
    h = sample_random_hamiltonian((2, 32), rng)
    mv = h.eigenbasis.T.reshape(64, 2, 32)
    mu = np.einsum("kib,kjb->kij", mv, mv.conj())
    dists = 0.5 * np.abs(np.linalg.eigvalsh(mu - np.eye(2)[None] / 2)).sum(axis=1)
    assert dists.max() <= 0.35


def test_random_hamiltonian_default_spectrum_is_the_uniform_draw():
    # lo + (hi - lo) * u at (0.0, 1.0) is u bitwise, so the default spectrum is
    # exactly the sorted rng.random(d) draw of the stream (no jitter needed here)
    for d in (8, 64, 128):
        want = np.sort(trial_stream(3, d).random(d))
        h = sample_random_hamiltonian((d, 1), trial_stream(3, d))
        assert h.eigenvalues.tobytes() == want.tobytes()


def test_random_hamiltonian_redraw_failure(monkeypatch):
    # at a tolerance of 1.0 no four levels in a unit interval are non-resonant:
    # the sampler certifies none of its fresh spectra and gives up after the cap
    monkeypatch.setattr("purestat.hamiltonians.DEFAULT_GAP_TOL", 1.0)
    calls = []
    gap_analysis = hamiltonians.gap_analysis
    monkeypatch.setattr(hamiltonians, "gap_analysis", lambda e: calls.append(e) or gap_analysis(e))
    with pytest.raises(RuntimeError, match="could not reach non-resonance at tol 1.0 in 100 draws"):
        sample_random_hamiltonian((4, 1), trial_stream(0, 9))
    assert len(calls) == ensembles._MAX_DRAWS == 100
    ref = trial_stream(0, 9)
    assert [e.tobytes() for e in calls] == [sample_spectrum(4, ref).tobytes() for _ in calls]


def test_a_resonant_spectrum_is_redrawn_before_the_eigenbasis(monkeypatch):
    # a tolerance between the minimal gap differences of the stream's first two
    # spectra rejects the first: the result is the second spectrum, bitwise,
    # with the Haar eigenbasis drawn after it, and the stream is left there
    ref = trial_stream(0, 14)
    first, second = sample_spectrum(8, ref), sample_spectrum(8, ref)
    eigenbasis = haar_unitary(8, ref)
    mgd = [hamiltonians.gap_analysis(e).min_gap_difference for e in (first, second)]
    assert mgd[0] < mgd[1]
    monkeypatch.setattr("purestat.hamiltonians.DEFAULT_GAP_TOL", (mgd[0] + mgd[1]) / 2)
    rng = trial_stream(0, 14)
    h = sample_random_hamiltonian((4, 2), rng)
    assert h.eigenvalues.tobytes() == second.tobytes()
    assert h.eigenbasis.tobytes() == eigenbasis.tobytes()
    assert h.gap_report == hamiltonians.gap_analysis(second) and h.dims == (4, 2)
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


def test_mean_energy_sampler_sigma_values():
    # d = 2, spectrum {1, 3}, E = 1.5: sigma_1 = sqrt(0.75), sigma_2 = 0.5
    e, energy, d = np.array([1.0, 3.0]), 1.5, 2
    sigmas = np.sqrt(energy / (d * e))
    assert sigmas[0] == pytest.approx(np.sqrt(0.75))
    assert sigmas[1] == pytest.approx(0.5)


def test_mean_energy_sampler_energy_concentration():
    rng = trial_stream(0, 10)
    d = 128
    h = sample_random_hamiltonian((d, 1), rng, spectrum=(1.0, 2.0))
    energy = harmonic_mean(h.eigenvalues)
    c = mean_energy_coefficients(h.eigenvalues, energy, 5000, rng)
    vals = (np.abs(c) ** 2) @ h.eigenvalues
    assert abs(vals.mean() - energy) <= 0.05 * energy


def test_mean_energy_fourth_moments():
    # <|c_k|^4> ~ 2 E^2/(d^2 E_k^2) within 10 percent at N = 20000, d = 64
    rng = trial_stream(0, 11)
    d, n = 64, 20_000
    h = sample_random_hamiltonian((d, 1), rng, spectrum=(1.0, 2.0))
    energy = harmonic_mean(h.eigenvalues)
    acc = (np.abs(mean_energy_coefficients(h.eigenvalues, energy, n, rng)) ** 4).mean(axis=0)
    predicted = 2 * energy ** 2 / (d ** 2 * h.eigenvalues ** 2)
    rel = np.abs(acc - predicted) / predicted
    assert rel.max() <= 0.10


def test_mean_energy_flat_spectrum_reduces_to_haar():
    # all E_k equal: the sampler passes the same invariance probe as Haar
    rng = trial_stream(0, 12)
    d, n = 8, 5000
    h = sample_random_hamiltonian((d, 1), rng, spectrum=(2.0, 2.0 + 1e-5))
    w = haar_unitary(d, rng)
    phi = sample_haar_state(np.eye(d), rng)
    psis = mean_energy_coefficients(h.eigenvalues, 2.0, n, rng) @ h.eigenbasis.T
    x = np.abs(psis @ w.T @ phi.conj()) ** 2
    y = np.abs(psis @ phi.conj()) ** 2
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    ks = np.abs(np.searchsorted(xs, grid, side="right") / n
                - np.searchsorted(ys, grid, side="right") / n).max()
    assert ks < 1.628 * np.sqrt(2 / n)


def test_mean_energy_rejects_bad_input():
    rng = trial_stream(0, 13)
    h = sample_random_hamiltonian((2, 1), rng, spectrum=(-2.0, -1.0))
    with pytest.raises(ValueError):
        mean_energy_coefficients(h.eigenvalues, 1.0, 1, rng)
