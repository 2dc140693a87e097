"""Seeded property checks over random dimensions: partial trace, trace
distance, purity and effective dimension, norm-preserving evolution."""

import numpy as np

from purestat import (
    dagger,
    effective_dimension,
    partial_trace,
    purity,
    sample_haar_state,
    sample_random_hamiltonian,
    time_map,
    trace_distance,
    trial_stream,
)

CASES = 40


def _density(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random density matrix of random rank between 1 and d."""
    rank = int(rng.integers(1, d + 1))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ dagger(g)
    return m / np.trace(m).real


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(301)
    for _ in range(CASES):
        d_s, d_b = (int(x) for x in rng.integers(1, 7, size=2))
        z = rng.standard_normal((d_s * d_b,) * 2) + 1j * rng.standard_normal((d_s * d_b,) * 2)
        for op in (z + dagger(z), _density(d_s * d_b, rng)):
            for keep, dim in (("S", d_s), ("B", d_b)):
                red = partial_trace(op, d_s, d_b, keep)
                assert red.shape == (dim, dim)
                assert abs(np.trace(red) - np.trace(op)) <= 1e-12 * max(1.0, np.abs(op).sum())
                assert np.abs(red - dagger(red)).max() <= 1e-12 * max(1.0, np.abs(op).max())


def test_trace_distance_is_symmetric_and_in_unit_interval():
    rng = np.random.default_rng(302)
    for _ in range(CASES):
        d = int(rng.integers(1, 17))
        rho, sigma = _density(d, rng), _density(d, rng)
        dist = trace_distance(rho, sigma)
        assert abs(dist - trace_distance(sigma, rho)) <= 1e-14
        assert -1e-14 <= dist <= 1.0 + 1e-14
        assert trace_distance(rho, rho) <= 1e-14


def test_purity_range_and_effective_dimension():
    rng = np.random.default_rng(303)
    for _ in range(CASES):
        d = int(rng.integers(1, 17))
        rho = _density(d, rng)
        p = purity(rho)
        assert 1.0 / d - 1e-12 <= p <= 1.0 + 1e-12
        assert effective_dimension(rho) == 1.0 / p
    stack = np.stack([_density(5, rng) for _ in range(7)])
    assert np.all((purity(stack) >= 0.2 - 1e-12) & (purity(stack) <= 1.0 + 1e-12))


def test_evolution_preserves_the_norm():
    for case in range(CASES // 4):
        rng = trial_stream(304, case)
        d_s, d_b = (int(x) for x in rng.integers(1, 7, size=2))
        if d_s * d_b < 2:
            d_b = 2
        h = sample_random_hamiltonian((d_s, d_b), rng)
        psi = sample_haar_state(np.eye(d_s * d_b), rng)
        times = rng.uniform(-50.0, 50.0, 9)
        norms = time_map(h, psi, times, lambda psis: np.linalg.norm(psis, axis=-1))
        assert np.abs(norms - 1.0).max() <= 1e-12
        stack = np.stack([psi, sample_haar_state(np.eye(d_s * d_b), rng)])
        norms = time_map(h, stack, times, lambda psis: np.linalg.norm(psis, axis=-1))
        assert norms.shape == (9, 2) and np.abs(norms - 1.0).max() <= 1e-12
