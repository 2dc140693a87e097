"""Why ensemble averages work without ensembles.

A single Haar-random pure state drawn from a restricted subspace already
reproduces the microcanonical expectation value and variance of any
commuting observable.  This script samples many such states, compares the
empirical statistics with the exact microcanonical values, and shows the
1/(d_R + 1) variance law in action as the subspace grows.
"""

import numpy as np

from purestat import (
    evaluate_bound,
    expectation_values,
    haar_unitary,
    stream,
)

rng = stream(20260810, 0)

print("=" * 72)
print("Typicality of expectation values on a restricted subspace")
print("=" * 72)

for d_r in (16, 32, 64, 128):
    rank = d_r // 2
    # a rank-d_R/2 projector supported inside the subspace (commutes with Pi_R)
    u = haar_unitary(d_r, rng)
    b = u[:, :rank] @ u[:, :rank].conj().T

    n = 50_000
    z = rng.standard_normal((n, d_r)) + 1j * rng.standard_normal((n, d_r))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    x = expectation_values(z, b)   # Tr[B psi] per sample

    mc_mean = rank / d_r
    mc_var = mc_mean - mc_mean ** 2
    predicted = evaluate_bound("MC_VARIANCE_IDENTITY", {
        "d_r": d_r, "mc_mean_b": mc_mean, "mc_mean_b2": mc_mean})

    print(f"\nd_R = {d_r:4d}  (B = rank-{rank} projector, <B>_mc = {mc_mean})")
    print(f"  empirical mean  {x.mean():.5f}   (microcanonical {mc_mean})")
    print(f"  empirical var   {x.var(ddof=1):.3e}   "
          f"(identity sigma_mc^2/(d_R+1) = {predicted:.3e})")
    eps = 0.1
    tail = float((np.abs(x - mc_mean) >= eps).mean())
    tail_bound = evaluate_bound("MC_CONCENTRATION", {
        "d_r": d_r, "epsilon": eps, "norm_b": 1.0})
    note = "vacuous at this dimension" if tail_bound >= 1 else "informative"
    print(f"  P(|Tr B psi - <B>_mc| >= {eps}) = {tail:.4f}   "
          f"analytic tail {tail_bound:.3f} ({note})")

print("""
Reading the numbers: the empirical variance halves every time the subspace
dimension doubles, exactly following the 1/(d_R+1) identity, while the
exponential tail bound only becomes informative at dimensions far beyond
desk scale (its constant is 1/(36 pi^3)).  Measure concentration, not
ensemble averaging, is doing the work.
""")
