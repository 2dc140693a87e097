"""Equilibration of a small subsystem coupled to a bath.

A qubit coupled to a 32-level bath starts in a product state far from
equilibrium.  The reduced state rushes toward the dephased state omega^S,
then fluctuates around it below the d_eff bounds, forever, under purely
unitary global dynamics.  Writes the distance trajectory as CSV.
"""

import numpy as np

from purestat import (
    PureState,
    canonical_subspace_basis,
    dephase,
    effective_dimension,
    evaluate_bound,
    expectation_values,
    purity,
    reduced_marginals,
    sample_haar_state,
    sample_random_hamiltonian,
    sample_times,
    stream,
    time_map,
    trace_distance,
    write_trajectory_csv,
)

rng = stream(20260810, 2)
d_s, d_b = 2, 32

h = sample_random_hamiltonian(None, (d_s, d_b), rng)
psi_b = sample_haar_state(np.eye(d_b), rng)
psi0_vec = np.kron(canonical_subspace_basis(d_s, [0])[:, 0], psi_b.vector)
psi0 = PureState(psi0_vec, dims=(d_s, d_b))

omega = dephase(psi0.density(), h)
omega_s = omega.reduced("S")
deff = effective_dimension(omega)
deff_b = effective_dimension(omega.reduced("B"))
bound = evaluate_bound("SUBSYSTEM_EQUILIBRATION", {"d_s": d_s, "deff_b": deff_b})

print("=" * 72)
print("Subsystem equilibration from a far-from-equilibrium product start")
print("=" * 72)
print(f"d_eff(omega) = {deff:.1f}, d_eff(omega^B) = {deff_b:.1f}")
print(f"initial distance D(rho^S_0, omega^S) = "
      f"{trace_distance(psi0.reduced('S'), omega_s):.3f}")
print(f"bound on the time-averaged distance: (1/2) sqrt(d_S/d_eff(omega^B)) "
      f"= {bound:.3f}")

width = float(h.eigenvalues[-1] - h.eigenvalues[0])
grid = np.linspace(0.0, 80.0 / width, 300)[1:]
dist = time_map(h, psi0, grid,
                lambda psis: trace_distance(reduced_marginals(psis, psi0.dims), omega_s))
write_trajectory_csv("equilibration_trajectory.csv", grid,
                     {"distance": dist, "bound": np.full(len(grid), bound)})

late = dist[len(dist) // 2:]
print(f"late-time mean distance: {late.mean():.4f}  (below the bound: "
      f"{late.mean() <= bound})")
print("trajectory written to equilibration_trajectory.csv (plot t vs distance)")

# long-run statistics at random times: the Reimann bound for observables
times = sample_times(h, 1000, rng)
a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
a = (a + a.conj().T) / 2
a /= np.abs(np.linalg.eigvalsh(a)).max()
# time_map hands each bounded block of evolved states to the function
x, p_s = time_map(h, psi0, times, lambda psis: (
    expectation_values(psis, a), purity(reduced_marginals(psis, psi0.dims))))
x_eq = float(np.trace(a @ omega.matrix).real)
print(f"\nReimann: time variance of Tr[A rho_t] = {np.mean((x - x_eq)**2):.2e}  "
      f"<= |A|^2/d_eff = {1/deff:.2e}")
print(f"purity:  |<p^S>_t - p(omega^S)| = "
      f"{abs(p_s.mean() - purity(omega_s)):.2e}  <= (d_S+2)/d_eff = "
      f"{(d_s+2)/deff:.2e}")
print("""
The subsystem looks equilibrated for almost all times although the global
evolution is unitary and recurrences are guaranteed; they are just
astronomically rare once d_eff is large.
""")
