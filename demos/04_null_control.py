"""Steering the coupled system to zero with a dyadic control schedule.

Stages of halving length alternate free dissipation with minimal-norm
window controls that annihilate every mode below the stage cutoff; the
cutoffs grow super-geometrically until clipped at the basis ceiling.  The
run below reproduces the desk-scale flagship scenario: a random packet of
the 30 lowest modes is driven more than eleven orders of magnitude below
the requested tolerance within unit time, and the realized trajectory
satisfies the dyadic telescoping inequalities with a single constant.
"""

import numpy as np

from stokesheat import (
    ObservationRegion,
    StateVector,
    assemble_basis,
    make_schedule,
    run_lr,
)

basis = assemble_basis(1200.0)
region = ObservationRegion(x1=(0.0, np.pi), x2=(0.3, 0.7))
schedule = make_schedule(t_horizon=1.0, gamma=1.5, epsilon=0.5,
                         lambda_cap=1024.0)

rng = np.random.default_rng(0)
a = np.zeros(len(basis))
a[:30] = rng.standard_normal(30)
a /= np.linalg.norm(a)
z0 = StateVector(basis, a)

print(f"basis: {len(basis)} modes up to lambda = {basis.cutoff:g}")
print(f"schedule: {len(schedule.stages)} stages, cutoffs "
      f"{[f'{s.lam_cap:g}' for s in schedule.stages[:4]]} ... "
      f"(clipped at {schedule.lambda_cap:g})\n")

report, z_final = run_lr(z0, schedule, region, reg_threshold=1e-12)

print(" stage   tau      Lambda   |z| before   |z| after    window cost")
for rec in report.stages:
    mark = "*" if rec.clipped else " "
    print(f"  {rec.index:3d}{mark} {rec.tau:8.5f} {rec.lam_cap:8.1f} "
          f"{rec.pre_norm:12.3e} {rec.post_norm:12.3e} {rec.cost:12.3e}")
print("  (* = cutoff clipped at the ceiling)\n")

ratio = report.final_norm / report.initial_norm
print(f"final norm / initial norm : {ratio:.3e}")
print(f"total control energy      : {report.total_cost:.4e}")
print(f"telescoping constant C1   : {report.c1:.4f}")
print(f"worst stage residual      : {report.max_low_residual:.2e}")

# The same loop without any control, for scale: free decay alone only
# reaches exp(-lambda_1 T).
free = float(np.linalg.norm(a * np.exp(-basis.lambdas * 1.0)))
print(f"\nfree decay over the same horizon would leave |z(T)| = {free:.3e}")
