"""Walk through the full analysis of Simpson's rule on [-1, 1].

Three equispaced nodes {-1, 0, 1} determine everything: the canonical
basis, the fundamental system, the weights (its least-squares solution),
the minimax solution, and the diagnostics that compare rules.
"""

import numpy as np

import quadlsq as q

np.set_printoptions(precision=12, suppress=False)

ns = q.NodeSet((-1.0, 0.0, 1.0))
print("nodes:", ns.nodes)

# The canonical basis attaches one new root per step, so its evaluation
# matrix at the nodes is upper triangular.  P[j] is phi_j for j < 3 and
# q_j for 3 <= j <= 6, with exact Fraction coefficients, low to high.
P = q.build_basis(ns)
for j, p in enumerate(P):
    name = "phi" if j < ns.n else "q"
    print(f"P[{j}] = {name}_{j} coefficients (low->high):", ", ".join(map(str, p)))

fs = q.build_system(ns)
print("\nfundamental system F w = c:")
print("F =\n", fs.F)
print("c =", fs.c_tilde)
print("moment profile mu_0..mu_6:", fs.moments)
print("degree of exactness:", fs.degree)
print("principal moment mu_Q:", fs.mu_Q, "(= -4/15)")

# Backward substitution on the triangular block gives the weights; they
# are also the least-squares solution of the full 4x3 system.
sol = q.solve_rule(fs)
print("\nweights omega:", sol.omega, "(= [1/3, 4/3, 1/3])")
print("residual at omega:", q.residual(fs, sol._omega_dd))
print("  -> zero except the last component, whose size is |mu_Q|")

# The minimax solution differs from omega by the triangular correction
# A tau = |mu_Q| v.  At z* every residual component has magnitude |mu_Q|.
print("\ncorrection tau:", sol.tau, "(= [2/15, 0, 2/15])")
print("minimax z*:", sol.z_star, "(= [7/15, 4/3, 7/15])")
print("residual at z*:", q.equioscillation_residual(fs, sol))
print("eps from ||r||_2^2/||r||_1:", q.epsilon_check(fs, sol))

rep = q.build_report(ns, family="simpson")
print("\nrule angle:", rep.angle_deg, "degrees")
print("norm parameters: N_omega =", rep.N_omega, " N_z =", rep.N_z)
print("error coefficient alpha = mu_Q/4! =", rep.alpha)
print("bounds: |mu_Q| <=", rep.Omega, " and 1 <=", rep.Gamma, "<=", rep.cond_inf_A)
