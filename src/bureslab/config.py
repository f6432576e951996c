"""Numerical tolerances and frozen algorithm constants.

Each frozen algorithm constant carries its derivation and names the test
or acceptance criterion ("criterion N" of ``bureslab accept``) checking it.
"""

# ---------------------------------------------------------------------------
# tolerances (exact linear-algebra identities vs float noise)
# ---------------------------------------------------------------------------

#: eigenvalues at or below this are treated as zero when inverting
SPECTRAL_CUTOFF = 1e-12

#: smallest pass probability tr rho[S] the lab conditions on.  The
#: conditional state rho[S] / tr rho[S] carries rho's round-off amplified
#: by 1 / tr rho[S]: at this floor that is ~1e-12, inside PSD_TOL; below
#: it the block is mostly noise and is left unresolved (linalg.restrict).
#: The staged learner's eps_tilde must lie above it (central_params).
PASS_MASS_FLOOR = 1e-6

#: max allowed |A - A^dagger| entry for inputs declared Hermitian
HERMITIAN_TOL = 1e-12

#: slack for PSD / completeness checks on states and POVMs
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10

# ---------------------------------------------------------------------------
# confidence schedule
# ---------------------------------------------------------------------------

#: m_delta = m / (CONF_SCALE * ln(1/delta)): any mass >= 1/m_delta is then
#: estimated within a 1.01 factor (Chernoff: c >= 4/eta^2, eta = 1 - 1/1.01,
#: rounded up).  Checked by test_classical::test_conf_scale_covers_the_floor.
CONF_SCALE = 41000.0

# ---------------------------------------------------------------------------
# staged chi-square algorithm
# ---------------------------------------------------------------------------

#: per-stage rate constant C in eps_tilde = C * r * f / m_delta
C_STAGE = 64.0

#: hard ceiling on eps = eps_tilde * l_max; parameter sets violating it
#: are rejected rather than run out of regime
EPS_CEILING = 0.25

#: smallest admissible failure parameter when the stage-count log is <= 1
DELTA_FLOOR = 1e-4

#: planner head-room: the blended estimate pays about sqrt(d/r) * eps_tilde
#: * ln(1/eps_tilde) end to end, so the planner asks for a stage scale
#: eps_tilde = eps_final * sqrt(r/d) / K_PLAN.  Checked by criterion 7.
K_PLAN = 24.0

# ---------------------------------------------------------------------------
# component estimators
# ---------------------------------------------------------------------------

#: expected Frobenius-squared error of the matching-POVM estimator is
#: <= K_ACC * d^2 / n at n copies; the worst case, (d - 1/d)/shots at
#: n = (2 rounds + 1) shots, fits any K_ACC >= 2.12 at any d.  Checked by
#: criterion 5, test_frobenius::test_simple_frobenius_error_rate and
#: ::test_simple_frobenius_odd_dimension.
K_ACC = 4.5

# ---------------------------------------------------------------------------
# mutual-information testers, checked by criteria 12 and 13 and test_mitest's
# test_plan_frozen and test_sparsest_criterion_12_input_keeps_its_level
# ---------------------------------------------------------------------------

#: learning-accuracy scale: eps_prime = C_INEQ * eps / ln(d/eps)
C_INEQ = 1.0 / 64.0

#: identity-tester sample budget n = C_TEST_BUDGET * sqrt(#outcomes) / eps_t
C_TEST_BUDGET = 16.0

#: marginal-learning budget n = C_LEARN_CLASSICAL * d / eps_dd, sized so the
#: Markov failure odds of each chi-square-eps_dd/3 learn stay under 0.005
C_LEARN_CLASSICAL = 1200.0

#: Pearson-statistic rejection margin added to the closed-form null
#: quantile (mitest.pearson_null_quantile), as a fraction of n * eps_t
PEARSON_MARGIN = 0.75

#: level of the Pearson null quantile
PEARSON_NULL_LEVEL = 0.99
