"""Dense reference for the staged learner's stage loop.

This is the loop as it ran before the learner kept only the prefix
block: every stage rotates the whole d x d working state as w^dagger
rho w and the whole frame as V w, where w is the estimated prefix basis
padded with the identity, and the filtered estimate gathers the prefix
out of the full state by index, reading its pass mass as the trace of
that gathered block.  It measures the relearning pass in a newly
checked ``Povm.from_basis`` of the final frame.  It stops for the
budget reserve by its own copy count, not by the library's count of
stages: a stage runs only while the copies left after it are at least
half the plan's total, and the relearn spends what is left.  The
library's ``pipeline.staged_learn`` must take the same random draws and
reach the same frame, prefix, diagonal and stage records, within
round-off of the block-sized products and of its route to a stage's
mass.

Import from a test as ``from oracles import dense_stages``.
"""

import numpy as np

from bureslab import classical, linalg, measurement as ms, pipeline as pl


def final_upgrade(spec, rho, subset, r, delta, m_phase, rng):
    """Filtered two-phase estimate of rho[S] from 2 m_phase copies,
    with delta the run's failure parameter over d = rho's dimension;
    returns the stage's record and the pass mass tr rho[S]."""
    idx = np.asarray(subset, dtype=int)
    d = rho.shape[0]
    blk = rho[np.ix_(idx, idx)]
    mass = np.trace(blk).real
    tau_hat = ms.filter_subset(mass, k=m_phase, rng=rng) / m_phase
    kept2 = ms.filter_subset(mass, k=m_phase, rng=rng)
    cond = linalg.restrict(blk, mass)
    scale = kept2 / m_phase
    if (kept2 < 2 or cond is None
            or kept2 // 2 < spec.min_copies(idx.size)):
        povm = None
        values = np.full(idx.size, scale / idx.size)
    else:
        values, povm = pl.make_state_diagonal(spec, cond, kept2, rng)
        values = values * scale
    theta = max(tau_hat / (100.0 * r),
                classical.mass_floor(m_phase, delta / d))
    return pl.StageRecord(
        prefix=idx.size, tau_hat=tau_hat, theta_hat=theta,
        retained=pl._tail_rule_floor(values, r), values=values, povm=povm,
        kept_second=kept2), mass


def staged_learn(rho, spec, params, rng):
    """The staged learner with the full state and frame rotated per stage.

    Returns ``(out, masses)``: the run's output and each stage's true
    pass mass, the trace of its prefix block."""
    d, r, m = params.d, params.r, params.m
    remaining = params.total
    v_acc = np.eye(d, dtype=complex)
    rho_cur = np.asarray(rho, dtype=complex)
    stages, masses = [], []
    d_t = d
    while True:
        if d_t == 0:
            stop = "prefix exhausted"
            break
        if remaining - m < params.total // 2:
            stop = "budget reserve"
            break
        remaining -= m
        rec, mass = final_upgrade(spec, rho_cur, np.arange(d_t), r,
                                  params.delta, m // 2, rng)
        stages.append(rec)
        masses.append(mass)
        w = np.eye(d, dtype=complex)
        if rec.basis is not None:  # no basis: the identity
            w[:d_t, :d_t] = rec.basis
        rho_cur = w.conj().T @ rho_cur @ w
        v_acc = v_acc @ w
        if rec.tau_hat <= 1.1 * params.eps_tilde:
            stop = "mass converged"
            break
        d_t = max(d_t - r, d_t - rec.retained, 0)
    counts = ms.sample_povm(ms.Povm.from_basis(v_acc), rho, remaining, rng)
    q = classical.add_one_hybrid(counts, remaining, d_t if d_t < d else 0)
    return pl.CentralOutput(params=params, frame=v_acc, prefix=d_t, q=q,
                            stages=tuple(stages), stop_reason=stop), masses
