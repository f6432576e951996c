"""Estimator upgrades and the staged spectrum-revealing algorithm.

The ladder, bottom to top:

1. diagonalize_estimate: symmetrize a raw estimate with
   ``linalg.hermitian_part`` (never increases Frobenius error against
   Hermitian targets) and trade it for an estimated eigenbasis plus raw
   eigenvalues, with an exact error identity;
2. make_state_diagonal: spend half the copies on the basis, half on an
   empirical diagonal in that basis, ending with a genuine distribution;
3. final_upgrade: the same machinery run behind a subset filter, so
   only the interesting block pays for copies;
4. staged_learn: iterate final_upgrade, peeling off large eigenvalues
   into a retained suffix and re-estimating the shrinking prefix, then
   relearn the diagonal with the second half of the budget.

Estimated bases with their values are ``linalg.SpectralDecomposition``
objects, the same type the divergences read.

Post-processors convert the staged output into estimates with
infidelity, Bures chi-square, or relative-entropy guarantees.

Frames: ``staged_learn`` accumulates a unitary V such that the true
state in the working frame is V^dagger rho V; all output quantities
(prefix L, diagonal q) live in that frame, and every ``to_*`` helper
returns states already rotated back to the input frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classical, config, linalg, measurement as ms
from .frobenius import EstimatorSpec

__all__ = [
    "ParameterError",
    "diagonalize_estimate",
    "make_state_diagonal",
    "FinalUpgradeResult",
    "final_upgrade",
    "CentralParams",
    "central_params",
    "plan_budget",
    "StageRecord",
    "CentralOutput",
    "staged_learn",
    "to_infidelity",
    "to_chi2",
    "chi2_error_terms",
    "to_kl",
]


class ParameterError(ValueError):
    """Raised when a parameter set falls outside the guaranteed regime."""


# ---------------------------------------------------------------------------
# upgrade ladder
# ---------------------------------------------------------------------------

def diagonalize_estimate(est: np.ndarray) -> linalg.SpectralDecomposition:
    """Hermitianize and diagonalize a raw matrix estimate.

    The exchange is free: with U the estimated basis and q the raw
    eigenvalues, || U^dagger rho U - diag(q) ||_F equals the Frobenius
    error of the hermitianized estimate, for every rho.
    """
    return linalg.eig_hermitian(linalg.hermitian_part(est))


def make_state_diagonal(spec: EstimatorSpec, rho: np.ndarray, m: int,
                        rng: np.random.Generator
                        ) -> linalg.SpectralDecomposition:
    """Basis from half the copies, empirical diagonal from the rest.

    Returns an estimate whose values are a genuine probability vector
    (nonnegative, summing to one exactly) sorted ascending along with the
    matching basis.  Expected squared error of (basis, values) against
    rho is at most 2 f/m + 2/m for an f-rate base estimator.
    """
    if m < 2:
        raise ParameterError("need at least 2 copies to split phases")
    m1 = m // 2
    base = spec.run(rho, ms.CopyBudget(total=m1), rng)
    dig = diagonalize_estimate(base)
    m2 = m - m1
    counts = ms.sample_povm(ms.Povm.from_basis(dig.vectors), rho, m2, rng)
    q = counts / m2
    order = np.argsort(q, kind="stable")
    return linalg.SpectralDecomposition(values=q[order],
                                        vectors=dig.vectors[:, order])


@dataclass(frozen=True)
class FinalUpgradeResult:
    """One filtered estimation round: pass rate plus a scaled diagonal.

    ``values`` sum exactly to kept_second / m_phase (the observed pass
    rate of the second phase) and estimate the spectrum of rho[S];
    ``basis`` is |S| x |S| in the subset's coordinates.  ``theta_hat``
    is the reporting threshold max(tau_hat/(100 r), mass floor).
    """

    tau_hat: float
    theta_hat: float
    basis: np.ndarray
    values: np.ndarray
    kept_first: int
    kept_second: int
    consumed: int


def final_upgrade(spec: EstimatorSpec, rho: np.ndarray, subset, r: int,
                  delta: float, m_phase: int, rng: np.random.Generator,
                  budget: ms.CopyBudget | None = None) -> FinalUpgradeResult:
    """Filtered two-phase estimate of the prefix block; consumes 2 m_phase.

    Phase one measures the pass rate tau_hat alone; phase two filters
    again and hands the survivors to :func:`make_state_diagonal` on the
    conditional state, rescaling its values by the observed pass rate.
    When too few copies survive for the base estimator (its
    ``min_copies`` on the block), or the block's true mass is at or below
    ``config.PASS_MASS_FLOOR`` (``filter_subset`` then returns no
    conditional state), the observed mass is spread uniformly instead.
    The same code path serves both the high-mass and low-mass regimes;
    only the analysis distinguishes them.
    """
    idx = np.asarray(subset, dtype=int)
    d = rho.shape[0]
    if budget is not None:
        budget.take(2 * m_phase)
    kept1, _ = ms.filter_subset(rho, idx, m_phase, rng)
    tau_hat = kept1 / m_phase
    kept2, cond = ms.filter_subset(rho, idx, m_phase, rng)
    scale = kept2 / m_phase
    if (kept2 < 2 or cond is None
            or kept2 // 2 < spec.min_copies(idx.size)):
        # too few survivors to estimate structure (the base estimator
        # gets kept2 // 2 of them); spread the observed mass uniformly
        # so the trace identity stays exact
        basis = np.eye(idx.size, dtype=complex)
        values = np.full(idx.size, scale / idx.size)
    else:
        dig = make_state_diagonal(spec, cond, kept2, rng)
        basis = dig.vectors
        values = dig.values * scale
    theta = max(tau_hat / (100.0 * r),
                classical.mass_floor(m_phase, delta / d))
    return FinalUpgradeResult(
        tau_hat=tau_hat, theta_hat=theta, basis=basis, values=values,
        kept_first=kept1, kept_second=kept2, consumed=2 * m_phase)


# ---------------------------------------------------------------------------
# parameters for the staged algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralParams:
    """Derived quantities for one staged run; build via central_params."""

    d: int
    r: int
    f: float
    m: int              # copies per stage, even
    delta: float        # per-event failure parameter
    eps_tilde: float    # per-stage accuracy scale
    l_max: int          # stage allowance
    eps: float          # end-to-end accuracy scale, eps_tilde * l_max
    total: int          # full budget M = 2 m l_max


def _confidence(r: int, f: float, m: int) -> float:
    """Per-event failure parameter delta for a stage budget of m copies."""
    return config.DELTA_FLOOR / max(math.log2(max(m / (r * f), 1.0)), 1.0)


def central_params(d: int, r: int, f: float, m: int) -> CentralParams:
    """Validate and derive the staged algorithm's parameter set.

    Raises ParameterError when the budget is too small for the accuracy
    bookkeeping to close (eps_tilde >= 1 or eps above the ceiling), or so
    large that eps_tilde falls to PASS_MASS_FLOOR, below which the lab
    resolves no block mass.
    """
    if not 1 <= r <= d:
        raise ParameterError(f"rank must be in [1, {d}]")
    m = int(m)
    m -= m % 2  # phases split the stage budget in half
    if m < r:
        raise ParameterError("need at least r copies per stage")
    delta = _confidence(r, f, m)
    m_delta = classical.effective_samples(m, delta)
    eps_tilde = config.C_STAGE * r * f / m_delta
    if eps_tilde >= 1.0:
        raise ParameterError(
            f"stage budget {m} gives eps_tilde {eps_tilde:.3g} >= 1")
    if eps_tilde <= config.PASS_MASS_FLOOR:
        raise ParameterError(
            f"stage budget {m} gives eps_tilde {eps_tilde:.3g} at or below "
            f"the pass-mass floor {config.PASS_MASS_FLOOR:g}")
    l_max = math.ceil(math.log2(1.0 / eps_tilde))
    eps = eps_tilde * l_max
    if eps > config.EPS_CEILING:
        raise ParameterError(
            f"eps {eps:.3g} exceeds ceiling {config.EPS_CEILING}")
    # the per-coordinate mass floor must sit below the stage threshold
    if classical.mass_floor(m, delta / d) > eps_tilde / (4.0 * r):
        raise ParameterError("mass floor exceeds eps_tilde/(4r)")
    return CentralParams(d=d, r=r, f=float(f), m=m, delta=delta,
                         eps_tilde=eps_tilde, l_max=l_max, eps=eps,
                         total=2 * m * l_max)


def budget_for_scale(d: int, r: int, f: float,
                     eps_tilde_target: float) -> CentralParams:
    """Smallest stage budget whose per-stage scale meets the target.

    Solves the fixed point between m and delta(m) for
    eps_tilde <= eps_tilde_target, then nudges m upward if rounding in
    the confidence schedule left the scale slightly above the target.
    """
    if not 0.0 < eps_tilde_target < 1.0:
        raise ParameterError("eps_tilde target must lie in (0, 1)")
    delta = config.DELTA_FLOOR
    m = max(int(config.C_STAGE * r * f * config.CONF_SCALE
                * math.log(1.0 / delta) / eps_tilde_target), 2 * int(r))
    for _ in range(60):
        delta = _confidence(r, f, m)
        m_new = int(math.ceil(config.C_STAGE * r * f * config.CONF_SCALE
                              * math.log(1.0 / delta) / eps_tilde_target))
        if m_new == m:
            break
        m = m_new
    m += m % 2
    params = central_params(d, r, f, m)
    while params.eps_tilde > eps_tilde_target:
        m += max(2, m // 20)
        m -= m % 2
        params = central_params(d, r, f, m)
    return params


def plan_budget(d: int, r: int, f: float, eps_final: float) -> CentralParams:
    """Smallest stage budget whose end-to-end eps lands under eps_final.

    Targets eps_tilde = eps_final * sqrt(r/d) / K_PLAN; the resulting
    total budget scales like sqrt(r d) * f / eps_final up to the log
    factors in the confidence schedule.
    """
    if not 0.0 < eps_final <= 1.0:
        raise ParameterError("eps_final must lie in (0, 1]")
    target = eps_final * math.sqrt(r / d) / config.K_PLAN
    params = budget_for_scale(d, r, f, target)
    if params.eps > eps_final:
        raise ParameterError(
            f"planned eps {params.eps:.3g} exceeds requested {eps_final}")
    return params


# ---------------------------------------------------------------------------
# the staged algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    stage: int
    prefix: int          # d_t, size of the measured prefix
    tau_hat: float
    theta_hat: float
    retained: int        # suffix indices peeled off this stage
    values: np.ndarray   # scaled diagonal estimate on the prefix


@dataclass
class CentralOutput:
    """Result of one staged run, in the accumulated frame.

    The true state satisfies rho ~ V diag(q) V^dagger with the quality
    split by the prefix: L = range(prefix) holds the residual mass
    eps_prime, the complement holds the resolved spectrum.
    """

    params: CentralParams
    frame: np.ndarray            # V, d x d unitary
    prefix: int                  # |L| at stop
    q: np.ndarray                # relearned diagonal, sums to 1
    eps_prime: float             # estimated mass left on L
    stages: list = field(default_factory=list)
    consumed: int = 0
    stop_reason: str = ""
    forced_stop: bool = False

    @property
    def retained(self) -> np.ndarray:
        return np.arange(self.prefix, self.params.d)

    def state(self) -> np.ndarray:
        """The diagonal estimate rotated back to the input frame."""
        return (self.frame * self.q) @ self.frame.conj().T


def _tail_rule_floor(values: np.ndarray, r: int) -> int:
    """Retain the maximal suffix above the mass floor.

    Returns the number of suffix entries whose value exceeds
    (1.1)^2 * (sum of values) / (100 r); entries are ascending.
    """
    beta = 1.1 ** 2 * float(np.sum(values)) / (100.0 * r)
    above = values > beta
    # maximal suffix: scan from the top until the floor is hit
    k = 0
    for v in above[::-1]:
        if not v:
            break
        k += 1
    return k


def staged_learn(rho: np.ndarray, spec: EstimatorSpec, params: CentralParams,
                 rng: np.random.Generator) -> CentralOutput:
    """Peel large eigenvalues off a shrinking prefix, then relearn.

    Each stage spends params.m copies on a filtered two-phase estimate of
    the current prefix, rotates the working frame by the estimated basis,
    and moves the suffix entries passing the tail rule out of the prefix.
    Stages stop once the prefix mass estimate falls to 1.1 eps_tilde, the
    stage count passes d, or the budget reserve (half the total, kept for
    the relearning pass) would be broken.  The reserve then buys a single
    computational-basis pass in the final frame, add-one smoothed on the
    retained suffix.
    """
    d, r, m = params.d, params.r, params.m
    budget = ms.CopyBudget(total=params.total)
    v_acc = np.eye(d, dtype=complex)
    rho_cur = np.asarray(rho, dtype=complex)
    out = CentralOutput(params=params, frame=v_acc, prefix=d,
                        q=np.zeros(d), eps_prime=0.0)

    d_t = d
    stage = 0
    while True:
        if d_t == 0:
            out.stop_reason = "prefix exhausted"
            break
        if budget.remaining - m < params.total // 2:
            out.forced_stop = True
            out.stop_reason = "budget reserve"
            break
        stage += 1
        res = final_upgrade(spec, rho_cur, np.arange(d_t), r, params.delta,
                            m // 2, rng, budget=budget)
        # revise the frame by the estimated prefix basis
        w = np.eye(d, dtype=complex)
        w[:d_t, :d_t] = res.basis
        rho_cur = w.conj().T @ rho_cur @ w
        v_acc = v_acc @ w

        retained = _tail_rule_floor(res.values, r)
        out.stages.append(StageRecord(
            stage=stage, prefix=d_t, tau_hat=res.tau_hat,
            theta_hat=res.theta_hat, retained=retained, values=res.values))

        if res.tau_hat <= 1.1 * params.eps_tilde:
            out.stop_reason = "mass converged"
            break
        if stage > d:
            out.stop_reason = "stage cap"
            break
        d_next = max(d_t - r, 0)
        d_t = max(d_next, d_t - retained)

    out.prefix = d_t
    out.frame = v_acc

    # relearning pass: everything left in the budget, one basis
    m_rest = budget.remaining
    counts = ms.sample_povm(ms.Povm.from_basis(v_acc), rho, m_rest, rng,
                            budget=budget)
    suffix = np.arange(d_t, d)
    q = classical.add_one_hybrid(counts, m_rest,
                                 suffix if suffix.size else np.arange(d))
    out.q = q
    out.eps_prime = float(np.sum(q[:d_t]))
    out.consumed = budget.consumed
    return out


# ---------------------------------------------------------------------------
# post-processing
# ---------------------------------------------------------------------------

def to_infidelity(out: CentralOutput) -> np.ndarray:
    """Zero the unresolved prefix and renormalize.

    The result is the retained block scaled by 1/(1 - eps_prime); its
    infidelity against the true state is controlled by the end-to-end
    eps of the run.
    """
    q = out.q.copy()
    q[:out.prefix] = 0.0
    total = q.sum()
    if total <= 0.0:
        raise ParameterError("no mass left on the retained block")
    q /= total
    return (out.frame * q) @ out.frame.conj().T


def to_chi2(out: CentralOutput, eta: float | None = None) -> np.ndarray:
    """Blend uniform mass into the unresolved prefix.

    With eta in (0, 1/2), returns eta * Id_L/|L| + (1 - eta) * diag(q) in
    the output frame; the uniform slab gives the prefix block a spectrum
    floor so the Bures chi-square against the truth stays bounded.  An
    empty prefix returns the plain diagonal estimate.  Default eta is
    sqrt(d/r) * eps_tilde, the equalizer of the two off-diagonal error
    terms.
    """
    p = out.params
    if eta is None:
        eta = math.sqrt(p.d / p.r) * p.eps_tilde
    if out.prefix == 0:
        return out.state()
    if not 0.0 < eta < 0.5:
        raise ParameterError(f"eta {eta:.3g} outside (0, 1/2)")
    q = (1.0 - eta) * out.q
    q[:out.prefix] += eta / out.prefix
    return (out.frame * q) @ out.frame.conj().T


def chi2_error_terms(out: CentralOutput, eta: float | None = None) -> dict:
    """The four bound contributions for a cookie-blended estimate.

    Descriptive scales, not certified constants: prefix-block off and on
    diagonal, and retained-block off and on diagonal.  Logged by the
    harness so runs can show which term dominates.
    """
    p = out.params
    if eta is None:
        eta = math.sqrt(p.d / p.r) * p.eps_tilde
    ell = out.prefix
    log_term = p.eps_tilde * math.log(1.0 / p.eps_tilde)
    return {
        "eta": eta,
        "block_off": log_term + (ell / p.r) * p.eps_tilde ** 2 / eta
        if ell else 0.0,
        "block_on": eta if ell else 0.0,
        "tail_off": p.eps,
        "tail_on": p.eps_tilde,
    }


def to_kl(rho_hat: np.ndarray, eps: float):
    """Depolarize an infidelity-eps estimate for a relative-entropy bound.

    Returns (state, bound): the 2 eps depolarization of the input and the
    guarantee 16 eps (2 + ln(d / 2 eps)) that holds whenever the input
    had infidelity at most eps <= 1/2.
    """
    from .divergences import kl_from_infidelity_bound
    d = rho_hat.shape[0]
    bound = kl_from_infidelity_bound(d, eps)
    return linalg.depolarize(rho_hat, 2.0 * eps), bound

