"""Estimator upgrades and the staged spectrum-revealing algorithm.

The ladder, bottom to top:

1. make_state_diagonal: spend half the copies on a basis, the
   eigenbasis of the base estimate made Hermitian, and half on an
   empirical diagonal in that basis, ending with a genuine distribution;
2. final_upgrade: the same machinery run behind a filter onto the
   prefix block, so only the interesting block pays for copies; it
   returns the stage's :class:`StageRecord`;
3. staged_learn: iterate final_upgrade, peeling off large eigenvalues
   into a retained suffix and re-estimating the shrinking prefix, then
   relearn the diagonal with the second half of the budget, and build
   the run's one :class:`CentralOutput`.

Post-processors convert the staged output into estimates with
infidelity, Bures chi-square, or relative-entropy guarantees.

Frames: ``staged_learn`` accumulates a unitary V such that the true
state in the working frame is V^dagger rho V; all output quantities
(prefix L, diagonal q) live in that frame.  A stage reads only the
prefix block of that state, so the learner keeps the block alone,
unnormalized (its trace is the prefix's mass), and updates only the
first d_t columns of V by a stage's estimated basis B.  The block's
rotation B^dagger blk B is formed only when a later stage needs it:
the next prefix's mass is read first, as tr blk minus the retained
columns' b^dagger blk b, and a stage whose mass is at or below
``config.PASS_MASS_FLOOR`` measures that mass alone.  A stage that
spreads its mass uniformly estimates no basis (B would be the identity:
the block keeps its frame), so it only slices the block and leaves V as
it is.  While V is still the first stage's basis, the relearning pass
measures in the ``measurement.Povm`` that stage validated, relabeled to
the order of its values; once a later stage rotates V, it measures in a
newly checked ``Povm.from_basis(V)``.  Every ``to_*`` helper returns its
estimate in the input frame as a decomposition: the columns of V are its
eigenvectors, so no helper multiplies out V diag(q) V^dagger and no
scorer diagonalizes it again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import classical, config, linalg, measurement as ms
from .frobenius import EstimatorSpec

__all__ = [
    "ParameterError",
    "make_state_diagonal",
    "StageRecord",
    "final_upgrade",
    "CentralParams",
    "central_params",
    "plan_budget",
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

def make_state_diagonal(spec: EstimatorSpec, rho: np.ndarray, m: int,
                        rng: np.random.Generator) -> tuple:
    """Basis from half the copies, empirical diagonal from the rest.

    Returns ``(values, povm)``: a genuine probability vector
    (nonnegative, summing to one exactly) sorted ascending, and the
    :class:`measurement.Povm` it was measured in, relabeled to that
    order (ties keep their measured order).  The basis ``povm.basis``
    holds the eigenvectors of ``linalg.hermitian_part`` of the base
    estimate, which ``linalg.require_hermitian`` checks (it refuses a
    NaN); the eigenvalues are never read, so no
    ``linalg.SpectralDecomposition`` is built.  The exchange is free:
    with U that basis and q the raw eigenvalues,
    || U^dagger rho U - diag(q) ||_F equals the Frobenius error of the
    Hermitian estimate, for every rho.  Expected squared error of
    (basis, values) against rho is at most 2 f/m + 2/m for an f-rate
    base estimator.
    """
    if m < 2:
        raise ParameterError("need at least 2 copies to split phases")
    m1 = m // 2
    base = linalg.require_hermitian(
        linalg.hermitian_part(spec.run(rho, m1, rng)))
    povm = ms.Povm.from_basis(np.linalg.eigh(base)[1])
    m2 = m - m1
    values = ms.sample_povm(povm, rho, m2, rng) / m2
    order = values.argsort(kind="stable")
    return values[order], povm.permuted(order)


@dataclass(frozen=True)
class StageRecord:
    """One filtered stage of a staged run, numbered by its position in
    ``CentralOutput.stages``.

    ``values`` estimate the spectrum of the ``prefix`` block and sum
    exactly to the second filter phase's pass rate, kept_second / m_phase;
    of its ``kept_second`` survivors, kept_second // 2 go to the base
    estimate and the rest to the diagonal.  ``povm`` is the measurement
    in the estimated basis, in the block's coordinates and the order of
    ``values``, or None after a uniform spread, which estimates none:
    the block keeps its frame.  ``theta_hat`` is the reporting threshold
    max(tau_hat/(100 r), mass floor); ``retained`` counts the suffix
    entries the tail rule peels off.
    """

    prefix: int
    tau_hat: float
    theta_hat: float
    retained: int
    values: np.ndarray
    povm: ms.Povm | None
    kept_second: int

    @property
    def basis(self) -> np.ndarray | None:
        """The estimated basis, ``povm.basis``, or None."""
        return None if self.povm is None else self.povm.basis


def _tail_rule_floor(values: np.ndarray, r: int) -> int:
    """Retain the maximal suffix above the mass floor.

    Returns the number of suffix entries whose value exceeds
    (1.1)^2 * (sum of values) / (100 r); entries are ascending.
    """
    above = values > 1.1 ** 2 * float(values.sum()) / (100.0 * r)
    return above.size if above.all() else int(above[::-1].argmin())


def final_upgrade(spec: EstimatorSpec, d_t: int, mass: float,
                  blk: np.ndarray | None, r: int, delta: float,
                  m_phase: int,
                  rng: np.random.Generator) -> StageRecord:
    """Filtered two-phase estimate of a prefix block from 2 m_phase copies.

    The prefix has d_t coordinates, and a copy passes the filter onto it
    with probability ``mass``, which both filter phases read.  ``blk``
    is the d_t x d_t prefix block of the working state, unnormalized,
    whose trace is ``mass``, and a passing copy leaves blk / tr blk; at
    or below ``config.PASS_MASS_FLOOR``, where no conditional state is
    formed, the caller may pass None instead (above it, None is
    refused).  ``delta`` is the failure parameter of each coordinate's
    mass floor, the run's delta over the full dimension.  Phase one
    measures the pass rate tau_hat alone, so it forms no conditional
    state; phase two filters again and hands the survivors to
    :func:`make_state_diagonal` on the conditional state
    (``linalg.restrict(blk, mass)``, built only when the survivors
    suffice), rescaling its values by the observed pass rate.  When too
    few copies survive for the base estimator (its ``min_copies`` on the
    block), or the block's true mass is at or below the floor
    (``restrict`` then returns no conditional state), the observed mass
    is spread uniformly instead and ``povm`` is None: the block keeps its
    frame.  The same
    code path serves both the high-mass and low-mass regimes; only the
    analysis distinguishes them.  Returns the stage's record, with the tail
    rule's ``retained`` count; the stage spends 2 m_phase copies.
    """
    if blk is None and mass > config.PASS_MASS_FLOOR:
        raise ValueError(f"a prefix of mass {mass:.3g} above the pass-mass "
                         "floor needs its block")
    tau_hat = ms.filter_subset(mass, k=m_phase, rng=rng) / m_phase
    kept2 = ms.filter_subset(mass, k=m_phase, rng=rng)
    scale = kept2 / m_phase
    # the base estimator gets kept2 // 2 of the survivors
    enough = kept2 >= 2 and kept2 // 2 >= spec.min_copies(d_t)
    cond = linalg.restrict(blk, mass) if enough and blk is not None else None
    if cond is None:
        # too few survivors, or too little mass, to estimate structure;
        # spread the observed mass uniformly so the trace identity
        # stays exact
        povm = None
        values = np.full(d_t, scale / d_t)
    else:
        values, povm = make_state_diagonal(spec, cond, kept2, rng)
        values *= scale
    theta = max(tau_hat / (100.0 * r), classical.mass_floor(m_phase, delta))
    return StageRecord(
        prefix=d_t, tau_hat=tau_hat, theta_hat=theta,
        retained=_tail_rule_floor(values, r), values=values, povm=povm,
        kept_second=kept2)


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


def _stage_scale(r: int, f: float, m: int) -> tuple:
    """(delta, eps_tilde) for an even stage budget of m copies.

    delta, the per-event failure parameter, is DELTA_FLOOR divided by
    the stage-count log log2(m / (r f)) once that passes 1.  eps_tilde
    never rises as m grows, since ln(1/delta) grows far slower than m;
    past m = 2^53, float(m) rounds the step of 2 away, and eps_tilde is
    flat there up to an ulp of rounding.
    """
    delta = config.DELTA_FLOOR / max(math.log2(max(m / (r * f), 1.0)), 1.0)
    return delta, config.C_STAGE * r * f / classical.effective_samples(
        m, delta)


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
    delta, eps_tilde = _stage_scale(r, f, m)
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


@functools.lru_cache(maxsize=None)
def budget_for_scale(d: int, r: int, f: float,
                     eps_tilde_target: float) -> CentralParams:
    """Smallest even stage budget m with eps_tilde(m) <= eps_tilde_target.

    Doubles m until it meets the target, then bisects, which is exact
    because eps_tilde never rises as m grows (:func:`_stage_scale`); on
    its flat stretch past 2^53, the m found meets the target and m - 2
    misses it.  A pure function with a frozen result, so it is solved
    once per argument tuple and repeated calls share one
    :class:`CentralParams`; a refused target is not cached and raises on
    every call.
    """
    if not 0.0 < eps_tilde_target < 1.0:
        raise ParameterError("eps_tilde target must lie in (0, 1)")

    def meets(half: int) -> bool:
        return _stage_scale(r, f, 2 * half)[1] <= eps_tilde_target

    # search m = 2 half: lo misses the target (0 stands for none), hi meets it
    lo, hi = 0, 1
    while not meets(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return central_params(d, r, f, 2 * hi)


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
class CentralOutput:
    """Result of one staged run, in the accumulated frame.

    The true state satisfies rho ~ V diag(q) V^dagger with the quality
    split by the prefix: L = range(prefix) holds the residual mass
    eps_prime, the complement holds the resolved spectrum.  The relearn
    pass measures in V through a ``measurement.Povm``, which refuses a
    V further than ``config.UNITARY_TOL`` from unitary: a V that is the
    first stage's basis is that stage's checked Povm with its outcomes
    relabeled (``Povm.permuted``), and any other V is checked by
    ``Povm.from_basis``.  That check is what lets the ``to_*`` helpers
    hand out (V, q'), for their adjusted values q', as a
    ``linalg.SpectralDecomposition`` in the input frame, sorted
    ascending with V's columns in the same order.

    A run spends exactly ``params.total`` copies: ``params.m`` for each
    record in ``stages`` and the rest on the relearn pass, so the plan
    and the records are the run's copy ledger.
    """

    params: CentralParams
    frame: np.ndarray            # V, d x d unitary
    prefix: int                  # |L| at stop
    q: np.ndarray                # relearned diagonal, sums to 1
    stages: tuple                # one StageRecord per stage, in order
    stop_reason: str

    @property
    def forced_stop(self) -> bool:
        """Whether the budget reserve (all l_max stages run), not the
        learner, ended the stages."""
        return self.stop_reason == "budget reserve"

    @property
    def eps_prime(self) -> float:
        """The estimated mass left on L."""
        return float(np.sum(self.q[:self.prefix]))


def staged_learn(rho: np.ndarray, spec: EstimatorSpec, params: CentralParams,
                 rng: np.random.Generator) -> CentralOutput:
    """Peel large eigenvalues off a shrinking prefix, then relearn.

    Each stage spends params.m copies on a filtered two-phase estimate of
    the current prefix block, rotates the frame's prefix columns by the
    estimated basis B (a uniform-spread stage has none and rotates
    nothing), and moves the suffix entries passing the tail rule out of
    the prefix.  The stage state is that prefix block of V^dagger rho V
    alone, unnormalized, sliced down as the prefix shrinks; the rest of
    the rotated state is never formed.  After a stage with a basis, the
    next prefix's mass is tr blk minus the retained columns'
    b^dagger blk b, a d_t x r product, and B^dagger blk B is formed only
    when that mass clears ``config.PASS_MASS_FLOOR`` or a smaller prefix
    must be sliced from it; a stage below the floor measures the mass
    alone.
    Stages stop once the prefix mass estimate falls to 1.1 eps_tilde, the
    prefix is exhausted, or l_max stages have run (the budget reserve:
    the plan's total is 2 m l_max, and the stages may spend at most its
    first half).  A stage shrinks the prefix by min(r, retained)
    coordinates.  Every copy the stages left, params.total minus m per
    stage, then buys a single computational-basis pass in the final
    frame (in the first stage's Povm while the frame is that stage's
    basis), add-one smoothed on the retained suffix [d_t, d), or on
    every coordinate if that is empty.  So a run spends exactly its
    plan, and the plan with the stage records states every copy.

    ``rho`` must be a d x d state: a matrix that is not Hermitian within
    ``config.HERMITIAN_TOL`` (or holds a NaN), has another shape, or
    whose trace is further than ``config.PSD_TOL`` from 1 raises
    ValueError before any copy is drawn.
    """
    d, r, m = params.d, params.r, params.m
    blk = linalg.require_hermitian(rho)
    if blk.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} state, got shape {blk.shape}")
    mass = float(blk.trace().real)
    if not abs(mass - 1.0) <= config.PSD_TOL:
        raise ValueError(f"trace {mass:.6g} is not 1: not a state")
    v_acc = np.eye(d, dtype=complex)
    # a stage's basis whose rotation of blk is not formed yet: the
    # current block is then (b^dagger blk b)[:d_t, :d_t]
    pending = None
    relearn = None  # the first stage's Povm, while it is the frame
    stages = []

    d_t = d
    while True:
        if d_t == 0:
            stop = "prefix exhausted"
            break
        if len(stages) == params.l_max:
            stop = "budget reserve"
            break
        if pending is not None and mass > config.PASS_MASS_FLOOR:
            blk, pending = _rotate(blk, pending, d_t), None
            mass = float(blk.trace().real)
        rec = final_upgrade(spec, d_t, mass, None if pending is not None
                            else blk, r, params.delta / d, m // 2, rng)
        stages.append(rec)
        # revise the frame's prefix columns by the estimated block basis
        # (the frame starts at I); a uniform spread leaves them as they are
        b = rec.basis
        if b is not None:
            first = len(stages) == 1
            v_acc[:, :d_t] = b if first else v_acc[:, :d_t] @ b
            relearn = rec.povm if first else None

        if rec.tau_hat <= 1.1 * params.eps_tilde:
            stop = "mass converged"
            break
        d_next = max(d_t - r, d_t - rec.retained, 0)
        if b is not None:
            # the rotated block's mass on the next prefix: all of it but
            # what the retained columns carry
            gone = b[:, d_next:]
            mass -= float(np.vdot(gone, blk @ gone).real)
            pending = b
        elif d_next < d_t:
            blk = blk[:d_next, :d_next] if pending is None \
                else _rotate(blk, pending, d_next)
            pending = None
            mass = float(blk.trace().real)
        d_t = d_next

    # relearning pass: every copy the stages left, in one basis
    m_rest = params.total - len(stages) * m
    povm = ms.Povm.from_basis(v_acc) if relearn is None else relearn
    counts = ms.sample_povm(povm, rho, m_rest, rng)
    q = classical.add_one_hybrid(counts, m_rest, d_t if d_t < d else 0)
    return CentralOutput(params=params, frame=v_acc, prefix=d_t, q=q,
                         stages=tuple(stages), stop_reason=stop)


def _rotate(blk: np.ndarray, b: np.ndarray, d_t: int) -> np.ndarray:
    """The prefix block (b^dagger blk b)[:d_t, :d_t]."""
    return (b.conj().T @ blk @ b)[:d_t, :d_t]


# ---------------------------------------------------------------------------
# post-processing
# ---------------------------------------------------------------------------

def to_infidelity(out: CentralOutput) -> linalg.SpectralDecomposition:
    """Zero the unresolved prefix and renormalize.

    The result is the retained block scaled by 1/(1 - eps_prime), on
    the run's frame (see :class:`CentralOutput`); its infidelity against
    the true state is controlled by the end-to-end eps of the run.
    """
    q = out.q.copy()
    q[:out.prefix] = 0.0
    total = q.sum()
    if total <= 0.0:
        raise ParameterError("no mass left on the retained block")
    q /= total
    return linalg.SpectralDecomposition.ascending(q, out.frame)


def to_chi2(out: CentralOutput,
            eta: float | None = None) -> linalg.SpectralDecomposition:
    """Blend uniform mass into the unresolved prefix.

    With eta in (0, 1/2), returns eta * Id_L/|L| + (1 - eta) * diag(q) on
    the run's frame (see :class:`CentralOutput`); the uniform slab gives
    the prefix block a spectrum floor so the Bures chi-square against
    the truth stays bounded.  An empty prefix returns the plain diagonal
    estimate.  Default eta is sqrt(d/r) * eps_tilde, the equalizer of
    the two off-diagonal error terms.
    """
    p = out.params
    if eta is None:
        eta = math.sqrt(p.d / p.r) * p.eps_tilde
    if out.prefix == 0:
        return linalg.SpectralDecomposition.ascending(out.q, out.frame)
    if not 0.0 < eta < 0.5:
        raise ParameterError(f"eta {eta:.3g} outside (0, 1/2)")
    q = (1.0 - eta) * out.q
    q[:out.prefix] += eta / out.prefix
    return linalg.SpectralDecomposition.ascending(q, out.frame)


def chi2_error_terms(out: CentralOutput, eta: float | None = None) -> dict:
    """The four bound contributions for a cookie-blended estimate.

    Descriptive scales, not certified constants: prefix-block off and on
    diagonal, and retained-block off and on diagonal.  No caller yet: it
    is allowlisted for per-trial traces, to show which term dominates.
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


def to_kl(est: linalg.SpectralDecomposition, eps: float):
    """Depolarize an infidelity-eps estimate for a relative-entropy bound.

    Takes the :func:`to_infidelity` decomposition and returns
    (state, bound): its 2 eps depolarization, the values
    (1 - 2 eps) q + 2 eps / d on the same eigenvectors, and the
    guarantee 16 eps (2 + ln(d / 2 eps)) on the relative entropy of the
    true state from it, which holds whenever the input had infidelity at
    most eps <= 1/2.  The map is increasing in q, so the values stay
    ascending.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    d = est.values.size
    bound = 16.0 * eps * (2.0 + np.log(d / (2.0 * eps)))
    values = (1.0 - 2.0 * eps) * est.values + 2.0 * eps / d
    return linalg.SpectralDecomposition(values=values,
                                        vectors=est.vectors), bound
