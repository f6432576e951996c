import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

from bureslab import config, divergences as dv, frobenius as fb, linalg
from bureslab import measurement as ms, pipeline as pl
from oracles import analysis, dense_stages


#: f = d^2 reads no rank cap, so one spec serves every r
ORACLE = fb.parse_estimator("oracle:f=d2", 1)


def test_hermitianize_and_diagonalize_identity():
    rng = np.random.default_rng(201)
    rho = linalg.random_density(5, 5, rng)
    raw = rho + 0.1 * (rng.standard_normal((5, 5))
                       + 1j * rng.standard_normal((5, 5)))
    herm = linalg.hermitian_part(raw)
    dig = linalg.eig_hermitian(herm)
    lhs = linalg.frob_sq(dig.vectors.conj().T @ rho @ dig.vectors
                         - np.diag(dig.values))
    rhs = linalg.frob_sq(rho - herm)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_diagonal_estimate_invariants():
    with pytest.raises(ValueError):
        linalg.SpectralDecomposition(np.array([0.7, 0.3]), np.eye(2))
    de = linalg.SpectralDecomposition(np.array([-0.1, 1.1]), np.eye(2))
    assert np.allclose(de.matrix(), np.diag([-0.1, 1.1]))


def test_make_state_diagonal_output_shape():
    rng = np.random.default_rng(203)
    rho = linalg.random_density(4, 2, rng)
    values, povm = pl.make_state_diagonal(ORACLE, rho, 10_000, rng)
    assert values.sum() == pytest.approx(1.0)
    assert np.all(values >= 0)
    assert np.all(np.diff(values) >= 0)
    u = povm.basis  # the Povm in the order of the values
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
    with pytest.raises(pl.ParameterError):
        pl.make_state_diagonal(ORACLE, rho, 1, rng)


def test_make_state_diagonal_error_rate():
    rng = np.random.default_rng(207)
    d, m, trials = 4, 20_000, 200
    rho = linalg.random_density(d, d, rng)
    f = ORACLE.rate(d, d)
    errs = np.empty(trials)
    for t in range(trials):
        values, povm = pl.make_state_diagonal(ORACLE, rho, m, rng)
        u = povm.basis
        errs[t] = linalg.frob_sq(u.conj().T @ rho @ u - np.diag(values))
    bound = 2 * f / m + 2 / m
    se = errs.std() / np.sqrt(trials)
    assert errs.mean() <= bound + 4 * se


def test_final_upgrade_accounting():
    rng = np.random.default_rng(217)
    rho = linalg.random_density(5, 3, rng)
    blk = rho[:3, :3]
    res = pl.final_upgrade(ORACLE, 3, np.trace(blk).real, blk, r=3,
                           delta=0.01 / 5, m_phase=20_000, rng=rng)
    # exact trace identity: values sum to the observed phase-two pass rate
    assert res.values.sum() == pytest.approx(res.kept_second / 20_000, abs=1e-12)
    tau = np.trace(blk).real
    assert abs(res.tau_hat - tau) < 0.02
    want_theta = max(res.tau_hat / 300.0,
                     1.0 / (20_000 / (config.CONF_SCALE * math.log(5 / 0.01))))
    assert res.theta_hat == pytest.approx(want_theta)


def test_final_upgrade_starved_filter():
    rng = np.random.default_rng(219)
    rho = np.diag([0.999999, 1e-6, 0.0]).astype(complex) \
        + np.zeros((3, 3), dtype=complex)
    rho /= np.trace(rho).real
    res = pl.final_upgrade(ORACLE, 2, np.trace(rho[1:, 1:]).real,
                           rho[1:, 1:], r=1, delta=0.1 / 3, m_phase=50,
                           rng=rng)
    # almost surely zero or one survivor: uniform fallback keeps the trace
    assert res.values.sum() == pytest.approx(res.kept_second / 50, abs=1e-12)


def test_final_upgrade_starved_base_estimator():
    """Phase two keeps a few survivors, fewer than twice what the simple
    estimator needs on the block: the uniform spread takes over instead
    of the estimator refusing its budget."""
    rng = np.random.default_rng(221)
    rho = linalg.random_density(6, 6, rng)
    simple = fb.parse_estimator("simple", 2)
    res = pl.final_upgrade(simple, 4, np.trace(rho[:4, :4]).real,
                           rho[:4, :4], r=2, delta=0.1 / 6, m_phase=12,
                           rng=rng)
    assert 2 <= res.kept_second < 2 * simple.min_copies(4)
    assert res.basis is None  # the block keeps its frame
    assert np.all(res.values == res.values[0])
    assert res.values.sum() == pytest.approx(res.kept_second / 12, abs=1e-12)


def test_final_upgrade_spreads_sub_floor_mass_uniformly():
    """A prefix of mass 1e-11 in a rotated frame, below PASS_MASS_FLOOR.
    Normalized by hand, the block's Born probabilities dip ~1e-6 below
    zero: round-off of the parent state amplified by 1/mass, which the
    sampler refuses.  final_upgrade never forms that matrix: with plenty
    of survivors it still takes the uniform branch."""
    rng = np.random.default_rng(223)
    d, tau = 16, 1e-11
    q = linalg.haar_unitary(d, rng)
    v, u = q[:, :1], q[:, 1:2]
    rho = (1 - tau) * (v @ v.conj().T) + tau * (u @ u.conj().T)
    w = np.roll(q, -1, axis=1)  # the dominant direction goes last
    rho_cur = w.conj().T @ rho @ w
    blk = rho_cur[:d - 1, :d - 1]
    cond = blk / np.trace(blk).real
    design = ms.matching_povms(d - 1)
    with pytest.raises(ValueError, match="not a state"):
        ms.sample_povm(design, cond, design.n_rows * 10, rng)
    assert linalg.restrict(blk, np.trace(blk).real) is None
    simple = fb.parse_estimator("simple", 1)
    m_phase = 10 ** 13
    res = pl.final_upgrade(simple, d - 1, np.trace(blk).real, blk, r=1,
                           delta=0.1 / d, m_phase=m_phase, rng=rng)
    # enough survivors for the base estimator: the floor chose the branch
    assert res.kept_second // 2 >= simple.min_copies(d - 1)
    assert res.basis is None  # the block keeps its frame
    assert np.all(res.values == res.values[0])
    assert res.values.sum() == pytest.approx(res.kept_second / m_phase,
                                              abs=1e-12)


def test_final_upgrade_below_the_floor_reads_the_mass_alone():
    """Below PASS_MASS_FLOOR the block is never read: passing the mass
    alone takes the same draws and spreads the same values.  Above it, a
    missing block is refused rather than spread."""
    rng = np.random.default_rng(227)
    rho = linalg.random_density(6, 6, rng)
    blk = rho[:4, :4] * (1e-7 / np.trace(rho[:4, :4]).real)
    mass = np.trace(blk).real
    got, want = (pl.final_upgrade(ORACLE, 4, mass, b, r=1, delta=0.1 / 6,
                                  m_phase=10 ** 12,
                                  rng=np.random.default_rng(229))
                 for b in (None, blk))
    assert got.basis is None and want.basis is None
    assert (got.tau_hat, got.kept_second) == (want.tau_hat, want.kept_second)
    assert np.array_equal(got.values, want.values)
    with pytest.raises(ValueError, match="floor"):
        pl.final_upgrade(ORACLE, 4, 2 * config.PASS_MASS_FLOOR, None, r=1,
                         delta=0.1 / 6, m_phase=10, rng=rng)


class TestCentralParams:
    def test_derivations(self):
        d, r, f, m = 8, 2, 64.0, 10 ** 12
        p = pl.central_params(d, r, f, m)
        assert p.m % 2 == 0
        ratio = p.m / (r * f)
        assert p.delta == pytest.approx(config.DELTA_FLOOR / math.log2(ratio))
        m_delta = p.m / (config.CONF_SCALE * math.log(1 / p.delta))
        assert p.eps_tilde == pytest.approx(config.C_STAGE * r * f / m_delta)
        assert p.l_max == math.ceil(math.log2(1 / p.eps_tilde))
        assert p.eps == pytest.approx(p.eps_tilde * p.l_max)
        assert p.total == 2 * p.m * p.l_max

    def test_rejects_small_budget(self):
        with pytest.raises(pl.ParameterError):
            pl.central_params(4, 2, 16.0, 10_000)

    def test_rejects_eps_tilde_at_pass_mass_floor(self):
        d, r, f = 4, 1, 4.0
        assert pl.central_params(d, r, f, 10 ** 14).eps_tilde \
            > config.PASS_MASS_FLOOR
        with pytest.raises(pl.ParameterError, match="pass-mass floor"):
            pl.central_params(d, r, f, 10 ** 15)

    def test_rejects_bad_rank(self):
        with pytest.raises(pl.ParameterError):
            pl.central_params(4, 5, 16.0, 10 ** 12)


def test_budget_for_scale_is_solved_once_per_argument_tuple():
    """Repeated arguments share one CentralParams, equal to a fresh
    solve."""
    p = pl.budget_for_scale(8, 2, 64.0, 0.01)
    assert pl.budget_for_scale(8, 2, 64.0, 0.01) is p
    assert pl.budget_for_scale.__wrapped__(8, 2, 64.0, 0.01) == p


@pytest.mark.parametrize("target", [0.0, 1.5, 1e-9])
def test_budget_for_scale_refuses_on_every_call(target):
    """A refused target is not cached: the second call raises too.
    1e-9 puts eps_tilde at or below the pass-mass floor."""
    for _ in range(2):
        with pytest.raises(pl.ParameterError):
            pl.budget_for_scale(4, 1, 4.0, target)


def test_plan_budget_meets_target_and_halving():
    for (d, r) in [(8, 1), (8, 8), (4, 2)]:
        p2 = pl.plan_budget(d, r, r * d, 0.2)
        p1 = pl.plan_budget(d, r, r * d, 0.1)
        assert p2.eps <= 0.2
        assert p1.eps <= 0.1
        assert p1.total / p2.total <= 2.5


def test_plan_budget_is_the_smallest():
    """The planned m meets the per-stage target and two copies fewer per
    stage miss it.  The pinned plan (64, 2, 4.5 * 64^2, 0.05) is one an
    earlier planner made 5% too large; the grid reaches m past 2^53."""
    assert pl.plan_budget(64, 2, 4.5 * 64 ** 2, 0.05).m == 3_363_313_020_225_418
    for d, r, kind, eps in itertools.product(
            (2, 7, 16, 32, 64), (1, 2, 4, 64), ("d", "rd", "d2"),
            (0.02, 0.05, 0.1, 0.2, 0.5)):
        if r > d:
            continue
        f = {"d": d, "rd": r * d, "d2": 4.5 * d * d}[kind]
        p = pl.plan_budget(d, r, f, eps)
        target = eps * math.sqrt(r / d) / config.K_PLAN
        assert p.eps_tilde <= target
        assert pl.central_params(d, r, f, p.m - 2).eps_tilde > target, \
            (d, r, f, eps)


def _scale_run(r, f, m0, steps=1000) -> np.ndarray:
    """eps_tilde at the consecutive even m from m0 on."""
    m0 -= m0 % 2
    return np.array([pl._stage_scale(r, f, m0 + 2 * k)[1]
                     for k in range(steps)])


@pytest.mark.parametrize("r, f", [(1, 2.0), (2, 64.0), (3, 4.5 * 7 ** 2),
                                  (16, 4.5 * 64 ** 2)])
def test_stage_scale_never_rises(r, f):
    """eps_tilde(m) never rises as m grows, the fact budget_for_scale's
    bisection rests on.  The runs start below 2 r f, where the log factor
    ln(1/delta) turns on, and at 1e6, 1e12 and just below 2^53.  Past
    2^53, float(m) rounds away the step of 2, so consecutive values
    tie, and rounding in delta can lift one by an ulp: a flat stretch,
    where the bisection still returns an m that meets the target with
    m - 2 missing it."""
    for m0 in (max(2, int(2 * r * f) - 1000), 10 ** 6, 10 ** 12,
               2 ** 53 - 2000):
        run = _scale_run(r, f, m0)
        assert np.all(np.diff(run) <= 0.0), (r, f, m0)
    for m0 in (2 ** 53, 10 ** 16, 10 ** 17):
        run = _scale_run(r, f, m0)
        assert np.any(run[1:] == run[:-1])
        ulp = np.finfo(float).eps
        assert np.all(run[1:] <= run[:-1] * (1.0 + 2.0 * ulp)), (r, f, m0)


def _tail_rule_loop(values, r):
    """The rule as a scan from the top until the floor is hit."""
    beta = 1.1 ** 2 * float(np.sum(values)) / (100.0 * r)
    k = 0
    for v in values[::-1]:
        if not v > beta:
            break
        k += 1
    return k


def test_tail_rules():
    vals = np.array([0.001, 0.002, 0.05, 0.3, 0.5])
    # floor rule: beta = 1.21 * 0.853 / 100 ~ 0.0103: suffix above it has 3
    assert pl._tail_rule_floor(vals, r=1) == 3
    # the vectorized rule counts what the scan counts, down to an empty
    # and a whole suffix
    rng = np.random.default_rng(233)
    cases = [np.full(5, 0.2), np.array([0.0, 0.0, 1.0]), np.zeros(4)]
    cases += [np.sort(rng.dirichlet(np.full(d, a)))
              for d in (2, 7, 64) for a in (0.05, 1.0, 20.0)]
    for values in cases:
        for r in (1, 2, 8):
            assert pl._tail_rule_floor(values, r) \
                == _tail_rule_loop(values, r), (values, r)


def run_staged(d, r, rng, eps_final=0.2, family="rank"):
    if family == "rank":
        rho = linalg.random_density(d, r, rng)
    else:
        rho, _ = linalg.geometric_spectrum_eig(d, rng)
    spec = fb.parse_estimator("oracle:f=d2", r)
    params = pl.plan_budget(d, r, spec.rate(d, r), eps_final)
    out = pl.staged_learn(rho, spec, params, rng)
    return rho, out


class TestStagedLearn:
    def test_output_invariants(self):
        rng = np.random.default_rng(223)
        rho, out = run_staged(4, 1, rng)
        assert out.q.sum() == pytest.approx(1.0)
        assert np.all(out.q >= 0)
        v = out.frame
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-9
        assert 1 <= len(out.stages) <= out.params.l_max
        assert out.stop_reason
        assert 0.0 <= out.eps_prime <= 1.0

    def test_converged_run_leaves_little_true_mass(self):
        rng = np.random.default_rng(227)
        for _ in range(10):
            rho, out = run_staged(4, 1, rng)
            if out.stop_reason != "mass converged":
                continue
            frame_state = out.frame.conj().T @ rho @ out.frame
            ell = out.prefix
            tau_true = np.trace(frame_state[:ell, :ell]).real
            assert tau_true <= 3.0 * out.params.eps_tilde

    def test_chi2_estimate_quality(self):
        rng = np.random.default_rng(229)
        worst = 0.0
        for _ in range(10):
            rho, out = run_staged(4, 1, rng)
            est = pl.to_chi2(out)
            analysis.require_density(est.matrix())
            worst = max(worst, dv.bures_chi2(rho, est))
        assert worst <= 0.2

    def test_full_rank_state(self):
        rng = np.random.default_rng(239)
        rho, out = run_staged(4, 4, rng, family="geo")
        est = pl.to_chi2(out)
        analysis.require_density(est.matrix())
        assert dv.bures_chi2(rho, est) <= 0.2

    def test_budget_reserve_stops_a_full_rank_state_under_rank_cap_one(self):
        """Id/16 under r = 1 peels one coordinate a stage and never
        converges: the reserve ends the stages after all l_max of them,
        with the prefix at 16 - 9, and the relearn spends the rest.  The
        dense loop, which finds the reserve by counting copies, stops at
        the same stage."""
        spec = fb.parse_estimator("oracle:f=d", 1)
        params = pl.plan_budget(16, 1, spec.rate(16, 1), 0.2)
        assert params.l_max == 9
        rho, _ = linalg.maximally_mixed_eig(16)
        out = pl.staged_learn(rho, spec, params, np.random.default_rng(241))
        assert out.stop_reason == "budget reserve" and out.forced_stop
        assert len(out.stages) == params.l_max
        assert out.prefix == 7
        ref, _ = dense_stages.staged_learn(rho, spec, params,
                                           np.random.default_rng(241))
        assert (ref.stop_reason, len(ref.stages), ref.prefix) \
            == (out.stop_reason, params.l_max, 7)

    def test_stages_shrink_the_prefix_until_a_stop(self):
        """Every stage but the last retains a coordinate, so the prefix
        shrinks each stage (by min(r, retained)) and a run stops by
        convergence, an exhausted prefix or the budget reserve within
        min(d, l_max) stages.  The grid reaches all three stops."""
        reasons = set()
        for d in (2, 5, 16):
            for r in sorted({1, 2, d}):
                rng = np.random.default_rng([307, d, r])
                spec = fb.parse_estimator("oracle:f=d", r)
                params = pl.plan_budget(d, r, spec.rate(d, r), 0.2)
                for rho in (linalg.random_pure(d, rng),
                            linalg.maximally_mixed_eig(d)[0],
                            linalg.geometric_spectrum_eig(d, rng)[0]):
                    out = pl.staged_learn(rho, spec, params, rng)
                    prefixes = [s.prefix for s in out.stages]
                    assert all(s.retained >= 1 for s in out.stages[:-1])
                    assert prefixes == sorted(set(prefixes), reverse=True)
                    assert len(out.stages) <= min(d, out.params.l_max)
                    reasons.add(out.stop_reason)
        assert reasons == {"mass converged", "prefix exhausted",
                           "budget reserve"}

    def test_refuses_a_non_state_before_any_draw(self):
        """A matrix that is not Hermitian, holds a NaN, has the wrong
        shape or a trace other than 1 raises and draws nothing.  The
        first would run four stages to an exhausted prefix, and the
        half-scaled pure state would converge to a q summing to 1,
        since the sampler renormalizes each row."""
        spec = fb.parse_estimator("oracle:f=d", 1)
        params = pl.plan_budget(4, 1, spec.rate(4, 1), 0.2)
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 0.2
        nan = linalg.maximally_mixed(4)
        nan[2, 2] = np.nan
        half = 0.5 * linalg.random_density(4, 1, np.random.default_rng(311))
        for rho, match in ((skew, "not Hermitian"), (nan, "not Hermitian"),
                           (linalg.maximally_mixed(5), "4 x 4 state"),
                           (half, "not a state")):
            rng = np.random.default_rng(313)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=match):
                pl.staged_learn(rho, spec, params, rng)
            assert rng.bit_generator.state == before


def _ledger(out) -> list:
    """(call, copies) of each draw, in order, rebuilt from the records:
    two filter phases of m/2 per stage; of the second phase's
    kept_second survivors, half to the base estimate and the rest to the
    diagonal when the stage has a povm; what is left to the relearn."""
    m, rows = out.params.m, []
    for rec in out.stages:
        rows += [("filter_subset", m // 2)] * 2
        if rec.povm is not None:
            base = rec.kept_second // 2
            rows += [("run", base), ("sample_povm", rec.kept_second - base)]
    return rows + [("sample_povm", out.params.total - len(out.stages) * m)]


@pytest.mark.parametrize("rank", [2, 16])
def test_stage_records_account_for_every_copy(monkeypatch, rank):
    """Every copy a run draws is charged to a phase its stage records
    name.  At rank 2 the second stage is a uniform spread, with no
    povm; at full rank every stage estimates a basis."""
    d, r = 16, 2
    rho = linalg.random_density(d, rank, np.random.default_rng([293, rank]))
    log = []

    def logged(name, real, copies):
        def call(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            log.append((name, bound.arguments[copies]))
            return real(*args, **kwargs)
        return call

    for name in ("filter_subset", "sample_povm"):
        monkeypatch.setattr(ms, name, logged(name, getattr(ms, name), "k"))
    spec = fb.parse_estimator("oracle:f=d", r)
    spec = dataclasses.replace(spec, run=logged("run", spec.run, "n"))
    params = pl.plan_budget(d, r, spec.rate(d, r), 0.2)
    out = pl.staged_learn(rho, spec, params, np.random.default_rng(297))
    assert log == _ledger(out)
    assert (rank == 2) == any(rec.povm is None for rec in out.stages)
    # the filter phases and the relearn draw fresh copies; the base
    # estimate and the diagonal share the second phase's survivors
    fresh = sum(k for call, k in log if call == "filter_subset") + log[-1][1]
    assert fresh == params.total
    assert all(rec.kept_second <= params.m // 2 for rec in out.stages)


def test_to_infidelity_zeroes_prefix():
    rng = np.random.default_rng(241)
    rho, out = run_staged(4, 2, rng)
    est = pl.to_infidelity(out)
    analysis.require_density(est.matrix())
    if out.prefix:
        ell = out.prefix
        blk = (out.frame.conj().T @ est.matrix() @ out.frame)[:ell, :ell]
        assert np.max(np.abs(blk)) < 1e-12
    assert dv.infidelity(rho, est) <= 0.2


def test_to_kl_depolarizes():
    rng = np.random.default_rng(251)
    rho, out = run_staged(4, 2, rng)
    base = pl.to_infidelity(out)
    est, bound = pl.to_kl(base, 0.05)
    analysis.require_density(est.matrix())
    assert np.min(np.linalg.eigvalsh(est.matrix())) >= 0.1 / 4 - 1e-12
    assert bound == pytest.approx(16 * 0.05 * (2 + np.log(4 / 0.1)))
    assert dv.relative_entropy(rho, est) <= bound


def test_to_kl_certificate():
    est = linalg.maximally_mixed_eig(8)[1]
    assert pl.to_kl(est, 0.5)[1] == pytest.approx(16 * 0.5 * (2 + np.log(8.0)))
    for eps in (0.0, 0.6):
        with pytest.raises(ValueError):
            pl.to_kl(est, eps)


# the staged output as matrices, the way the post-processors built them
# before they returned decompositions: the references for the route below
def _old_infidelity(out):
    q = out.q.copy()
    q[:out.prefix] = 0.0
    q /= q.sum()
    return (out.frame * q) @ out.frame.conj().T


def _old_chi2(out):
    p = out.params
    q = out.q.copy()
    if out.prefix:
        eta = math.sqrt(p.d / p.r) * p.eps_tilde
        q = (1.0 - eta) * q
        q[:out.prefix] += eta / out.prefix
    return (out.frame * q) @ out.frame.conj().T


def _old_kl(out, eps):
    d = out.params.d
    return (1.0 - 2.0 * eps) * _old_infidelity(out) \
        + 2.0 * eps * np.eye(d) / d


def _same(a, b):
    """Equal within 1e-12, counting two infinities of one sign as equal."""
    return a == b or abs(a - b) <= 1e-12


EQUIVALENCE_FAMILIES = {
    "pure": lambda d, rng: (linalg.random_pure(d, rng), 1),
    "rank_deficient": lambda d, rng: (
        linalg.random_density(d, max(1, d // 2), rng), max(1, d // 2)),
    "geometric": lambda d, rng: (linalg.geometric_spectrum_eig(d, rng)[0], d),
    "maximally_mixed": lambda d, rng: (linalg.maximally_mixed(d), d),
}


@pytest.mark.parametrize("estimator", ["simple", "oracle:f=d"])
def test_post_processors_match_the_matrix_route(estimator):
    """Each to_* decomposition is the matrix the helper used to return,
    and every divergence the lab scores reads the same value from it."""
    prefixes = set()
    for k, (family, make) in enumerate(EQUIVALENCE_FAMILIES.items()):
        for d in (2, 3, 8):
            rng = np.random.default_rng([269, k, d])
            rho, r = make(d, rng)
            spec = fb.parse_estimator(estimator, r)
            params = pl.plan_budget(d, r, spec.rate(d, r), 0.2)
            out = pl.staged_learn(rho, spec, params, rng)
            prefixes.add(out.prefix)
            kl_est, _ = pl.to_kl(pl.to_infidelity(out), params.eps)
            for est, old in ((pl.to_infidelity(out), _old_infidelity(out)),
                             (pl.to_chi2(out), _old_chi2(out)),
                             (kl_est, _old_kl(out, params.eps))):
                assert np.all(np.diff(est.values) >= 0)
                assert np.max(np.abs(est.matrix() - old)) <= 1e-12
                for div in (dv.bures_chi2, dv.infidelity, dv.hellinger_sq_q,
                            dv.relative_entropy):
                    assert _same(div(rho, est), div(rho, est.matrix())), \
                        (family, d, div.__name__)
    assert 0 in prefixes and max(prefixes) > 0


@pytest.mark.parametrize("estimator", ["simple", "oracle:f=d"])
@pytest.mark.parametrize("d", [2, 5, 8])
def test_staged_learn_matches_the_dense_stage_loop(estimator, d):
    """The prefix-block learner takes the dense loop's draws and reaches
    its stop and stage prefixes everywhere, and its frame,
    diagonal and stage values within 1e-12 where they are well posed.

    Each family runs at its own rank, and at rank 1, which peels one
    prefix index per stage as the mi target's marginal learners do.
    From the second stage on, the block products run on BLAS kernels
    of other shapes than the dense d x d ones and differ in the last
    bits.  A degenerate spectrum (the null space of a rank-deficient
    state, or all of Id/d) leaves the estimated basis of that eigenspace
    to the estimator's noise, which those bits can rotate, and can
    reorder columns of equal counts; at rank 1 on those families only
    the discrete record is compared.

    The grid also reaches a second stage whose true mass is at or below
    PASS_MASS_FLOOR, which the library measures from the mass alone,
    read off the retained columns, while the dense loop rotates the
    whole state there as at every stage."""
    stages, sub_floor = [], 0
    for k, (family, make) in enumerate(EQUIVALENCE_FAMILIES.items()):
        rho, rank = make(d, np.random.default_rng([271, k, d]))
        for r in sorted({rank, 1}):
            spec = fb.parse_estimator(estimator, r)
            params = pl.plan_budget(d, r, spec.rate(d, r), 0.2)
            seed = [277, k, d, r]
            out = pl.staged_learn(rho, spec, params,
                                  np.random.default_rng(seed))
            ref, masses = dense_stages.staged_learn(
                rho, spec, params, np.random.default_rng(seed))
            where = (family, r)
            assert (out.prefix, out.stop_reason, out.forced_stop) \
                == (ref.prefix, ref.stop_reason, ref.forced_stop), where
            assert [(s.prefix, s.retained) for s in out.stages] \
                == [(s.prefix, s.retained) for s in ref.stages], where
            stages.append(len(out.stages))
            sub_floor += (len(masses) > 1
                          and masses[1] <= config.PASS_MASS_FLOOR)
            if r != rank and family in ("rank_deficient", "maximally_mixed"):
                continue
            assert np.max(np.abs(out.frame - ref.frame)) <= 1e-12, where
            assert np.max(np.abs(out.q - ref.q)) <= 1e-12, where
            assert abs(out.eps_prime - ref.eps_prime) <= 1e-12, where
            for got, want in zip(out.stages, ref.stages):
                assert abs(got.tau_hat - want.tau_hat) <= 1e-12, where
                assert abs(got.theta_hat - want.theta_hat) <= 1e-12, where
                assert np.max(np.abs(got.values - want.values)) <= 1e-12, \
                    where
    # the grid reaches runs of one stage and runs of several, and a
    # second stage below the floor
    assert min(stages) == 1 and max(stages) >= d
    assert sub_floor


def test_staged_learn_slices_a_sub_floor_block_it_has_not_formed():
    """A stage below PASS_MASS_FLOOR that does not stop: its prefix
    shrinks, so the deferred rotation of the first stage's block is
    formed only to slice the next prefix from it.  Planned parameters
    never reach this (tau_hat concentrates on a mass below eps_tilde),
    so eps_tilde is set by hand far under the floor; the run still takes
    the dense loop's draws and reaches its records, frame and diagonal."""
    d, mu = 4, 3e-7
    u = linalg.haar_unitary(d, np.random.default_rng(281))
    rho = (u * np.array([1.0 - mu, mu / 3, mu / 3, mu / 3])) @ u.conj().T
    m = 2 * 10 ** 13
    params = pl.CentralParams(d=d, r=1, f=d, m=m, delta=1e-4,
                              eps_tilde=1e-9, l_max=8, eps=8e-9,
                              total=2 * m * 8)
    spec = fb.parse_estimator("oracle:f=d", 1)
    out = pl.staged_learn(rho, spec, params, np.random.default_rng(283))
    ref, masses = dense_stages.staged_learn(rho, spec, params,
                                            np.random.default_rng(283))
    assert masses[0] > config.PASS_MASS_FLOOR
    assert all(mass <= config.PASS_MASS_FLOOR for mass in masses[1:])
    # the second stage spreads, keeps its prefix open and shrinks it
    assert [s.prefix for s in out.stages] == [4, 3, 2, 1]
    assert out.stop_reason == ref.stop_reason == "prefix exhausted"
    assert [(s.prefix, s.retained) for s in out.stages] \
        == [(s.prefix, s.retained) for s in ref.stages]
    for got, want in zip(out.stages, ref.stages):
        assert abs(got.tau_hat - want.tau_hat) <= 1e-12
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
    assert np.max(np.abs(out.frame - ref.frame)) <= 1e-12
    assert np.max(np.abs(out.q - ref.q)) <= 1e-12


def _count_grams(monkeypatch) -> list:
    """Record the basis of every unitarity gram ``Povm`` forms."""
    seen = []
    check = ms.Povm.__post_init__

    def counted(povm):
        seen.append(np.array(povm.basis))
        check(povm)
    monkeypatch.setattr(ms.Povm, "__post_init__", counted)
    return seen


@pytest.mark.parametrize("family, r", [("pure", 1), ("rank", 2)])
def test_low_rank_relearn_measures_in_the_first_stage_povm(monkeypatch,
                                                           family, r):
    """On a pure or rank-2 state at d = 64 the second stage is a uniform
    spread, so the frame stays the first stage's basis and the relearn
    measures in that stage's Povm, relabeled: one gram per run."""
    rng = np.random.default_rng([287, r])
    rho = linalg.random_pure(64, rng) if family == "pure" \
        else linalg.random_density(64, r, rng)
    spec = fb.parse_estimator("oracle:f=d", r)
    params = pl.plan_budget(64, r, spec.rate(64, r), 0.2)
    grams = _count_grams(monkeypatch)
    out = pl.staged_learn(rho, spec, params, rng)
    assert len(out.stages) == 2 and out.stop_reason == "mass converged"
    assert np.all(out.stages[1].values == out.stages[1].values[0])
    assert len(grams) == 1
    # the checked basis is the frame with its columns reordered
    order = np.argmax(np.abs(grams[0].conj().T @ out.frame), axis=0)
    assert np.array_equal(np.sort(order), np.arange(64))
    assert np.array_equal(grams[0][:, order], out.frame)


def test_rotated_relearn_frame_is_checked(monkeypatch):
    """A geometric spectrum runs stages that rotate the frame after the
    first, so the relearn checks its final frame with a gram of its own."""
    rng = np.random.default_rng(293)
    rho, _ = linalg.geometric_spectrum_eig(64, rng)
    spec = fb.parse_estimator("oracle:f=d", 4)
    params = pl.plan_budget(64, 4, spec.rate(64, 4), 0.2)
    grams = _count_grams(monkeypatch)
    out = pl.staged_learn(rho, spec, params, rng)
    # a stage that estimated a basis measured in it; a spread did not
    estimated = sum(not np.all(s.values == s.values[0]) for s in out.stages)
    assert estimated >= 2
    assert len(grams) == estimated + 1
    assert np.array_equal(grams[-1], out.frame)


def test_chi2_error_terms_keys():
    rng = np.random.default_rng(257)
    _, out = run_staged(4, 2, rng)
    terms = pl.chi2_error_terms(out)
    assert set(terms) == {"eta", "block_off", "block_on", "tail_off", "tail_on"}


def test_to_chi2_rejects_bad_eta():
    rng = np.random.default_rng(263)
    _, out = run_staged(4, 2, rng)
    if out.prefix:
        with pytest.raises(pl.ParameterError):
            pl.to_chi2(out, eta=0.7)
