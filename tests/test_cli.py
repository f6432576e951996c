"""Command-line surface: verbs, exit codes, emitted files."""

import csv
import json
import warnings

import numpy as np
import pytest

from bureslab import accept, cli, divergences as dv, linalg


def test_parser_accepts_every_verb():
    parser = cli.build_parser()
    parser.parse_args(["divergence", "--d", "4"])
    parser.parse_args(["tomography", "run", "--target", "chi2"])
    parser.parse_args(["mi-test", "--kind", "classical"])
    assert parser.parse_args(["bench", "--n", "100,1000"]).n == [100, 1000]
    assert parser.parse_args(["bench"]).n == [1e3, 1e4, 1e5]
    assert parser.parse_args(["tomography", "run", "--n", "1e5"]).n == [1e5]
    parser.parse_args(["accept", "--only", "3"])


def test_parser_rejects_unknown_verb_and_family(capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])
    with pytest.raises(SystemExit):
        parser.parse_args(["divergence", "--family", "no_such_family"])
    # a joint table is not a density matrix: the divergence chain's
    # family flags offer no table family
    for flag in ("--family", "--family2"):
        for family in ("classical:product", "classical:dirichlet_product",
                       "classical:correlated"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["divergence", flag, family])
            assert exc.value.code == 2
            assert f"invalid choice: '{family}'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["tomography", "run", "--variant", "2"])
    assert exc.value.code == 2
    for argv in (["tomography", "run", "--eps", "abc"],
                 ["tomography", "run", "--n", "1e5,abc"],
                 ["bench", "--n", "abc"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "expected a comma list of numbers" in capsys.readouterr().err


def test_divergence_prints_chain_and_passes(capsys):
    code = cli.main(["divergence", "--d", "4", "--r", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bures_chi2" in out
    assert "PASS  kl <= reverse_bound" in out
    assert "FAIL" not in out


def test_chain_verdicts_hold_where_kl_exceeds_bures_chi2():
    """Every quantum link the CLI checks holds on the pair where KL >
    Bures chi2; that comparison is not among them."""
    p = 0.01
    psi = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
    chain = dv.quantum_chain(np.outer(psi, psi.conj()),
                             np.diag([p, 1 - p]).astype(complex))
    assert chain["kl"] > chain["bures_chi2"]
    verdicts = cli._chain_verdicts(chain, quantum=True)
    assert all("bures_chi2" not in name for name, _, _ in verdicts)
    assert all(lhs <= rhs + cli.SLACK for _, lhs, rhs in verdicts)


def test_chain_verdicts_hold_for_a_state_against_itself():
    """Fidelity rounds above 1 for some pure qubit states against
    themselves, so bures_sq rounds below 0; every link still holds, with
    no nan and no warning."""
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        negative = 0
        for _ in range(300):
            psi = linalg.random_pure(2, rng)
            chain = dv.quantum_chain(psi, psi)
            negative += chain["bures_sq"] < 0.0
            for name, lhs, rhs in cli._chain_verdicts(chain, quantum=True):
                assert lhs <= rhs + cli.SLACK, name
    assert negative > 0


def test_tomography_inline_scenario(capsys):
    code = cli.main(["tomography", "run", "--target", "chi2", "--d", "4",
                     "--r", "1", "--eps", "0.25", "--trials", "4",
                     "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "point 0.25" in out
    assert "PASS" in out and "FAIL" not in out


def test_tomography_config_file_and_emission(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "id": "cli-frob", "target": "frobenius", "d": 2, "r": 2,
        "estimator": "oracle:f=d", "n_grid": [2000, 20000], "trials": 5,
        "master_seed": 9}))
    out_csv = tmp_path / "frob.csv"
    # --seed, --out and --workers go with a config file
    code = cli.main(["tomography", "run", "--config", str(cfg),
                     "--seed", "9", "--workers", "1", "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    assert out_csv.exists()
    assert (tmp_path / "frob.summary.csv").exists()
    assert (tmp_path / "frob.plot.py").exists()
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("scenario,trial,point,n_used")


def test_tomography_out_directory_names_files_by_id(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "id": "dirform", "target": "frobenius", "d": 2, "r": 2,
        "estimator": "oracle:f=d", "n_grid": [2000], "trials": 3,
        "master_seed": 9}))
    code = cli.main(["tomography", "run", "--config", str(cfg),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "dirform.csv").exists()
    assert (tmp_path / "dirform.summary.csv").exists()
    assert (tmp_path / "dirform.plot.py").exists()
    # trailing slash also counts as the directory form, created on demand
    code = cli.main(["tomography", "run", "--config", str(cfg),
                     "--out", str(tmp_path / "fresh") + "/"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "fresh" / "dirform.csv").exists()


def _config(**fields) -> str:
    return json.dumps({"id": "x", "target": "chi2", "d": 4, **fields})


def test_tomography_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for text, message in [
            (_config(wobble=3), "wobble"),
            (_config(id=""), "field 'id': must be a nonempty string"),
            (_config(target="chi3"), "field 'target': 'chi3' not in"),
            (_config(family="cubic"), "field 'family': 'cubic' not in"),
            (_config(eps_grid=[]), "grids are nonempty"),
            (_config(target="frobenius", n_grid=[0]),
             "field 'n_grid': entries must be positive"),
            ("{bad", "Expecting property name"),
            ("[1, 2]", "expected an object of fields, got list"),
            (None, "No such file")]:
        if text is None:
            cfg.unlink()
        else:
            cfg.write_text(text)
        code = cli.main(["tomography", "run", "--config", str(cfg),
                         "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value", [
    ("--id", "y"), ("--target", "kl"), ("--d", "8"), ("--r", "1"),
    ("--family", "pure"), ("--estimator", "simple"), ("--eps", "0.1"),
    ("--n", "100"), ("--trials", "1")])
def test_scenario_flags_beside_config_exit_two(flag, value, tmp_path,
                                                monkeypatch, capsys):
    """The config file holds the whole scenario: a scenario flag beside
    it is refused by name, before any trial, not ignored."""
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(cli.hz, "run_scenario", no_trials)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"id": "cfg", "target": "chi2", "d": 4,
                               "r": 2, "trials": 2, "eps_grid": [0.25]}))
    code = cli.main(["tomography", "run", "--config", str(cfg),
                     flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {flag} cannot be given with --config\n"


def test_bench_bad_inline_scenario_exits_two(capsys):
    code = cli.main(["bench", "--d", "1", "--r", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: field 'd'" in err


@pytest.mark.parametrize("argv, message", [
    (["tomography", "run", "--target", "chi2", "--d", "4", "--r", "1",
      "--family", "pure", "--eps", "1e-5", "--trials", "1", "--seed", "11"],
     "pass-mass floor"),
    (["bench", "--d", "4", "--n", "5,50", "--trials", "2"],
     "need at least 7 copies"),
    (["mi-test", "--d", "1"], "field 'd': need dimension at least 2"),
    (["mi-test", "--kind", "classical", "--d", "0"],
     "field 'd': need dimension at least 2"),
    (["mi-test", "--kind", "quantum", "--d", "0"],
     "field 'd': need dimension at least 2"),
    (["mi-test", "--kind", "classical", "--d", "-3"],
     "field 'd': need dimension at least 2"),
    (["mi-test", "--kind", "quantum", "--d", "-3"],
     "field 'd': need dimension at least 2"),
    (["mi-test", "--kind", "classical", "--eps", "0.9"], "MI gap eps"),
    (["accept", "--only", "99"], "unknown criterion numbers: [99]"),
    (["accept", "--only", "abc"], "unknown criterion numbers: [abc]"),
    (["divergence", "--family", "bipartite:product", "--d", "3"],
     "gives dimension 9 but --family2 maximally_mixed gives 3"),
    (["divergence", "--d", "2", "--r", "5"], "--r 5 must lie in [1, --d 2]"),
    (["divergence", "--d", "1"], "--r 2 must lie in [1, --d 1]"),
    (["bench", "--n", "100"], "a fit needs two distinct --n"),
    (["bench", "--trials", "0"], "field 'trials'"),
    (["tomography", "run", "--trials", "0"], "field 'trials'"),
    (["mi-test", "--trials", "0"], "field 'trials'"),
    (["accept", "--only", "6"], "unknown criterion numbers: [6]"),
    (["mi-test", "--arm", "correlated", "--lam", "2"],
     "field 'lam': must lie in [0, 1]"),
    (["mi-test", "--kind", "classical", "--lam", "-0.5"],
     "field 'lam': must lie in [0, 1]"),
    (["divergence", "--family", "bipartite:correlated", "--family2",
      "bipartite:product", "--d", "2", "--r", "1", "--lam", "2"],
     "--lam 2.0 must lie in [0, 1]"),
    (["accept", "--only", ""], "unknown criterion numbers: ['']"),
    (["tomography", "run", "--target", "frobenius", "--n", "1000.9,2000"],
     "field 'n_grid': expected an integer, got 1000.9"),
    # a grid the target does not read is refused, not ignored
    (["tomography", "run", "--target", "chi2", "--d", "2", "--r", "1",
      "--n", "5", "--trials", "2", "--seed", "1"],
     "field 'n_grid': target 'chi2' reads eps_grid"),
    (["tomography", "run", "--target", "frobenius", "--eps", "0.01",
      "--n", "1000"], "field 'eps_grid': target 'frobenius' reads n_grid"),
    (["accept", "--only", "13", "--out", "no-such-directory/x.json"],
     "--out no-such-directory/x.json: directory no-such-directory "
     "does not exist"),
    (["divergence", "--seed", "-1"], "--seed -1 must be nonnegative"),
    (["mi-test", "--seed", "-1"], "--seed -1 must be nonnegative"),
    (["tomography", "run", "--seed", "-1"], "--seed -1 must be nonnegative"),
    (["bench", "--seed", "-1"], "--seed -1 must be nonnegative"),
    (["tomography", "run", "--workers", "0"],
     "--workers 0 must be at least 1"),
    (["bench", "--workers", "-3"], "--workers -3 must be at least 1"),
    # at lam 0 the correlated family is the product Id/d^2
    (["mi-test", "--kind", "classical", "--arm", "correlated", "--lam", "0",
      "--trials", "3"], "field 'lam': classical:correlated at lam 0"),
    (["mi-test", "--kind", "quantum", "--arm", "correlated", "--lam", "0",
      "--d", "2"], "field 'lam': bipartite:correlated at lam 0"),
], ids=["tiny-eps", "starved-bench", "mi-d1", "mi-classical-d0",
        "mi-quantum-d0", "mi-classical-d-negative", "mi-quantum-d-negative",
        "mi-eps", "accept-99",
        "accept-abc", "divergence-dims", "divergence-r-above-d",
        "divergence-d1", "bench-one-budget", "bench-no-trials",
        "tomography-no-trials", "mi-no-trials", "accept-retired-6",
        "mi-lam-above-one", "mi-lam-product-arm",
        "divergence-lam-above-one", "accept-empty", "tomography-n-fraction",
        "tomography-chi2-unread-n", "tomography-frobenius-unread-eps",
        "accept-out-missing-directory", "divergence-seed-negative",
        "mi-seed-negative", "tomography-seed-negative", "bench-seed-negative",
        "tomography-workers-0", "bench-workers-negative",
        "mi-classical-correlated-lam0", "mi-quantum-correlated-lam0"])
def test_rejected_parameters_exit_two(argv, message, capsys):
    """Parameters outside the guaranteed regime end in one error line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", [["tomography", "run", "--d", "2"],
                                  ["bench"]])
def test_out_into_missing_directory_exits_two_before_any_trial(
        verb, tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(cli.hz, "run_scenario", no_trials)
    out = tmp_path / "missing" / "x.csv"
    code = cli.main([*verb, "--trials", "1", "--seed", "1",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --out {out}: directory {out.parent} " \
        "does not exist\n"
    assert not out.parent.exists()


def test_accept_out_directory_holds_the_report(tmp_path, capsys):
    code = cli.main(["accept", "--only", "3", "--out", f"{tmp_path}/"])
    assert code == 0
    report = json.loads((tmp_path / "accept.json").read_text())
    assert [row["criterion"] for row in report] == [3]
    assert f"wrote {tmp_path / 'accept.json'}" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["chi2", "infidelity", "kl"])
def test_simple_estimator_on_one_index_prefix(target, capsys):
    """The staged prefix shrinks to one index; its 1x1 state is [[1]]."""
    code = cli.main(["tomography", "run", "--target", target, "--d", "5",
                     "--r", "2", "--family", "geometric_spectrum",
                     "--estimator", "simple", "--eps", "0.3,0.2",
                     "--trials", "3", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_simple_estimator_starved_basis_phase(capsys):
    """A pure state at d=3: a stage's second filter phase keeps fewer
    copies than the simple estimator needs, and the run goes on."""
    code = cli.main(["tomography", "run", "--target", "chi2", "--d", "3",
                     "--r", "1", "--family", "pure", "--estimator", "simple",
                     "--eps", "0.3,0.2", "--trials", "3", "--seed", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_simple_estimator_mi_rank_one(tmp_path, capsys):
    cfg = tmp_path / "mi.json"
    cfg.write_text(json.dumps({
        "id": "mi-simple", "target": "mi", "d": 2, "r": 1,
        "family": "bipartite:product", "estimator": "simple",
        "eps_grid": [0.5], "trials": 2, "master_seed": 5}))
    code = cli.main(["tomography", "run", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_mi_test_classical_product_arm(capsys):
    code = cli.main(["mi-test", "--kind", "classical", "--arm", "product",
                     "--d", "4", "--eps", "0.5", "--trials", "3",
                     "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/3 correct" in out


def test_mi_test_quantum_both_arms(capsys):
    code = cli.main(["mi-test", "--kind", "quantum", "--arm", "product",
                     "--d", "4", "--eps", "0.5", "--trials", "2",
                     "--seed", "4"])
    assert code == 0
    code = cli.main(["mi-test", "--kind", "quantum", "--arm", "correlated",
                     "--d", "4", "--eps", "0.5", "--lam", "0.5",
                     "--trials", "2", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "correlated arm: 2/2 correct" in out


_MI_ARMS = [("product", 0.6, 0), ("correlated", 0.6, 0),
            # MI far below the gap: the correlated arm accepts, wrongly
            ("correlated", 0.05, 1)]


# the quantum cases keep the ids they had before --kind was a parameter
@pytest.mark.parametrize("kind, arm, lam, code", [
    pytest.param(kind, *arm, id="-".join(
        map(str, arm if kind == "quantum" else (kind, *arm))))
    for kind in ("quantum", "classical") for arm in _MI_ARMS])
def test_quantum_mi_test_is_the_mi_scenario(kind, arm, lam, code, tmp_path,
                                            capsys):
    """mi-test runs the scenario its flags name, on the target its --kind
    names (``mi`` or ``classical_mi``): the same per-trial verdicts and
    exit code as ``tomography run`` on it."""
    target, space = ("mi", "bipartite") if kind == "quantum" \
        else ("classical_mi", "classical")
    assert cli.main(["mi-test", "--kind", kind, "--arm", arm,
                     "--d", "3", "--eps", "0.5", "--lam", str(lam),
                     "--trials", "3", "--seed", "8"]) == code
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("trial ")]
    cfg = tmp_path / "mi.json"
    cfg.write_text(json.dumps({
        "id": "mi", "target": target, "d": 3, "r": 3,
        "family": f"{space}:{arm}", "eps_grid": [0.5], "lam": lam,
        "trials": 3, "master_seed": 8}))
    out = tmp_path / "mi.csv"
    assert cli.main(["tomography", "run", "--config", str(cfg),
                     "--out", str(out)]) == code
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(words[2], words[3]) for words in lines] == [
        ("accept" if row["flag:accept"] == "1" else "reject",
         "(ok)" if row["flag:correct"] == "1" else "(WRONG)")
        for row in rows]
    assert len(lines) == 3


def test_bench_csv_is_the_frobenius_scenario_csv(tmp_path, capsys):
    fields = ["--id", "fit", "--d", "2", "--r", "2", "--family", "pure",
              "--estimator", "simple", "--n", "1000,10000", "--trials", "5",
              "--seed", "3"]
    cli.main(["bench", *fields, "--out", str(tmp_path / "bench.csv")])
    cli.main(["tomography", "run", "--target", "frobenius", *fields,
              "--out", str(tmp_path / "run.csv")])
    capsys.readouterr()
    assert (tmp_path / "bench.csv").read_bytes() \
        == (tmp_path / "run.csv").read_bytes()


def test_bench_fits_inverse_law(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = cli.main(["bench", "--d", "2", "--r", "2", "--n", "1000,10000",
                     "--trials", "40", "--seed", "11", "--out",
                     str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "slope" in out
    assert "PASS  slope -1 +- 0.15" in out
    assert out_csv.exists()


def test_accept_verb_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main(["accept", "--only", "3,14", "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 criteria passed" in out
    data = json.loads(report.read_text())
    assert [row["criterion"] for row in data] == [3, 14]
    assert all(row["passed"] for row in data)
    # every criterion is timed, in seconds, outside its measured values
    assert all(isinstance(row["elapsed_s"], float) and row["elapsed_s"] >= 0
               and "elapsed_s" not in row["measured"] for row in data)


def test_accept_verb_propagates_failure(capsys):
    accept.CRITERIA.append((99, "always-fails", lambda: (False, {"x": 1})))
    try:
        code = cli.main(["accept", "--only", "99"])
    finally:
        accept.CRITERIA.pop()
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL criterion 99" in out
