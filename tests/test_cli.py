"""Command-line surface: verbs, exit codes, output formats, seed echo."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import harmorph
from harmorph.cli import main, parse_polynomial


@pytest.fixture
def runner():
    return CliRunner(mix_stderr=False) if "mix_stderr" in CliRunner.__init__.__code__.co_varnames else CliRunner()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(harmorph.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "harmorph", "spaces"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and "slr-so" in result.stdout


def test_spaces_lists_all_ids(runner):
    result = runner.invoke(main, ["spaces"])
    assert result.exit_code == 0
    for sid in ("slr-so", "sus-sp", "su-so", "su-sp", "slc-su"):
        assert sid in result.output


SPACES_TEXT = {
    1: ("id       ambient    matrix size  p-basis size (at n=1)\n"
        "slr-so   GL+(n,R)   1            1           \n"
        "sus-sp   U*(2n)     2            1           \n"
        "su-so    SU(n)      1            0           \n"
        "su-sp    SU(2n)     2            0           \n"
        "slc-su   SL(n,C)    1            0           \n"),
    3: ("id       ambient    matrix size  p-basis size (at n=3)\n"
        "slr-so   GL+(n,R)   3            6           \n"
        "sus-sp   U*(2n)     6            15          \n"
        "su-so    SU(n)      3            5           \n"
        "su-sp    SU(2n)     6            14          \n"
        "slc-su   SL(n,C)    3            8           \n"),
}


@pytest.mark.parametrize("n", sorted(SPACES_TEXT))
def test_spaces_prints_the_whole_table(runner, n):
    result = runner.invoke(main, ["spaces", "--n", str(n)])
    assert result.exit_code == 0
    assert result.output == SPACES_TEXT[n]


def test_identities_pass_and_report_exact_count(runner):
    result = runner.invoke(main, ["identities", "--lemma", "formula-real",
                                  "--n", "2", "--trials", "20", "--seed", "7"])
    assert result.exit_code == 0
    assert result.output.startswith("PASS  lemma-formula-real\n")


def test_lemmas_verb(runner):
    result = runner.invoke(main, ["lemmas", "--space", "sus-sp", "--n", "1",
                                  "--trials", "5", "--seed", "7"])
    assert result.exit_code == 0


def test_verify_json_report(runner):
    result = runner.invoke(main, ["verify", "--space", "slr-so", "--n", "3",
                                  "--k", "1", "--l", "2", "--trials", "10",
                                  "--seed", "7", "--format", "json"])
    assert result.exit_code == 0
    d = json.loads(result.output.strip().splitlines()[-1])
    assert d["passed"] is True
    assert d["morphisms"] == ["slr-so:n=3:kl=12"]
    assert d["max_residuals"]["tau"] <= 1e-8


def test_verify_rejects_equal_indices(runner):
    result = runner.invoke(main, ["verify", "--space", "slr-so", "--n", "3",
                                  "--k", "2", "--l", "2"])
    assert result.exit_code == 2


def test_verify_family_and_compose(runner):
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "2",
                                  "--family", "1", "--trials", "5", "--seed", "7"])
    assert result.exit_code == 0
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "2",
                                  "--family", "1", "--compose", "z1**2 + 3*z1*z2",
                                  "--trials", "5", "--seed", "7"])
    assert result.exit_code == 0


def test_verify_family_excludes_k_l(runner):
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "2",
                                  "--family", "1", "--k", "2", "--l", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("space", ["sus-sp", "su-sp"])
def test_verify_k_outside_the_family_names_its_range(runner, space, k):
    """At n = 2 the members are k = 1..4 other than l; k = l is no member either."""
    result = runner.invoke(main, ["verify", "--space", space, "--n", "2", "--k", str(k),
                                  "--l", "1", "--seed", "7"])
    assert result.exit_code == 2
    assert f"k={k} is not in 1..4 other than l=1 (n=2)" in (
        result.output + getattr(result, "stderr", ""))


def test_bigcell_verb(runner):
    result = runner.invoke(main, ["bigcell", "--n", "2", "--trials", "50", "--seed", "7"])
    assert result.exit_code == 0
    result = runner.invoke(main, ["bigcell", "--n", "1"])
    assert result.exit_code == 2


def test_seed_echoed_when_omitted(runner):
    result = runner.invoke(main, ["lemmas", "--space", "slr-so", "--n", "2", "--trials", "2"])
    assert result.exit_code == 0
    err = result.stderr if hasattr(result, "stderr") else ""
    combined = err or result.output
    assert "seed:" in combined or "seed" in result.output


def test_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--space", "slr-so", "--n", "2",
                                  "--k", "1", "--l", "2", "--trials", "3",
                                  "--seed", "7", "--format", "json",
                                  "--output", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("args", [
    ["identities", "--lemma", "long", "--n", "1", "--trials", "2"],
    ["lemmas", "--space", "slr-so", "--n", "2", "--trials", "2"],
    ["verify", "--space", "slr-so", "--n", "2", "--k", "1", "--l", "2", "--trials", "2"],
    ["bigcell", "--n", "2", "--trials", "2"],
    ["all", "--n-max", "2", "--trials", "2"],
], ids=lambda args: args[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_a_configuration_error(runner, tmp_path, args, where):
    """An --output that cannot be written exits 2 with a message naming it, not 1 with a
    traceback: exit 1 means a verification failed."""
    out = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    result = runner.invoke(main, args + ["--seed", "1", "--output", str(out)])
    assert result.exit_code == 2
    assert type(result.exception) is SystemExit
    assert f"cannot write the report to {out}" in result.output + getattr(result, "stderr", "")


def test_all_sweep_small(runner):
    result = runner.invoke(main, ["all", "--n-max", "2", "--trials", "5", "--seed", "7"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert "sensitivity-control" in result.output


def test_all_sweep_fails_when_the_control_is_harmonic(runner, monkeypatch):
    """The sensitivity control's verdict follows its tau: a harmonic control passes its
    suite, so the control report FAILs and the sweep exits 1."""
    from harmorph import cli
    from harmorph.morphisms import real_morphism

    monkeypatch.setattr(cli, "control_morphism", lambda n: real_morphism(2, 1, 2))
    result = runner.invoke(main, ["all", "--n-max", "2", "--trials", "5", "--seed", "7",
                                  "--format", "json"])
    assert result.exit_code == 1
    reports = [json.loads(line) for line in result.output.splitlines() if line.startswith("{")]
    control = [r for r in reports if r["suite"] == "sensitivity-control"]
    assert len(control) == 1 and not control[0]["passed"]
    assert control[0]["max_residuals"]["tau"] < 0.1
    assert all(r["passed"] for r in reports if r["suite"] != "sensitivity-control")


def test_unknown_space_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--space", "nope", "--n", "2"])
    assert result.exit_code == 2


def test_parse_polynomial():
    p = parse_polynomial("z1**2 + 3*z1*z2", 2)
    assert p == {(2, 0): (1 + 0j), (1, 1): (3 + 0j)}
    assert parse_polynomial("-z1 + 2", 1) == {(1,): (-1 + 0j), (0,): (2 + 0j)}
    assert parse_polynomial("z1^2", 1) == {(2,): (1 + 0j)}
    assert (parse_polynomial("(z1 + 2*z2)**3", 2)
            == parse_polynomial("z1*z1*z1 + 6*z1*z1*z2 + 12*z1*z2*z2 + 8*z2*z2*z2", 2))
    with pytest.raises(ValueError):
        parse_polynomial("z3", 2)
    with pytest.raises(ValueError):
        parse_polynomial("z1**z1", 1)
    with pytest.raises(ValueError):
        parse_polynomial("import os", 1)
    assert parse_polynomial("z1*(z2**3)*z1**2", 2) == {(3, 3): (1 + 0j)}
    # a degree above MAX_COMPOSE_DEGREE is rejected before the product is expanded
    for text in ("z1**99999999", "z1**7", "(z1**2)**4", "z1*z1*z1*z1*z1*z1*z1", "2**7",
                 "(z1 + z2)**3 * z2**4"):
        with pytest.raises(ValueError):
            parse_polynomial(text, 2)
    for text in ("1e400*z1", "1" + "0" * 400 + "*z1", "1e300*1e300*z1"):
        with pytest.raises(ValueError, match="finite"):
            parse_polynomial(text, 1)


@pytest.mark.parametrize("poly", ["z1**99999999", "1e400*z1"])
def test_compose_out_of_bounds_is_usage_error(runner, poly):
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "2", "--family", "1",
                                  "--compose", poly, "--trials", "2", "--seed", "7"])
    assert result.exit_code == 2


def test_non_finite_residual_fails_with_strict_json(runner):
    """1e300 * z1**2 overflows: its energy is inf and kappa nan, which must FAIL."""
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "2", "--family", "1",
                                  "--compose", "1e300*z1**2", "--trials", "5", "--seed", "7",
                                  "--format", "json"])
    assert result.exit_code == 1
    report = json.loads(result.stdout, parse_constant=pytest.fail)
    assert not report["passed"]
    assert "nan" in {f["value"] for f in report["failures"]}


NAN_KAPPA = ["verify", "--space", "sus-sp", "--n", "2", "--family", "1",
             "--compose", "1e300*z1**2", "--seed", "3", "--trials", "20"]


def test_nan_residual_is_the_reported_maximum(runner):
    """Every kappa residual of this run is nan: the report's maximum and its worst
    residual say nan, not the largest finite residual."""
    result = runner.invoke(main, NAN_KAPPA)
    assert result.exit_code == 1
    lines = [line.split() for line in result.stdout.splitlines()]
    assert ["worst", "residual", ":", "nan"] in lines and ["kappa", "nan"] in lines
    result = runner.invoke(main, NAN_KAPPA + ["--format", "json"])
    assert result.exit_code == 1
    assert json.loads(result.stdout, parse_constant=pytest.fail)["max_residuals"]["kappa"] == "nan"


def test_overflowed_energy_gives_a_nan_tau_and_no_warning():
    """The energy of 1e300 * z1**2 overflows to inf, which normalizes nothing: tau is
    nan, not |tau| / inf = 0, and the overflow ends in the report, not on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(harmorph.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "harmorph", *NAN_KAPPA], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and result.stderr == ""
    lines = [line.split() for line in result.stdout.splitlines()]
    assert ["tau", "nan"] in lines and ["kappa", "nan"] in lines


def test_long_composition_is_walked_without_recursion(runner):
    """(z1 + ... + z9)**6 has 3,003 terms, summed as one chain deeper than Python's
    recursion limit."""
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "5", "--family", "1",
                                  "--compose", "(z1+z2+z3+z4+z5+z6+z7+z8+z9)**6",
                                  "--trials", "1", "--seed", "1"])
    assert result.exit_code == 0 and result.stdout.startswith("PASS")


@pytest.mark.parametrize("text", ["z1 + True", "z1*False + z2", "z1**True", "z2**False"])
def test_parse_polynomial_rejects_booleans(text):
    with pytest.raises(ValueError):
        parse_polynomial(text, 2)


def test_compose_with_boolean_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--space", "sus-sp", "--n", "2", "--family", "1",
                                  "--compose", "z1*True + z2", "--trials", "2", "--seed", "7"])
    assert result.exit_code == 2


def test_all_sweep_checks_lemma_long_up_to_n_max(runner):
    result = runner.invoke(main, ["all", "--n-max", "4", "--trials", "1", "--seed", "7",
                                  "--format", "json"])
    assert result.exit_code == 0
    reports = [json.loads(line) for line in result.output.splitlines() if line.startswith("{")]
    assert [r["n"] for r in reports if r["suite"] == "lemma-long"] == [1, 2, 3, 4]
    # every suite reaches rank --n-max
    ranks = {}
    for r in reports:
        ranks.setdefault((r["suite"], r["space"]), []).append(r["n"])
    assert ranks[("bigcell", "slc-su")] == [2, 3, 4]
    assert ranks[("harmonic", "slc-su")] == ranks[("invariance", "slc-su")] == [2, 3, 4]
    assert ranks[("derivative-lemmas:sus-sp", "sus-sp")] == [1, 2, 3, 4]
    assert ranks[("family", "sus-sp")] == [1, 2, 3, 4]
    assert ranks[("family", "su-sp")] == [2, 3, 4]


def test_all_sampling_error_exits_1(runner, monkeypatch):
    """A suite that cannot sample its domain ends the sweep with a message, not a traceback."""
    from harmorph import verify

    def no_points(*args, **kwargs):
        raise verify.SamplingError("no in-domain point for su-sp:n=2:l=1:k=2 after 1000 attempts")

    monkeypatch.setattr(verify, "verify_family", no_points)
    result = runner.invoke(main, ["all", "--n-max", "2", "--trials", "1", "--seed", "7"])
    assert result.exit_code == 1
    assert not isinstance(result.exception, verify.SamplingError)
    message = result.output + getattr(result, "stderr", "")
    assert "no in-domain point for su-sp:n=2:l=1:k=2" in message


def test_verify_records_jet_error_and_exits_1(runner, monkeypatch):
    """A point in the domain whose jet cannot be evaluated is a failure, not a traceback."""
    from harmorph import cli
    from harmorph.jets import Entry
    from harmorph.morphisms import Morphism
    from harmorph.spaces import make_space

    space = make_space("slr-so", 2)
    bad = Morphism(Entry(1, 1) / (Entry(1, 2) - Entry(1, 2)), space, "zero-denominator",
                   lambda x: space.membership(x, 1e-8), ())
    monkeypatch.setattr(cli, "real_morphism", lambda n, k, l: bad)
    result = runner.invoke(main, ["verify", "--space", "slr-so", "--n", "2", "--k", "1",
                                  "--l", "2", "--trials", "2", "--seed", "7",
                                  "--format", "json"])
    assert result.exit_code == 1
    assert not isinstance(result.exception, ArithmeticError)
    report = json.loads(result.stdout)
    assert {f["quantity"] for f in report["failures"]} == {"evaluation-error"}


def test_verify_records_oracle_stencil_error_and_exits_1(runner, monkeypatch):
    """An oracle stencil that crosses the branch cut is a failure, not a traceback."""
    from harmorph import cli, verify
    from harmorph.jets import Entry, Sqrt
    from harmorph.morphisms import Morphism
    from harmorph.spaces import make_space

    space = make_space("slr-so", 2)
    cut = Morphism(Sqrt(Entry(1, 1) - 1.0), space, "cut-where-phi11-below-1",
                   lambda x: space.membership(x, 1e-8), ())
    monkeypatch.setattr(cli, "real_morphism", lambda n, k, l: cut)
    monkeypatch.setattr(verify, "ORACLE_STEP", 0.5)
    result = runner.invoke(main, ["verify", "--space", "slr-so", "--n", "2", "--k", "1",
                                  "--l", "2", "--trials", "2", "--seed", "3",
                                  "--format", "json"])
    assert result.exit_code == 1
    assert not isinstance(result.exception, ArithmeticError)
    report = json.loads(result.stdout)
    assert "oracle-evaluation-error" in {f["quantity"] for f in report["failures"]}


@pytest.mark.parametrize("args", [
    ["identities", "--lemma", "long", "--trials", "0"],
    ["identities", "--lemma", "long", "--n", "0"],
    ["lemmas", "--space", "slr-so", "--trials", "-5"],
    ["lemmas", "--space", "slr-so", "--n", "0"],
    ["verify", "--space", "slr-so", "--k", "1", "--l", "2", "--trials", "0"],
    ["verify", "--space", "slr-so", "--k", "1", "--l", "2", "--n", "0"],
    ["bigcell", "--trials", "0"],
    ["bigcell", "--n", "1"],
    ["all", "--trials", "0"],
    ["all", "--n-max", "1"],
    ["spaces", "--n", "0"],
])
def test_bad_counts_are_usage_errors(runner, args):
    result = runner.invoke(main, args + ["--seed", "7"] if args[0] != "spaces" else args)
    assert result.exit_code == 2
    assert "is not in the range" in result.output + getattr(result, "stderr", "")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("verb", [
    ["verify", "--space", "slr-so", "--n", "3", "--k", "1", "--l", "2"],
    ["lemmas", "--space", "slr-so", "--n", "3"],
])
def test_tol_must_be_finite_and_positive(runner, verb, tol):
    """residual > nan is always False, so a nan tolerance would pass every check."""
    result = runner.invoke(main, verb + ["--tol", tol, "--trials", "5", "--seed", "1"])
    assert result.exit_code == 2
    assert "is not a finite number > 0" in result.output + getattr(result, "stderr", "")


SEED_VERBS = [
    ["identities", "--lemma", "formula-real", "--n", "2", "--trials", "1"],
    ["lemmas", "--space", "slr-so", "--n", "3", "--trials", "1"],
    ["verify", "--space", "slr-so", "--n", "3", "--k", "1", "--l", "2", "--trials", "1"],
    ["bigcell", "--n", "2", "--trials", "1"],
    ["all", "--n-max", "2", "--trials", "1"],
]


@pytest.mark.parametrize("seed", [str(-1), str(2**64)])
@pytest.mark.parametrize("verb", SEED_VERBS, ids=lambda v: v[0])
def test_seed_outside_64_bits_is_usage_error(runner, verb, seed):
    """Seeds are masked to 64 bits, so 2^64 + 3 and -(2^64 - 3) would replay seed 3."""
    result = runner.invoke(main, verb + ["--seed", seed])
    assert result.exit_code == 2
    assert "is not in the range" in result.output + getattr(result, "stderr", "")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("verb", SEED_VERBS, ids=lambda v: v[0])
def test_seed_bounds_are_accepted(runner, verb, seed):
    result = runner.invoke(main, verb + ["--seed", str(seed), "--format", "json"])
    assert result.exit_code in (0, 1), result.output
    assert json.loads(result.output.splitlines()[0])["seed"] == seed
