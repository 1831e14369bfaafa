"""Command-line surface: verbs, exit codes, output formats, seed echo."""

import json

import pytest
from click.testing import CliRunner

from harmorph.cli import main, parse_polynomial


@pytest.fixture
def runner():
    return CliRunner(mix_stderr=False) if "mix_stderr" in CliRunner.__init__.__code__.co_varnames else CliRunner()


def test_spaces_lists_all_ids(runner):
    result = runner.invoke(main, ["spaces"])
    assert result.exit_code == 0
    for sid in ("slr-so", "sus-sp", "su-so", "su-sp", "slc-su"):
        assert sid in result.output


def test_identities_pass_and_report_exact_count(runner):
    result = runner.invoke(main, ["identities", "--lemma", "formula-real",
                                  "--n", "2", "--trials", "20", "--seed", "7"])
    assert result.exit_code == 0
    assert "exact: 20/20" in result.output


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


def test_all_sweep_small(runner):
    result = runner.invoke(main, ["all", "--n-max", "2", "--trials", "5", "--seed", "7"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert "sensitivity-control" in result.output


def test_unknown_space_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--space", "nope", "--n", "2"])
    assert result.exit_code == 2


def test_parse_polynomial():
    p = parse_polynomial("z1**2 + 3*z1*z2", 2)
    assert p == {(2, 0): (1 + 0j), (1, 1): (3 + 0j)}
    assert parse_polynomial("-z1 + 2", 1) == {(1,): (-1 + 0j), (0,): (2 + 0j)}
    assert parse_polynomial("z1^2", 1) == {(2,): (1 + 0j)}
    with pytest.raises(ValueError):
        parse_polynomial("z3", 2)
    with pytest.raises(ValueError):
        parse_polynomial("z1**z1", 1)
    with pytest.raises(ValueError):
        parse_polynomial("import os", 1)


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
