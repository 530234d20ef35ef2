"""The command-line driver: dispatch, exit codes, formats, outputs."""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import corpus
import oracles
from bihomsuper import (
    DocumentError,
    GradedMap,
    PreconditionError,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    TwistError,
    VerificationReport,
    cli,
    is_derivation_3,
    is_quasiderivation_3,
    load_document,
    make_twist_3,
    parse_document,
    run_pipeline,
    verify_multiplicativity3,
)
from bihomsuper import algebras, rota_baxter
from bihomsuper.cli import COMMANDS, main
from bihomsuper.core import as_scalar, int_digit_limit

DATA = Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


def test_verify_pass_and_exit_zero(capsys):
    assert run(["verify", DATA / "abelian.json"]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out


def test_verify_ternary_document(capsys):
    assert run(["verify", DATA / "ternary_basic.json"]) == 0
    out = capsys.readouterr().out
    assert "ternary-twisted-jacobi" in out


def test_input_error_exit_two(capsys):
    assert run(["verify", DATA / "bad_parity.json"]) == 2
    assert run(["verify", DATA / "no_such_file.json"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_machine_format_is_json(capsys):
    assert run(["verify", DATA / "abelian.json", "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["status"] == "pass"
    assert tree["command"] == "verify"
    assert "document" in tree["inputs"]


def test_output_file_holds_machine_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert run(["verify", DATA / "abelian.json", "--output", out_file]) == 0
    capsys.readouterr()
    tree = json.loads(out_file.read_text())
    assert tree["status"] == "pass"


def test_induce_tau_emits_tensor(capsys):
    assert run(["induce-tau", DATA / "line_action.json", "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["status"] == "pass"
    induced = tree["derived"]["induced"]
    assert induced["bracket3"]  # nonzero induced tensor
    assert induced["format"] == "bihom-algebra/1"


def test_induce_tau_zero_form_passes(tmp_path, capsys):
    # abelian document with tau = 0 row
    doc = json.loads((DATA / "abelian.json").read_text())
    doc["maps"] = {"tau": {"row": ["0", "0"]}}
    p = tmp_path / "abelian_tau.json"
    p.write_text(json.dumps(doc))
    assert run(["induce-tau", p, "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["derived"]["induced"].get("bracket3", []) == []


def test_check_rb_pass_and_fail(capsys):
    # diag(1,0,5) with weight 1/2 satisfies the binary identity on this fixture
    assert run(["check-rb", DATA / "line_action.json"]) == 0
    capsys.readouterr()
    # diag(2,3,5) fails it for this weight, exit 1
    assert run(["check-rb", DATA / "line_action.json", "--map", "N", "--weight", "2"]) == 1


def test_exit_codes_match_library_verdicts_on_scripted_pipelines(capsys):
    # five scripted pipelines, each compared against the direct library result
    from bihomsuper import (
        RotaBaxterOperator,
        check_rb_transfer_criterion,
        check_tau_conditions,
        is_nijenhuis_3,
        is_rb2,
        verify_bihom_jacobi,
        verify_bihom_skewsymmetry,
    )

    # 1. verify on the binary fixture
    doc = load_document(str(DATA / "line_action.json"))
    A = corpus.document_algebra(doc, 2)
    expect = verify_bihom_skewsymmetry(A).passed and verify_bihom_jacobi(A).passed
    assert (run(["verify", DATA / "line_action.json"]) == 0) is expect

    # 2. induce-tau conditions
    witness = check_tau_conditions(A, doc.forms["tau"])
    assert (run(["induce-tau", DATA / "line_action.json"]) == 0) is witness.satisfied

    # 3. check-rb with the document weight
    op = RotaBaxterOperator(doc.maps["R"], doc.scalars["lambda"])
    assert (run(["check-rb", DATA / "line_action.json"]) == 0) is is_rb2(A, op).passed

    # 4. rb-transfer criterion on the central-extension fixture
    doc2 = load_document(str(DATA / "central_pair.json"))
    A2 = corpus.document_algebra(doc2, 2)
    op2 = RotaBaxterOperator(doc2.maps["R"], doc2.scalars["lambda"])
    ok, _ = check_rb_transfer_criterion(A2, doc2.forms["tau"], op2)
    assert (run(["rb-transfer", DATA / "central_pair.json"]) == 0) is ok

    # 5. check-nijenhuis on the ternary fixture
    doc3 = load_document(str(DATA / "ternary_basic.json"))
    A3 = corpus.document_algebra(doc3, 3)
    expect3 = is_nijenhuis_3(A3, doc3.maps["N"]).passed
    assert (run(["check-nijenhuis", DATA / "ternary_basic.json"]) == 0) is expect3
    capsys.readouterr()


def test_derivations_command_reports_dimension(capsys):
    assert run(["derivations", DATA / "ternary_basic.json", "--s", "0", "--r", "0",
                "--parity", "even", "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["derived"]["dimension"] == 6
    assert len(tree["derived"]["basis"]) == 6


def test_quasiderivation_command(capsys):
    assert run(["quasiderivation", DATA / "ternary_basic.json", "--map", "D",
                "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["derived"]["is_quasiderivation"] is True


def test_rb_bracket_and_projection_commands(capsys):
    assert run(["rb-bracket", DATA / "ternary_basic.json", "--map", "R",
                "--weight", "0", "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert "induced" in tree["derived"]
    assert run(["rb-projection-twist", DATA / "ternary_basic.json", "--map", "P",
                "--weight", "0"]) == 0
    capsys.readouterr()


def test_rb_inverse_derivation_command(capsys):
    assert run(["rb-inverse-derivation", DATA / "ternary_basic.json", "--map", "R",
                "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["derived"]["weight0_operator_and_inverse_derivation"] is True
    capsys.readouterr()


def test_n_brackets_and_trivial_deformation(capsys):
    assert run(["n-brackets", DATA / "ternary_basic.json", "--map", "N",
                "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["derived"]["first"]["bracket3"]
    assert run(["trivial-deformation", DATA / "ternary_basic.json", "--map", "N",
                "--format", "machine"]) == 0
    tree2 = json.loads(capsys.readouterr().out)
    assert tree2["derived"]["omega1"] == tree["derived"]["first"]


def test_deformation_check_command(capsys):
    assert run([
        "deformation-check", DATA / "ternary_basic.json",
        "--omega1", DATA / "ternary_basic_w1.json",
        "--omega2", DATA / "ternary_basic_w2.json",
    ]) == 0
    capsys.readouterr()
    # missing tensor file is an input error
    assert run(["deformation-check", DATA / "ternary_basic.json",
                "--omega1", DATA / "ternary_basic_w1.json"]) == 2
    capsys.readouterr()


def test_transfer_and_equivalence_commands(capsys):
    assert run(["nijenhuis-transfer", DATA / "line_action.json", "--map", "N"]) == 0
    assert run(["nijenhuis-rb-compat", DATA / "ternary_basic.json", "--map", "N",
                "--rb", "R", "--weight", "0"]) == 0
    assert run(["derivation-nijenhuis-rb", DATA / "ternary_basic.json", "--map", "D"]) == 0
    capsys.readouterr()


def test_twist3_command(tmp_path, capsys):
    # build a twistable document: ternary fixture plus diagonal morphisms
    doc = json.loads((DATA / "ternary_basic.json").read_text())
    doc["maps"]["alpha"] = {"parity": 0, "matrix": [["2", "0", "0"], ["0", "3", "0"], ["0", "0", "1/3"]]}
    doc["maps"]["beta"] = {"parity": 0, "matrix": [["5", "0", "0"], ["0", "7", "0"], ["0", "0", "1/7"]]}
    p = tmp_path / "twistable.json"
    p.write_text(json.dumps(doc))
    assert run(["twist3", p, "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["derived"]["twisted"]["bracket3"]


def test_run_pipeline_unknown_command():
    from bihomsuper import DocumentError

    doc = load_document(str(DATA / "abelian.json"))
    with pytest.raises(DocumentError):
        run_pipeline("no-such-command", doc)


def test_fail_fast_flag_reduces_reported_violations(capsys):
    # identity weight-0 operator fails on this ternary fixture
    code_full = run(["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", "0",
                     "--format", "machine"])
    full = json.loads(capsys.readouterr().out)
    code_ff = run(["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", "0",
                   "--fail-fast", "--format", "machine"])
    ff = json.loads(capsys.readouterr().out)
    assert code_full == code_ff == 1
    n_full = len(full["checks"][0]["violations"])
    n_ff = len(ff["checks"][0]["violations"])
    assert n_ff == 1 <= n_full


def test_induce_tau_override_flag(tmp_path, capsys):
    # tau hitting the bracket image: refused normally, forced with the flag
    doc = json.loads((DATA / "line_action.json").read_text())
    doc["maps"]["tau"] = {"row": ["0", "1", "0"]}
    p = tmp_path / "bad_tau.json"
    p.write_text(json.dumps(doc))
    assert run(["induce-tau", p]) == 1
    capsys.readouterr()
    assert run(["induce-tau", p, "--override-tau-conditions", "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert "induced" in tree["derived"]
    assert any("unverified" in n for n in tree["notes"])


@pytest.mark.parametrize("weight", ["1/0", "half", "1.5.2"])
def test_bad_weight_is_an_input_error(weight, capsys):
    assert run(["check-rb", DATA / "line_action.json", "--weight", weight]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", "1e5000"],
    ["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", "1e5000", "--format", "machine"],
    ["rb-bracket", DATA / "ternary_basic.json", "--weight", "1e3000"],
    ["rb-bracket", DATA / "ternary_basic.json", "--weight", "1e3000", "--format", "machine"],
])
def test_report_number_beyond_the_digit_limit_is_an_input_error(argv, tmp_path, capsys):
    # the weight itself or its square has more digits than int-to-str conversion allows
    target = tmp_path / "report.json"
    for extra in ([], ["--output", target]):
        assert run(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and "Traceback" not in captured.err
        assert captured.out == ""
        assert not target.exists()


def test_document_scalar_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys):
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    tree["scalars"]["lambda"] = "1e5000"
    doc = tmp_path / "huge_lambda.json"
    doc.write_text(json.dumps(tree))
    for fmt in ("human", "machine"):
        assert run(["check-rb", doc, "--map", "N", "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("value", ["1e1000000", "1e-1000000"])
def test_huge_exponent_is_refused_before_it_is_expanded(value, tmp_path, capsys):
    # Expanding 10^1000000 takes over a second; the refusal comes from the string alone.
    assert run(["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --weight:") and "digits" in err
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    entry = json.loads(json.dumps(tree))
    entry["bracket3"][0][-1] = value
    lam = json.loads(json.dumps(tree))
    lam["scalars"]["lambda"] = value
    for name, doc, path in (("entry", entry, "bracket3[0]"), ("lambda", lam, "scalars.lambda")):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        assert run(["check-rb", p, "--map", "N"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}") and "digits" in err, err


LIMIT = int_digit_limit()


@pytest.mark.skipif(not LIMIT, reason="this Python has no integer string conversion limit")
@pytest.mark.parametrize("value, ok", [
    # 10^(L-1) and 2 * 10^(L-1) have L digits; 10^L has L + 1
    (f"1e-{LIMIT - 1}", True), (f"0.5e-{LIMIT - 1}", True),
    (f"1e-{LIMIT}", False), (f"3e-{LIMIT}", False),
])
def test_negative_exponent_digits_are_counted_exactly(value, ok, tmp_path, capsys):
    if ok:
        assert len(str(as_scalar(value).denominator)) == LIMIT
        return
    with pytest.raises(ValueError, match="digits"):
        as_scalar(value)
    # refused at parse time, naming the option or the field path
    assert run(["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --weight:") and "digits" in err, err
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    tree["bracket3"][0][-1] = value
    p = tmp_path / "entry.json"
    p.write_text(json.dumps(tree))
    assert run(["check-rb", p, "--map", "N"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: bracket3[0]") and "digits" in err, err


_LONG_FIELDS = {  # where each field of ternary_basic.json sits in its JSON tree
    "scalars.lambda": ("scalars", "lambda"),
    "space.dim": ("space", "dim"),
    "bracket3[0]": ("bracket3", 0, -1),
    "maps.alpha.matrix[0][0]": ("maps", "alpha", "matrix", 0, 0),
}


@pytest.mark.skipif(not LIMIT, reason="this Python has no integer string conversion limit")
@pytest.mark.parametrize("path", list(_LONG_FIELDS))
def test_json_integer_past_the_digit_limit_is_refused_at_its_field(path, tmp_path, capsys):
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    *keys, last = _LONG_FIELDS[path]
    node = tree
    for key in keys:
        node = node[key]
    node[last] = 987654321  # no other integer of the document, so the text has it once
    text = json.dumps(tree).replace("987654321", "7" * (LIMIT + 1))
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == path
    doc = tmp_path / "long.json"
    doc.write_text(text)
    assert run(["verify", doc]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {path}: ") and "Traceback" not in captured.err


@pytest.mark.skipif(not LIMIT, reason="this Python has no integer string conversion limit")
@pytest.mark.parametrize("value", ["9" * (LIMIT + 1), "-1/" + "7" * (LIMIT + 1), "1" * (LIMIT + 1) + "e0"],
                         ids=["integer", "p/q", "decimal"])
def test_value_past_the_digit_limit_gets_the_digits_message(value, capsys):
    """Python's own conversion refuses these; the refusal still names the limit, not a malformed number."""
    message = f"{value!r} has more than {LIMIT} digits, beyond the integer string conversion limit"
    with pytest.raises(ValueError) as exc:
        as_scalar(value)
    assert str(exc.value) == message
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    tree["scalars"]["lambda"] = value
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(tree))
    assert (err.value.path, str(err.value)) == ("scalars.lambda", f"scalars.lambda: {message}")
    assert run(["check-rb", DATA / "ternary_basic.json", "--map", "N", f"--weight={value}"]) == 2
    assert capsys.readouterr().err == f"input error: --weight: {message}\n"


@pytest.mark.skipif(not LIMIT, reason="this Python has no integer string conversion limit")
@pytest.mark.parametrize("value", ["x" + "1" * (LIMIT + 1), "1" * (LIMIT + 1) + "x", "1/2/" + "3" * (LIMIT + 1)],
                         ids=["letter-first", "letter-last", "two-slashes"])
def test_malformed_value_with_a_long_digit_run_is_not_a_rational_number(value, tmp_path, capsys):
    """Shortening the digits would not make these numbers, so the refusal does not blame their length."""
    message = f"not a rational number: {value!r}"
    with pytest.raises(ValueError) as exc:
        as_scalar(value)
    assert str(exc.value) == message
    assert run(["check-rb", DATA / "ternary_basic.json", "--map", "N", f"--weight={value}"]) == 2
    assert capsys.readouterr().err == f"input error: --weight: {message}\n"
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    tree["bracket3"][0][-1] = value
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(tree))
    assert (err.value.path, str(err.value)) == ("bracket3[0]", f"bracket3[0]: {message}")
    doc = tmp_path / "entry.json"
    doc.write_text(json.dumps(tree))
    assert run(["check-rb", doc, "--map", "N"]) == 2
    assert capsys.readouterr().err == f"input error: bracket3[0]: {message}\n"


@pytest.mark.skipif(not LIMIT, reason="this Python has no integer string conversion limit")
def test_plain_decimal_past_the_digit_limit_is_refused_at_its_field(tmp_path, capsys):
    """Each run of digits is under the limit but not the two together, and there is no exponent."""
    value = "1" * (LIMIT * 7 // 10) + "." + "1" * (LIMIT * 7 // 10)
    message = f"{value!r} has more than {LIMIT} digits, beyond the integer string conversion limit"
    with pytest.raises(ValueError) as exc:
        as_scalar(value)
    assert str(exc.value) == message
    assert run(["check-rb", DATA / "ternary_basic.json", "--map", "N", f"--weight={value}"]) == 2
    assert capsys.readouterr().err == f"input error: --weight: {message}\n"
    for path in ("scalars.lambda", "maps.alpha.matrix[0][0]", "bracket3[0]"):
        tree = json.loads((DATA / "ternary_basic.json").read_text())
        *keys, last = _LONG_FIELDS[path]
        node = tree
        for key in keys:
            node = node[key]
        node[last] = value
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(tree))
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")
        doc = tmp_path / "long.json"
        doc.write_text(json.dumps(tree))
        for argv in (["verify", doc], ["derivations", doc], ["check-rb", doc, "--map", "N"]):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"input error: {path}: {message}\n", (path, argv)


@pytest.mark.skipif(not LIMIT, reason="this Python has no integer string conversion limit")
@pytest.mark.parametrize("command", ["check-rb", "rb-bracket"])
@pytest.mark.parametrize("source", ["--weight", "scalars.lambda"])
def test_unprintable_report_names_the_weight_and_the_limit(command, source, tmp_path, capsys):
    # a weight of 10^-(L-1) is read (its denominator has exactly L digits), but
    # the weighted sums multiply it with itself, past the limit
    value = f"1e-{LIMIT - 1}"
    argv = [command, DATA / "ternary_basic.json", "--map", "N", "--weight", value]
    if source == "scalars.lambda":
        tree = json.loads((DATA / "ternary_basic.json").read_text())
        tree["scalars"]["lambda"] = value
        argv[1] = tmp_path / "lambda.json"
        argv[1].write_text(json.dumps(tree))
        del argv[-2:]
    target = tmp_path / "report.json"
    for fmt in ("human", "machine"):
        for extra in ([], ["--output", target]):
            assert run(argv + ["--format", fmt] + extra) == 2
            captured = capsys.readouterr()
            assert captured.err == (f"input error: {source}: the report holds a number of more than {LIMIT} "
                                    "digits, beyond the integer string conversion limit\n")
            assert captured.out == ""
            assert not target.exists()


def test_weight_with_a_small_exponent_still_works(capsys):
    assert run(["check-rb", DATA / "ternary_basic.json", "--map", "N", "--weight", "1e3",
                "--format", "machine"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "report.json"
    assert run(["verify", DATA / "abelian.json", "--output", target]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert not target.exists()
    assert run(["verify", DATA / "abelian.json", "--output", tmp_path]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_input_paths_that_are_not_files_are_input_errors(capsys):
    # a path through a regular file raises NotADirectoryError, not FileNotFoundError
    assert run(["verify", DATA / "abelian.json" / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert run(["deformation-check", DATA / "ternary_basic.json",
                "--omega1", DATA / "abelian.json" / "x",
                "--omega2", DATA / "ternary_basic_w2.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_twist_given_as_a_row_is_an_input_error(name, tmp_path, capsys):
    """A row under a twist's name is refused at its field, not read as the identity."""
    tree = json.loads((DATA / "ternary_basic.json").read_text())
    tree["maps"][name] = {"row": ["1", "0", "0"]}
    path = tmp_path / "row_twist.json"
    path.write_text(json.dumps(tree))
    for command in ("verify", "derivations", "check-rb"):
        assert run([command, path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: maps.{name}: map {name!r} is a row, not a matrix\n")


def test_matrix_named_as_the_form_is_an_input_error(capsys):
    """A matrix under the form's name is refused as a matrix, and an absent name as not defined."""
    for name, message in (("R", "map 'R' is a matrix, not a row"), ("absent", "row 'absent' is not defined")):
        assert run(["induce-tau", DATA / "line_action.json", "--tau", name]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: maps: {message}\n")


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    assert run(["verify", p]) == 2
    assert capsys.readouterr().err.startswith("input error:")


GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"


@pytest.mark.parametrize("command", ["derivations", "quasiderivation"])
@pytest.mark.parametrize("option", ["--s", "--r"])
def test_unprintable_twist_power_is_refused_before_solving(command, option, monkeypatch, capsys):
    from bihomsuper import derivations

    def never(*args):
        raise AssertionError("the command solved before checking the exponent")

    monkeypatch.setattr(derivations, "solve_derivation_space", never)
    monkeypatch.setattr(derivations, "is_quasiderivation_3", never)
    # twistable's twists are diagonal with entries 2, 3, 1/3 and 5, 7, 1/7:
    # their 200000th powers have about 60,000 and 95,000 digits.
    assert run([command, GOLDEN_DOCS / "twistable.json", option, "200000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --s/--r:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["derivations", "quasiderivation"])
@pytest.mark.parametrize("option", ["--s", "--r"])
def test_twist_power_refused_by_its_determinant_is_never_built(command, option, capsys):
    # det alpha = 2 and det beta = 5: 10^8 log10 2 is far above 3 * 4 * L + log10 3!, the most
    # digits a determinant of 3 x 3 entries below 10^L can have; building the power takes minutes
    start = time.perf_counter()
    assert run([command, GOLDEN_DOCS / "twistable.json", option, "100000000"]) == 2
    assert time.perf_counter() - start < 2
    power = "alpha^100000000 beta^0" if option == "--s" else "alpha^0 beta^100000000"
    assert capsys.readouterr().err == (f"input error: --s/--r: {power} has entries of more than "
                                       f"{int_digit_limit()} digits, beyond the integer string conversion limit\n")


def _below(bound):  # the largest power s with s log10 2 below ``bound``
    return int(bound / math.log10(2))


@pytest.mark.parametrize("alpha, power, built, code", [
    # det 1/2: a printable power keeps log10 |det| = -s log10 2 above -n^2 L = -9 L
    (["1/2", "1/3", "3"], lambda L: 10 ** 8, False, 2),  # far beyond: refused unbuilt
    (["1/2", "1/3", "3"], lambda L: _below(9 * L + 2) + 1, False, 2),  # two decades beyond, past the margin
    (["1/2", "1/3", "3"], lambda L: _below(9 * L - 0.5), True, 2),  # half a decade inside: built, then refused
    (["1/2", "1/3", "3"], lambda L: 30, True, 0),  # the built power decides, and prints
    (["3", "1/3", "1"], lambda L: 10 ** 5, True, 2),  # det 1 decides nothing: 3^s is built and refused
    (["0", "1", "1"], lambda L: 10 ** 8, True, 0),  # a singular twist decides nothing: built, and it prints
])
def test_determinant_refuses_only_what_it_proves_unprintable(alpha, power, built, code, tmp_path, monkeypatch,
                                                             capsys):
    from bihomsuper import derivations

    doc = json.loads((GOLDEN_DOCS / "twistable.json").read_text())
    doc["maps"]["alpha"]["matrix"] = [[c if i == k else "0" for i, c in enumerate(alpha)] for k in range(3)]
    path = tmp_path / "twists.json"
    path.write_text(json.dumps(doc))
    powered, twist = [], derivations._twist
    monkeypatch.setattr(derivations, "_twist", lambda *args: powered.append(args[1:]) or twist(*args))
    assert run(["derivations", path, "--s", str(power(int_digit_limit()))]) == code
    assert bool(powered) == built
    assert ("--s/--r: alpha^" in capsys.readouterr().err) == (code == 2)


def test_power_with_long_and_short_entries_is_refused_without_long_gcds(tmp_path, capsys):
    # det diag(3, 1/3, 1) = 1 decides nothing, so alpha^s is built: (3^2s, 1, 3^s) over 3^s.
    # Each squaring's content gcd meets the entry 1 first, and the refusal reads the bit
    # lengths of 3^2s and 3^s; a gcd or a division of two such entries takes seconds.
    # The refusal takes 0.6-1.2 s on 2 vCPUs with Python 3.11.
    doc = json.loads((DATA / "ternary_basic.json").read_text())
    doc["maps"]["alpha"]["matrix"] = [["3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1"]]
    path = tmp_path / "long_and_short.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(["derivations", path, "--s", "1000000"]) == 2
    assert time.perf_counter() - start < 4
    assert capsys.readouterr().err == ("input error: --s/--r: alpha^1000000 beta^0 has entries of more than "
                                       f"{int_digit_limit()} digits, beyond the integer string conversion limit\n")


def test_twist_power_of_identity_twists_is_solved(capsys):
    # the identity's determinant is 1, and its powers print at any exponent
    assert run(["derivations", DATA / "ternary_basic.json", "--s", "1000000000", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_twist_power_within_the_digit_limit_is_solved(capsys):
    # 7^1000 has 846 digits, the basis entries about twice as many: all under the default 4300
    assert run(["derivations", GOLDEN_DOCS / "twistable.json", "--r", "1000", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize("command, power, what", [("derivations", 3000, "the derivation basis"),
                                                   ("quasiderivation", 2000, "the companion map")])
def test_unprintable_solution_is_refused(command, power, what, capsys):
    # alpha^0 beta^r passes the exponent check (7^3000 has 2,536 digits), but
    # the solved entries grow like its square and pass the 4300-digit limit
    assert run([command, GOLDEN_DOCS / "twistable.json", "--r", power]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: --s/--r: {what}") and not captured.out


@pytest.mark.parametrize("command", ["derivations", "quasiderivation"])
@pytest.mark.parametrize("option", ["--s", "--r"])
def test_negative_twist_power_names_its_option(command, option, capsys):
    assert run([command, GOLDEN_DOCS / "twistable.json", option, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {option}: twist powers must be non-negative, got -1\n"
    assert not captured.out


@pytest.mark.parametrize("command", ["derivations", "quasiderivation"])
def test_one_job_builds_each_twist_power_and_identity_once(command, monkeypatch, capsys):
    """alpha^1 beta^1 is built once, for the digit check, and read again by the
    solve and by every re-check; each space has one identity map."""
    doc = load_document(GOLDEN_DOCS / "twistable.json")
    powered, identities = [], {}
    power, store = GradedMap.power, GradedMap._store

    def counted_power(self, exponent):
        powered.append((self.matrix, exponent))
        return power(self, exponent)

    def counted_store(self, *args):  # every map, from the public or the private constructor
        store(self, *args)
        if self.matrix == tuple(tuple(int(k == i) for i in self.space.indices()) for k in self.space.indices()):
            identities[id(self.space)] = identities.get(id(self.space), 0) + 1

    monkeypatch.setattr(GradedMap, "power", counted_power)
    monkeypatch.setattr(GradedMap, "_store", counted_store)
    assert run([command, GOLDEN_DOCS / "twistable.json", "--s", "1", "--r", "1", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    if command == "derivations":
        assert report["derived"]["dimension"] == 2  # two re-checks, one alpha^1 beta^1
    assert powered == [(doc.map_named("alpha").matrix, 1), (doc.map_named("beta").matrix, 1)]
    assert list(identities.values()) == [1]


def _python_dash_m(*args):
    import bihomsuper

    src = str(Path(bihomsuper.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("document, code", [("ternary_basic.json", 0), ("bad_parity.json", 2)])
def test_python_dash_m_runs_the_command_line(document, code):
    done = _python_dash_m("bihomsuper", "verify", DATA / document)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert "status: pass" in done.stdout
    else:
        assert done.stderr.startswith("input error:")


def test_python_dash_m_on_the_cli_module_points_to_the_package():
    done = _python_dash_m("bihomsuper.cli", "verify", DATA / "ternary_basic.json")
    assert done.returncode == 2 and not done.stdout
    assert "use `python -m bihomsuper" in done.stderr


# The --map name each command falls back to, written out independently of the table.
DEFAULT_MAP = {
    "quasiderivation": "D",
    **dict.fromkeys(["check-nijenhuis", "n-brackets", "trivial-deformation", "nijenhuis-transfer",
                     "nijenhuis-rb-compat", "derivation-nijenhuis-rb"], "N"),
    **dict.fromkeys(["check-rb", "rb-bracket", "rb-inverse-derivation", "rb-transfer",
                     "rb-projection-twist"], "R"),
}


def _names_requested(monkeypatch, call):
    """Run ``call`` and return the map and form names it looked up in documents."""
    from bihomsuper.documents import AlgebraDocument

    seen = []
    map_named, form_named = AlgebraDocument.map_named, AlgebraDocument.form_named

    def record_map(self, name, *rest):
        seen.append(("map", name))
        return map_named(self, name, *rest)

    def record_form(self, name, *rest):
        seen.append(("form", name))
        return form_named(self, name, *rest)

    with monkeypatch.context() as m:
        m.setattr(AlgebraDocument, "map_named", record_map)
        m.setattr(AlgebraDocument, "form_named", record_form)
        result = call()
    return seen, result


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_library_callers_get_the_cli_defaults(command, monkeypatch, capsys):
    row = COMMANDS[command]
    assert row.default_map == DEFAULT_MAP.get(command)
    if row.aux:
        path = DATA / "ternary_basic.json"
        aux_paths = dict(zip(row.aux, [DATA / "ternary_basic_w1.json", DATA / "ternary_basic_w2.json"]))
    else:
        path, aux_paths = GOLDEN_DOCS / "mixed_parity.json", {}
    argv = [command, path, "--format", "machine"]
    for key, aux_path in aux_paths.items():
        argv += [f"--{key}", aux_path]
    cli_names, code = _names_requested(monkeypatch, lambda: run(argv))
    cli_text = capsys.readouterr().out
    assert code in (0, 1)
    doc = load_document(str(path))
    aux = {key: load_document(str(p)) for key, p in aux_paths.items()}
    lib_names, report = _names_requested(monkeypatch, lambda: run_pipeline(command, doc, aux=aux))
    assert lib_names == cli_names
    assert report.machine_text() == cli_text
    expected = {("map", DEFAULT_MAP[command])} if command in DEFAULT_MAP else set()
    expected |= {
        "nijenhuis-rb-compat": {("map", "R")},
        "twist3": {("map", "alpha"), ("map", "beta")},
        "induce-tau": {("form", "tau")},
        "rb-transfer": {("form", "tau")},
        "nijenhuis-transfer": {("form", "tau")},
    }.get(command, set())
    assert set(lib_names) == expected


# Each option a command may take: its run_pipeline key and a value (None: a switch).
FLAGS = {
    "--weight": ("weight", "1"), "--s": ("s", "1"), "--r": ("r", "1"), "--parity": ("parity", "odd"),
    "--fail-fast": ("fail_fast", None), "--override-tau-conditions": ("override_tau", None),
    "--map": ("map_name", "R"), "--tau": ("tau_name", "tau"), "--alpha": ("alpha_name", "alpha"),
    "--beta": ("beta_name", "beta"), "--rb": ("rb_name", "R"),
    "--omega1": ("omega1", str(DATA / "ternary_basic_w1.json")),
    "--omega2": ("omega2", str(DATA / "ternary_basic_w2.json")),
}
# The options each command's body reads; every command also takes its document, --format and --output.
READS = {
    "verify": {"--fail-fast"},
    "twist3": {"--alpha", "--beta"},
    "induce-tau": {"--tau", "--override-tau-conditions"},
    "derivations": {"--s", "--r", "--parity"},
    "quasiderivation": {"--map", "--s", "--r"},
    "check-rb": {"--map", "--weight", "--fail-fast"},
    "rb-bracket": {"--map", "--weight"},
    "rb-inverse-derivation": {"--map"},
    "rb-transfer": {"--map", "--weight", "--tau"},
    "rb-projection-twist": {"--map", "--weight"},
    "check-nijenhuis": {"--map"},
    "n-brackets": {"--map"},
    "deformation-check": {"--fail-fast", "--omega1", "--omega2"},
    "trivial-deformation": {"--map"},
    "nijenhuis-transfer": {"--map", "--tau"},
    "nijenhuis-rb-compat": {"--map", "--weight", "--rb"},
    "derivation-nijenhuis-rb": {"--map"},
}


def test_each_command_takes_only_the_options_it_reads(capsys):
    """Of the 17 x 13 (command, option) pairs, the 34 that the bodies read parse to their
    ``run_pipeline`` keys.  Every other option exits 2 from ``main`` with argparse's
    refusal naming the flag and nothing on stdout, and ``run_pipeline`` refuses its key."""
    assert set(READS) == set(COMMANDS) and sum(map(len, READS.values())) == 34
    path = str(DATA / "ternary_basic.json")
    doc = load_document(path)
    for command, reads in READS.items():
        row = COMMANDS[command]
        assert {FLAGS[flag][0] for flag in reads} == {*row.options, *row.aux}
        for flag, (key, value) in FLAGS.items():
            argv = [command, path, flag] + ([value] if value else [])
            if flag in reads:
                parsed = vars(cli._build_parser().parse_args(argv))
                assert set(parsed) == {"command", "document", "format", "output", key}
                continue
            with pytest.raises(SystemExit) as exited:
                main(argv)
            out, err = capsys.readouterr()
            assert (exited.value.code, out) == (2, ""), argv
            assert f"unrecognized arguments: {flag}" in err, argv
            with pytest.raises(DocumentError) as refused:
                run_pipeline(command, doc, {key: value or True})
            assert refused.value.path == key


def test_quasiderivation_commutation_failure_reports_its_columns(tmp_path, capsys):
    """A candidate that does not commute with the twists is refused with the failing
    ``commutes-with-*`` columns, the same ones the derivation verifier lists."""
    doc = json.loads((GOLDEN_DOCS / "twistable.json").read_text())
    doc["maps"]["X"] = {"parity": 0, "matrix": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
    path = tmp_path / "twistable_x.json"
    path.write_text(json.dumps(doc))
    parsed = load_document(str(path))
    A = ThreeBiHomLieSuperalgebra(parsed.space, parsed.bracket3, *parsed.structure_maps())
    X = parsed.map_named("X")
    commutation = [v for v in is_derivation_3(A, X, 0, 0).violations if v.rule.startswith("commutes-with-")]
    assert {v.rule for v in commutation} == {"commutes-with-alpha", "commutes-with-beta"}
    with pytest.raises(PreconditionError) as refused:
        is_quasiderivation_3(A, X, 0, 0)
    assert isinstance(refused.value.details, VerificationReport)
    assert refused.value.details.violations == tuple(commutation)

    assert run(["quasiderivation", path, "--map", "X", "--format", "machine"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert [(v["where"], v["rule"], v["residual"]) for v in checks["twist-commutation"]["violations"]] == [
        ([i + 1 for i in v.where], v.rule, [str(c) for c in v.residual]) for v in commutation]


def test_reused_parser_keeps_calls_independent(tmp_path, monkeypatch, capsys):
    """``main`` builds its parser on the first call and reuses it: a sequence of calls
    and the same sequence reversed give every call the same exit code and output."""
    ternary, w1, w2 = DATA / "ternary_basic.json", DATA / "ternary_basic_w1.json", DATA / "ternary_basic_w2.json"
    report = tmp_path / "report.json"
    calls = [
        ["check-rb", ternary, "--map", "N", "--weight", "0", "--fail-fast"],
        ["check-rb", ternary, "--map", "N", "--weight", "0"],
        ["verify", ternary, "--format", "machine"],
        ["verify", ternary],
        ["derivations", ternary, "--output", report, "--s", "1", "--r", "1"],
        ["derivations", ternary],
        ["deformation-check", ternary, "--omega1", w1, "--omega2", w2, "--format", "machine"],
        ["verify", ternary, "--no-such-option"],
        ["quasiderivation", ternary, "--format", "machine"],
        ["rb-transfer", "--help"],
    ]

    def call(argv):
        report.unlink(missing_ok=True)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, report.read_text() if report.exists() else None

    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    forward = [call(argv) for argv in calls[:1]]
    assert built  # the first call builds the parser
    first_build = len(built)
    forward += [call(argv) for argv in calls[1:]]
    backward = [call(argv) for argv in reversed(calls)][::-1]
    assert len(built) == first_build
    assert forward == backward
    codes = [result[0] for result in forward]
    assert codes == [1, 1, 0, 0, 0, 0, 0, 2, 0, 0]
    assert forward[4][3] is not None and forward[5][3] is None  # --output wrote only where given
    assert "unrecognized arguments: --no-such-option" in forward[7][2]
    assert forward[9][1].startswith("usage: bihomsuper rb-transfer")


def _write_doc(tmp_path, source, name, maps):
    """``source`` with the even maps ``{name: matrix rows}`` added or replaced, written to ``name``."""
    doc = json.loads(source.read_text())
    doc["maps"].update({key: {"parity": 0, "matrix": [[str(c) for c in row] for row in rows]}
                        for key, rows in maps.items()})
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _machine_checks(argv, code, capsys):
    assert run([*argv, "--format", "machine"]) == code
    return {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def _witnesses(check):
    return [(v["where"], v["rule"], v["residual"]) for v in check["violations"]]


def _violation_trees(violations):
    return [([i + 1 for i in v.where], v.rule, [str(c) for c in v.residual]) for v in violations]


@pytest.mark.parametrize("command", ["rb-transfer", "nijenhuis-transfer"])
def test_transfer_refusal_lists_the_failing_tau_pairs(command, tmp_path, capsys):
    """A form failing the induction conditions is refused with its three condition reports,
    the same checks ``induce-tau`` lists on the document."""
    doc = json.loads((DATA / "central_pair.json").read_text())
    doc["maps"]["tau"] = {"row": ["0", "0", "0", "1"]}
    doc["maps"]["N"] = doc["maps"]["alpha"]  # the identity is Nijenhuis
    path = tmp_path / "central_pair_tau4.json"
    path.write_text(json.dumps(doc))
    checks = _machine_checks([command, path], 1, capsys)
    assert checks["preconditions"]["notes"] == ["form fails the induction conditions"]
    assert [(v["where"], v["rule"]) for v in checks["tau-annihilates-brackets"]["violations"]] == [
        ([2, 3], "bracket-annihilation"), ([3, 2], "bracket-annihilation")]
    induced = _machine_checks(["induce-tau", path], 1, capsys)
    assert list(checks) == ["preconditions", *induced]
    assert all(checks[name] == check for name, check in induced.items())


@pytest.mark.parametrize("command", ["check-rb", "check-nijenhuis"])
def test_operator_refusal_lists_the_columns_that_do_not_commute_with_a_twist(command, tmp_path, capsys):
    path = _write_doc(tmp_path, GOLDEN_DOCS / "twistable.json", "twistable_x.json",
                      {"X": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]})
    parsed = load_document(str(path))
    A = corpus.document_algebra(parsed, 3)
    expected = [v for v in is_derivation_3(A, parsed.maps["X"], 0, 0).violations
                if v.rule.startswith("commutes-with-")]
    assert {v.rule for v in expected} == {"commutes-with-alpha", "commutes-with-beta"}
    weight = ["--weight", "0"] if command == "check-rb" else []  # check-nijenhuis reads no weight
    checks = _machine_checks([command, path, "--map", "X", *weight], 1, capsys)
    assert checks["preconditions"]["notes"] == ["operator does not commute with alpha"]
    assert _witnesses(checks["twist-commutation"]) == _violation_trees(expected)


@pytest.mark.parametrize("maps, message, rules", [
    ({"alpha": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}, "twisting maps do not commute", {"twists-commute"}),
    ({"alpha": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "beta": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "alpha is not a morphism of the input bracket", {"alpha-morphism"}),
    ({"beta": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}, "beta is not a morphism of the input bracket", {"beta-morphism"}),
    ({"alpha": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "beta": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]},
     "alpha is not a morphism of the input bracket", {"alpha-morphism", "beta-morphism"}),
], ids=["twists-commute", "alpha-morphism", "beta-morphism", "both-morphisms"])
def test_twist_refusal_lists_the_failing_multiplicativity_rule(maps, message, rules, tmp_path, capsys):
    """The twisting maps are checked as the multiplicativity report of (bracket, alpha, beta);
    the refusal names the first failing condition and carries the report."""
    path = _write_doc(tmp_path, GOLDEN_DOCS / "twistable.json", "twistable_bad.json", maps)
    parsed = load_document(str(path))
    ident = GradedMap.identity(parsed.space)
    seed = ThreeBiHomLieSuperalgebra(parsed.space, parsed.bracket3, ident, ident)
    alpha, beta = parsed.structure_maps()
    with pytest.raises(TwistError, match=message) as refused:
        make_twist_3(seed, alpha, beta)
    report = refused.value.details
    assert report == verify_multiplicativity3(ThreeBiHomLieSuperalgebra(parsed.space, parsed.bracket3, alpha, beta))
    assert {v.rule for v in report.violations} == rules
    checks = _machine_checks(["twist3", path], 1, capsys)
    assert checks["preconditions"]["notes"] == [message]
    assert _witnesses(checks["ternary-multiplicativity"]) == _violation_trees(report.violations)


def test_nijenhuis_rb_refusal_lists_the_columns_where_the_operators_do_not_commute(tmp_path, capsys):
    """N = E_33 is Nijenhuis and R = E_32 passes the weight-0 identity on the ternary fixture,
    but N R - R N = E_32: the refusal lists its second column."""
    path = _write_doc(tmp_path, DATA / "ternary_basic.json", "ternary_nr.json",
                      {"N": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], "R": [[0, 0, 0], [0, 0, 0], [0, 1, 0]]})
    checks = _machine_checks(["nijenhuis-rb-compat", path, "--weight", "0"], 1, capsys)
    assert checks["preconditions"]["notes"] == ["the two operators do not commute"]
    assert _witnesses(checks["operator-commutation"]) == [([2], "commutes-with-R", ["0", "0", "1"])]


@pytest.mark.parametrize("command, name, code, counts", [
    ("rb-bracket", "R", 0, (1, 0, 0, 1)),
    ("rb-bracket", "N", 1, (1, 0, 0, 1)),
    ("nijenhuis-rb-compat", "N", 0, (1, 0, 0, 2)),
    ("rb-projection-twist", "P", 0, (1, 1, 1, 1)),
    ("check-nijenhuis", "N", 0, (0, 0, 0, 1)),
    ("n-brackets", "N", 0, (0, 0, 0, 1)),
    ("trivial-deformation", "N", 0, (0, 0, 0, 1)),
    ("rb-inverse-derivation", "R", 0, (1, 0, 0, 1)),
])
def test_each_hypothesis_is_checked_once_per_job(command, name, code, counts, monkeypatch, capsys):
    """One job runs each check once, in the caller that reports it: the weighted identity, the
    skew-symmetry and Jacobi walks, and the ``--map`` operator's commutation with the twists,
    which ``nijenhuis-rb-compat`` checks on the algebra and on the induced bracket."""
    operator = load_document(str(DATA / "ternary_basic.json")).maps[name]
    *walks, twists = [corpus.count_calls(monkeypatch, function) for function in (
        rota_baxter.is_rb3, algebras.verify_3bihom_skewsymmetry, algebras.verify_3bihom_jacobi,
        algebras._require_commuting_twists)]
    weight = ["--weight", "0"] if command in ("rb-bracket", "nijenhuis-rb-compat", "rb-projection-twist") else []
    assert run([command, DATA / "ternary_basic.json", "--map", name, *weight]) == code
    capsys.readouterr()
    assert (*map(len, walks), sum(args[0] == operator for args in twists)) == counts


def test_abs_det_pivots_by_position():
    # rows that are one tuple object are still two rows: (r, r) is singular
    r = (F(1), F(0))
    assert cli._abs_det(GradedMap(SuperSpace((0, 0)), (r, r))) == 0
    assert cli._abs_det(GradedMap(SuperSpace((0, 0, 0)), ((F(3), F(0), F(0)), (F(0), F(1, 3), F(0)),
                                                          (F(0), F(0), F(1))))) == 1


@pytest.mark.parametrize("parities, rows, parity", [
    ((0, 0, 0), [[1, 2, 3], [F(1, 2), F(-1, 3), 0], [F(3, 2), F(5, 3), 3]], 0),  # row 3 = row 1 + row 2
    ((0, 0, 0), [[F(2, 3), F(1, 5), 0], [F(2, 3), F(1, 5), 0], [0, F(7, 4), 1]], 0),  # two equal rows
    ((0, 0, 0), [[0, F(1, 2), 1], [0, F(3, 4), F(-1, 6)], [0, 0, 5]], 0),  # a zero column
    ((0, 0, 0), [[0, F(1, 2), 1], [F(3, 4), 0, F(-1, 6)], [F(1, 9), 2, 0]], 0),  # a zero pivot in place
    ((0, 1), [[0, F(2, 3)], [F(-5, 7), 0]], 1),
    ((0, 0, 1, 1), [[0, 0, F(1, 2), 3], [0, 0, F(-2, 5), 1], [F(4, 9), 1, 0, 0], [F(1, 3), F(3, 4), 0, 0]], 1),
    ((0, 1, 1), [[0, F(1, 2), 1], [0, 0, 0], [F(2, 3), 0, 0]], 1),  # odd and singular
])
def test_abs_det_matches_fraction_elimination(parities, rows, parity):
    m = GradedMap(SuperSpace(parities), tuple(map(tuple, rows)), parity)
    assert cli._abs_det(m) == oracles.abs_det(rows)


def test_abs_det_matches_fraction_elimination_on_drawn_maps():
    """Even and odd maps of dims 1-4 with entries over denominators 1-6, half of them zeros,
    so that shared and dependent rows and zero pivots all occur."""
    rng, dets = random.Random(5), set()
    for _ in range(300):
        parities = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
        parity = rng.randrange(2)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.5 and p ^ q == parity else F(0)
                 for q in parities] for p in parities]
        if len(rows) > 1 and parities[-1] == parities[0] and rng.random() < 0.2:
            rows[-1] = list(rows[0])  # a shared row
        det = oracles.abs_det(rows)
        assert cli._abs_det(GradedMap(SuperSpace(parities), tuple(map(tuple, rows)), parity)) == det, rows
        dets.add(det == 0)
    assert dets == {False, True}


def test_document_scalars_and_built_objects_are_not_coerced_again(monkeypatch, capsys):
    """A derivations job reads each document scalar into a Fraction once, and builds its maps,
    tensors and solver rows without coercing them again: no Fraction and no string reaches
    ``as_scalar``.  The job may make no call at all, so a probe after it shows that the hook
    sees the calls made through the name that ``core`` binds."""
    calls = corpus.count_calls(monkeypatch, as_scalar)
    assert run(["derivations", GOLDEN_DOCS / "twistable.json", "--r", "2"]) == 0
    capsys.readouterr()
    assert not [args for args in calls if isinstance(args[0], (F, str))]
    seen = len(calls)
    GradedMap.diagonal(SuperSpace((0,)), [2])  # coerces its int entry through core's as_scalar
    assert calls[seen:] == [(2,)]


def test_verify_walks_pass_fractions_through_check_vector(monkeypatch, capsys):
    """The per-tuple walks hand Fractions to ``SuperSpace.check_vector``, which keeps them as
    they are: no call of ``as_scalar`` on a verify job receives a Fraction."""
    calls = corpus.count_calls(monkeypatch, as_scalar)
    assert run(["verify", GOLDEN_DOCS / "twistable.json"]) == 1  # twisted skew-symmetry and Jacobi fail
    capsys.readouterr()
    assert not [args for args in calls if isinstance(args[0], F)]
