import io
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fln import cli
from fln.cli import build_arg_parser, main
from fln.parser import parse_formula, parse_proof, parse_structure
from fln.semantics import eval_formula

F = Fraction

MP_THEORY = "4/5 : P\n9/10 : P -> Q\n"

HEDGE_SIG = "mode h\nstressers s1\n"

STRUCTURE = """
domain d1 d2
pred P/1 { d1: 2/5, d2: 9/10 }
"""


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_captured(capsys, argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call, counting
    argparse's own exits (help, usage errors)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv):
    """(exit code, stdout, stderr) of ``python -m fln ARGV`` in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run([sys.executable, "-m", "fln", *argv], capture_output=True, text=True, env=env, timeout=60)
    return p.returncode, p.stdout, p.stderr


def test_parse_canonical(tmp_path):
    sig = tmp_path / "sig.fln"
    sig.write_text("mode h\nstressers s1\ndepressers d1\n")
    code, out = run("parse", "--sig", str(sig), "P('u) -> d1 P('u)")
    assert code == 0
    assert out == "P('u) -> d1 P('u)\n"


def test_parse_error_exit_code(tmp_path, capsys):
    code, _ = run("parse", "P(")
    assert code == 2
    assert "offset 2" in capsys.readouterr().err


def test_parse_no_sugar():
    code, out = run("parse", "--no-sugar", "~P('u)")
    assert code == 0
    assert out == "P('u) -> #0\n"


def test_prove_reports_bound_and_proof(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    code, out = run("prove", "--theory", str(theory), "--goal", "Q")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "BOUND 7/10"
    assert lines[1] == "FIXPOINT yes"
    proof = parse_proof("\n".join(lines[2:]))
    assert proof.value() == F(7, 10)


def test_prove_then_check_proof_round_trip(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    _, out = run("prove", "--theory", str(theory), "--goal", "Q")
    proof_file = tmp_path / "w.proof"
    proof_file.write_text("\n".join(out.splitlines()[2:]) + "\n")
    code, out2 = run("check-proof", "--theory", str(theory), str(proof_file))
    assert code == 0
    assert out2 == "VAL 7/10\n"


def test_prove_logical_axiom_without_theory_file(tmp_path):
    theory = tmp_path / "empty.fln"
    theory.write_text("% no axioms\n")
    code, out = run("prove", "--theory", str(theory), "--goal", "P -> (Q -> P)")
    assert code == 0
    assert out.splitlines()[0] == "BOUND 1"


def test_prove_constant_goal(tmp_path):
    theory = tmp_path / "empty.fln"
    theory.write_text("")
    code, out = run("prove", "--theory", str(theory), "--goal", "#(1/2)")
    assert code == 0
    assert out.splitlines()[0] == "BOUND 1/2"


def test_prove_budget_exhaustion_exit_three(tmp_path):
    theory = tmp_path / "chain.fln"
    theory.write_text("1 : A3 -> Goal\n1 : A2 -> A3\n1 : A1 -> A2\n1 : A1\n")
    code, out = run("prove", "--theory", str(theory), "--goal", "Goal", "--budget", "1")
    assert code == 3
    assert out.splitlines()[0] == "BOUND 0"
    assert out.splitlines()[1] == "FIXPOINT no"
    code, out = run("prove", "--theory", str(theory), "--goal", "Goal")
    assert code == 0
    assert out.splitlines()[0] == "BOUND 1"


def test_check_proof_reports_invalid_step(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    proof = tmp_path / "bad.proof"
    proof.write_text("1. 4/5 / P ; sax\n2. 9/10 / P -> Q ; sax\n3. 3/4 / Q ; mp(1,2)\n")
    code, out = run("check-proof", "--theory", str(theory), str(proof))
    assert code == 1
    assert out == "INVALID step 3: grade mismatch\n"


def test_check_proof_forward_reference(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    proof = tmp_path / "fwd.proof"
    proof.write_text("1. 4/5 / P ; sax\n2. 4/5 / forall x. P ; gen(5,x)\n")
    code, out = run("check-proof", "--theory", str(theory), str(proof))
    assert code == 1
    assert out == "INVALID step 2: forward reference\n"


def test_eval_structure(tmp_path):
    s = tmp_path / "s.fln"
    s.write_text(STRUCTURE)
    code, out = run("eval", "--structure", str(s), "--goal", "forall x. P(x)")
    assert code == 0
    assert out == "DEGREE 2/5\n"


def test_sem_degree_with_witness(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    code, out = run("sem-degree", "--theory", str(theory), "--goal", "Q", "--chain", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DEGREE 7/10"
    assert lines[1] == "WITNESS"
    witness = parse_structure("\n".join(lines[2:]))
    assert eval_formula(witness, parse_formula("Q")) == F(7, 10)


def test_tautology_r1():
    code, out = run("tautology", "--goal", "P -> (Q -> P)", "--chain", "10")
    assert code == 0
    assert out == "DEGREE 1\n"


def test_validate_hedges_identity_passes(tmp_path):
    hedges = tmp_path / "h.fln"
    hedges.write_text(HEDGE_SIG + "s1 = identity\n")
    code, out = run("validate-hedges", "--hedges", str(hedges))
    assert code == 0
    assert "RESULT pass" in out


def test_validate_hedges_pl_square_fails_h6(tmp_path):
    hedges = tmp_path / "h.fln"
    hedges.write_text(HEDGE_SIG + "s1 = preset pl-square\n")
    code, out = run("validate-hedges", "--hedges", str(hedges), "--chain", "10")
    assert code == 1
    assert "VIOLATION H6 s1 (1, 9/10) 37/40" in out.splitlines()
    assert "RESULT fail" in out


def test_validate_hedges_dh_envelope_breach(tmp_path):
    hedges = tmp_path / "h.fln"
    hedges.write_text(
        "mode dh\nstressers s1\ndepressers d1\n"
        "s1 = preset pl-square\n"
        "d1 = pl { (0,0) (2/5,7/10) (1,1) }\n"
    )
    code, out = run("validate-hedges", "--hedges", str(hedges), "--chain", "10")
    assert code == 1
    assert any(line.startswith("VIOLATION envelope-upper d1 (2/5)") for line in out.splitlines())


def test_boundaries_identity_envelopes(tmp_path):
    hedges = tmp_path / "h.fln"
    hedges.write_text("mode dh\nstressers s1\ndepressers d1\n")
    code, out = run("boundaries", "--hedges", str(hedges), "--chain", "2")
    assert code == 0
    assert "BOUNDARY d1 1/2 [1/2, 1/2]" in out.splitlines()


def test_boundaries_rejects_mode_h(tmp_path, capsys):
    hedges = tmp_path / "h.fln"
    hedges.write_text(HEDGE_SIG)
    code, _ = run("boundaries", "--hedges", str(hedges))
    assert code == 2
    assert "dual-hedge" in capsys.readouterr().err


def test_consistency_contradictory(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text("4/5 : P\n4/5 : ~P\n")
    code, out = run("consistency", "--theory", str(theory))
    assert code == 1
    assert out.splitlines()[0] == "CONTRADICTORY P deg 3/5"
    assert "PROOF POS" in out and "PROOF NEG" in out


def test_consistency_below_threshold(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text("1/2 : P\n1/2 : ~P\n")
    code, out = run("consistency", "--theory", str(theory))
    assert code == 0
    assert out == "CONSISTENT (universe-relative)\n"


def test_consistency_modus_ponens_witness(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text("1 : P\n1 : P -> Q\n9/10 : ~Q\n")
    code, out = run("consistency", "--theory", str(theory))
    assert code == 1
    assert out.splitlines()[0] == "CONTRADICTORY Q deg 9/10"


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "--goal", "P^400"),
        ("parse", "(" * 200 + "P" + ")" * 200),
        ("parse", "~" * 3000 + "P"),
    ],
    ids=["power-400", "parens-200", "negations-3000"],
)
def test_deeply_nested_input_exits_two(tmp_path, capsys, argv):
    theory = tmp_path / "t.fln"
    theory.write_text("")
    if argv[0] == "prove":
        argv = argv[:1] + ("--theory", str(theory)) + argv[1:]
    code, out = run(*argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: input nested too deeply\n"


# About 80% of the deepest inputs these commands accept when run from a test
# (104 parentheses, 477 negations or hedges, P^159); the deeper inputs above
# exit 2.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("parse", "(" * 83 + "P" + ")" * 83), "P\n"),
        (("parse", "~" * 381 + "P"), "~" * 381 + "P\n"),
        (("parse", "--sig", "SIG", "s1 " * 381 + "P"), "s1 " * 381 + "P\n"),
        (("prove", "--theory", "EMPTY", "--goal", "P^127"), "BOUND 0\nFIXPOINT yes\n"),
    ],
    ids=["parens-83", "negations-381", "hedges-381", "power-127"],
)
def test_nesting_depth_accepted(tmp_path, argv, expected):
    files = {"SIG": HEDGE_SIG, "EMPTY": ""}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out = run(*(str(tmp_path / a) if a in files else a for a in argv))
    assert code == 0
    assert out.startswith(expected)


def test_space_guard_exit_four(tmp_path, capsys):
    theory = tmp_path / "t.fln"
    theory.write_text("")
    code, _ = run(
        "sem-degree",
        "--theory",
        str(theory),
        "--goal",
        "forall x. forall y. (S1(x,y) & S2(x,y) & S3(x,y))",
        "--chain",
        "10",
    )
    assert code == 4
    assert "exceeds the limit" in capsys.readouterr().err


def test_tsv_mode_is_one_line_and_deterministic(tmp_path):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    runs = [run("sem-degree", "--theory", str(theory), "--goal", "Q", "--format", "tsv") for _ in range(2)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 0
    assert out == "sem-degree\t7/10\n"
    code, out = run("prove", "--theory", str(theory), "--goal", "Q", "--format", "tsv")
    assert out == "prove\t7/10\tyes\n"


def test_config_validation(tmp_path, capsys):
    code, _ = run("tautology", "--goal", "P", "--chain", "0")
    assert code == 2
    assert "--chain" in capsys.readouterr().err


def test_missing_required_input(capsys):
    code, _ = run("prove", "--goal", "Q")
    assert code == 2
    assert "--theory" in capsys.readouterr().err


def test_unreadable_input_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.fln"
    code, out, err = run_captured(capsys, ["prove", "--theory", str(missing), "--goal", "Q"])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "command, lines, code",
    [
        # About 160 kB of violations, more than a pipe holds: the command is
        # still printing when the reader goes away after the first line.
        (["validate-hedges", "--hedges", "{hedges}", "--chain", "100"], 1, 1),
        # A few lines and a reader gone before any: with a buffered stdout
        # the closed pipe shows only at the final flush.
        (["prove", "--theory", "{theory}", "--goal", "Q"], 0, 0),
    ],
)
def test_closed_stdout_is_silent_and_keeps_the_exit_code(tmp_path, unbuffered, command, lines, code):
    hedges = tmp_path / "h.fln"
    hedges.write_text("mode dh\nstressers s1\ndepressers d1\ns1 = preset pl-square\nd1 = preset pl-sqrt\n")
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    argv = [a.format(hedges=hedges, theory=theory) for a in command]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    p = subprocess.Popen(
        [sys.executable, "-m", "fln", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        for _ in range(lines):
            assert p.stdout.readline().strip()
        p.stdout.close()
        err = p.stderr.read()
        got = p.wait(timeout=60)
    finally:
        p.kill()
        p.stderr.close()
    assert (got, err) == (code, "")


def test_open_goal_rejected(tmp_path, capsys):
    theory = tmp_path / "t.fln"
    theory.write_text(MP_THEORY)
    code, _ = run("prove", "--theory", str(theory), "--goal", "R(x)")
    assert code == 2
    assert "closed" in capsys.readouterr().err


def test_huge_power_goal_is_evaluated_without_expansion(tmp_path):
    # P^n is one node; its truth function max(0, n·a - (n-1)) needs no
    # n-fold expansion, which would nest too deeply at 1000 and build about
    # 10^8 nodes at 100000000.
    theory = tmp_path / "t.fln"
    theory.write_text("1 : P\n9/10 : Q\n")
    start = time.perf_counter()
    assert run("tautology", "--goal", "P^1000") == (0, "DEGREE 0\n")
    assert run("tautology", "--goal", "P^100000000") == (0, "DEGREE 0\n")
    assert run("sem-degree", "--theory", str(theory), "--goal", "P^100000000", "--format", "tsv") == (
        0,
        "sem-degree\t1\n",
    )
    assert run("sem-degree", "--theory", str(theory), "--goal", "1000*Q", "--format", "tsv") == (0, "sem-degree\t1\n")
    assert run("sem-degree", "--theory", str(theory), "--goal", "Q^5", "--format", "tsv") == (0, "sem-degree\t1/2\n")
    assert time.perf_counter() - start < 5


def test_reused_parser_matches_a_fresh_process(tmp_path, capsys):
    # Each option is set on one call and left out on the next; a value kept
    # from the earlier parse would show where the two outputs differ.
    theory = tmp_path / "t.fln"
    theory.write_text("4/5 : P\n3/5 : P -> Q\n7/10 : ~Q\n")
    hedges = tmp_path / "h.fln"
    hedges.write_text("mode dh\nstressers s1\ndepressers d1\n")
    t, h = str(theory), str(hedges)
    sequence = [
        ("parse", "--no-sugar", "~P('u)"),
        ("parse", "~P('u)"),
        ("prove", "--theory", t, "--goal", "P & Q", "--depth", "2"),
        ("prove", "--theory", t, "--goal", "P & Q"),
        ("prove", "--theory", t, "--goal", "P & Q", "--depth", "0"),
        ("prove", "--theory", t, "--goal", "P & Q"),
        ("sem-degree", "--theory", t, "--goal", "Q", "--format", "tsv"),
        ("sem-degree", "--theory", t, "--goal", "Q"),
        ("boundaries", "--hedges", h, "--chain", "6"),
        ("boundaries", "--hedges", h),
    ]
    build_arg_parser.cache_clear()
    results = [run_captured(capsys, argv) for argv in sequence]
    assert build_arg_parser() is build_arg_parser()
    for argv, result in zip(sequence, results):
        assert result == run_fresh(argv), argv
    for i in (0, 4, 6, 8):
        assert results[i][1] != results[i + 1][1], sequence[i]


COMMANDS = (
    "parse",
    "prove",
    "check-proof",
    "eval",
    "sem-degree",
    "tautology",
    "validate-hedges",
    "consistency",
    "boundaries",
)


def test_help_and_usage_errors_match_a_fresh_process(monkeypatch, capsys):
    # Help and usage texts are formatted from the shared parser at print time;
    # the first call (which builds it), a second call and a new process agree.
    monkeypatch.setenv("COLUMNS", "80")
    cases = [("--help",), *((name, "--help") for name in COMMANDS)]
    cases += [("frobnicate",), (), ("tautology", "--goal", "P", "--chain", "x")]
    build_arg_parser.cache_clear()
    for argv in cases:
        first = code, out, err = run_captured(capsys, argv)
        if code == 0:
            assert out.startswith("usage: fln") and err == "", argv
        else:
            assert code == 2 and out == "" and err.startswith("usage: fln"), argv
        assert run_captured(capsys, argv) == first, argv
        assert run_fresh(argv) == first, argv


def test_internal_error_is_one_stderr_line(monkeypatch, capsys):
    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "tautology_degree", broken)
    code, out, err = run_captured(capsys, ("tautology", "--goal", "P"))
    assert code == 2
    assert out == ""
    assert err == "error: internal error: ZeroDivisionError: division by zero\n"
