from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from fln.deduction import (
    DEFAULT_BUDGET,
    DEFAULT_DEPTH,
    RULE_G,
    RULE_LC,
    RULE_MP,
    ConsistencyResult,
    ContradictionWitness,
    EvaluatedFormula,
    LaxLeaf,
    Proof,
    ProofCheckError,
    ProofStep,
    ProvLeaf,
    ProvNode,
    ProvRule,
    RuleApp,
    RuleApplicationError,
    SaturationResult,
    SaxLeaf,
    apply_rule,
    check_proof,
    detect_contradiction,
    extract_proof,
    instantiate_match,
    lax_grade,
    match_schema,
    provability_lower_bound,
    saturate,
    schema_table,
)
from fln.deduction import _first_match, _schemas, _shape
from fln.mv import MVChain, ONE, ZERO, chain_values, luk_and, luk_imp
from fln.parser import format_proof, parse_formula, parse_theory
from fln.syntax import (
    FALSUM,
    Apply,
    Const,
    Forall,
    Formula,
    HedgeApp,
    HedgeMode,
    HedgeSignature,
    Iff,
    Imp,
    Neg,
    NotSubstitutableError,
    Pred,
    Term,
    TruthConst,
    Var,
    expand,
    expanded_not,
    format_formula,
    free_vars,
    subformula_universe,
    subformulas,
    substitute,
    truth_constants_in,
)
from fln.theory import Theory
from genformulas import random_formula

F = Fraction
EMPTY = HedgeSignature.empty()
SIG_H = HedgeSignature(HedgeMode.H, ("s1", "s2"), ("d1",))
SIG_DH = HedgeSignature(HedgeMode.DH, ("s1", "s2"), ("d1", "d2"))


def lax(text, sig=EMPTY):
    return lax_grade(parse_formula(text, sig), sig)


# ---------------------------------------------------------------------------
# Logical axiom grades


def test_lax_truth_constant():
    grade, match = lax("#(3/10)")
    assert grade == F(3, 10)
    assert match.schema == "CONST"


def test_lax_r1():
    grade, match = lax("P -> (Q -> P)")
    assert grade == ONE and match.schema == "R1"


def test_lax_r2_r3_r4():
    assert lax("(P -> Q) -> ((Q -> R) -> (P -> R))")[1].schema == "R2"
    assert lax("(~Q -> ~P) -> (P -> Q)")[1].schema == "R3"
    assert lax("((P -> Q) -> Q) -> ((Q -> P) -> P)")[1].schema == "R4"


def test_lax_b1_bookkeeping():
    grade, match = lax("(#(1/2) -> #(3/4)) <-> #1")
    assert grade == ONE and match.schema == "B1"
    # wrong constant on the right is not an axiom
    assert lax("(#(1/2) -> #(3/4)) <-> #(1/2)")[0] == ZERO


def test_lax_t1_substitution():
    grade, match = lax("(forall x. R(x)) -> R('u1)")
    assert grade == ONE and match.schema == "T1"
    assert lax("(forall x. R(x)) -> R(y)")[1].schema == "T1"
    # vacuous quantification
    assert lax("(forall x. P) -> P")[1].schema == "T1"


def test_lax_t1_rejects_capture():
    grade, match = lax("(forall x. (forall y. S(x, y))) -> (forall y. S(f(y), y))")
    assert grade == ZERO and match is None


def test_lax_t1_needs_consistent_instance():
    assert lax("(forall x. S(x, x)) -> S('u1, 'u2)")[0] == ZERO


def test_lax_t2_freeness_enforced():
    assert lax("(forall x. (P -> R(x))) -> (P -> forall x. R(x))")[1].schema == "T2"
    assert lax("(forall x. (R(x) -> Q)) -> (R(x) -> forall x. Q)")[0] == ZERO


def test_lax_hedge_axioms_mode_h():
    assert lax("(P -> Q) -> (s1 P -> s1 Q)", SIG_H)[1].schema == "H6"
    assert lax("(P -> Q) -> (d1 P -> d1 Q)", SIG_H)[1].schema == "H6"
    assert lax("s2 P -> s1 P", SIG_H)[1].schema == "H7"
    assert lax("s1 P -> P", SIG_H)[1].schema == "H7"
    assert lax("s2 #1", SIG_H)[1].schema == "H8"
    assert lax("P -> d1 P", SIG_H)[1].schema == "H9"
    assert lax("~(d1 #0)", SIG_H)[1].schema == "H10"
    # not axioms: wrong direction, wrong strength order
    assert lax("s1 P -> s2 P", SIG_H)[0] == ZERO
    assert lax("d1 P -> P", SIG_H)[0] == ZERO
    assert lax("s1 #1", SIG_H)[0] == ZERO


def test_lax_hedge_axioms_mode_dh():
    assert lax("(P -> Q) -> (d2 P -> d2 Q)", SIG_DH)[1].schema == "DH11"
    assert lax("s2 P -> s1 P", SIG_DH)[1].schema == "DH12"
    assert lax("s2 #1", SIG_DH)[1].schema == "DH13"
    assert lax("d1 P -> d2 P", SIG_DH)[1].schema == "DH14"
    assert lax("d1 P -> ~(s1 ~P)", SIG_DH)[1].schema == "DH15"
    assert lax("d2 P -> ~(s1 ~P)", SIG_DH)[0] == ZERO  # indices must pair up
    assert lax("~(d2 #0)", SIG_DH)[0] == ZERO  # H10 shape is not part of DH


def test_instantiate_match_reproduces_formula():
    cases = [
        ("P -> (Q -> P)", EMPTY),
        ("(P -> Q) -> ((Q -> R) -> (P -> R))", EMPTY),
        ("(~Q -> ~P) -> (P -> Q)", EMPTY),
        ("((P -> Q) -> Q) -> ((Q -> P) -> P)", EMPTY),
        ("(#(1/2) -> #(3/4)) <-> #1", EMPTY),
        ("(forall x. R(x)) -> R('u1)", EMPTY),
        ("(forall x. (P -> R(x))) -> (P -> forall x. R(x))", EMPTY),
        ("(P -> Q) -> (s1 P -> s1 Q)", SIG_H),
        ("s2 P -> s1 P", SIG_H),
        ("s1 P -> P", SIG_H),
        ("s2 #1", SIG_H),
        ("P -> d1 P", SIG_H),
        ("d1 P -> d2 P", SIG_DH),
        ("~(d1 #0)", SIG_H),
        ("d2 P -> ~(s2 ~P)", SIG_DH),
        ("#(2/5)", EMPTY),
    ]
    for text, sig in cases:
        f = expand(parse_formula(text, sig))
        grade, match = lax_grade(f, sig)
        assert match is not None, text
        assert instantiate_match(match, sig) == f, text


# ---------------------------------------------------------------------------
# Rules


def test_apply_mp():
    p, q = Pred("P"), Pred("Q")
    out = apply_rule(RULE_MP, [EvaluatedFormula(F(4, 5), p), EvaluatedFormula(F(9, 10), Imp(p, q))])
    assert out == EvaluatedFormula(F(7, 10), q)


def test_apply_mp_shape_mismatch():
    p, q = Pred("P"), Pred("Q")
    with pytest.raises(RuleApplicationError):
        apply_rule(RULE_MP, [EvaluatedFormula(ONE, q), EvaluatedFormula(ONE, Imp(p, q))])


def test_apply_gen():
    px = Pred("P", (Var("x"),))
    out = apply_rule(RULE_G, [EvaluatedFormula(F(4, 5), px)], "x")
    assert out == EvaluatedFormula(F(4, 5), Forall("x", px))


def test_apply_lc():
    a = Pred("A")
    out = apply_rule(RULE_LC, [EvaluatedFormula(F(2, 5), a)], F(3, 5))
    assert out.grade == F(4, 5)
    assert out.formula == Imp(TruthConst(F(3, 5)), a)


def test_apply_lc_rejects_bad_parameter():
    with pytest.raises(RuleApplicationError):
        apply_rule(RULE_LC, [EvaluatedFormula(ONE, Pred("A"))], F(7, 5))


def test_rule_soundness_mp_exhaustive():
    vals = chain_values(10)
    for va in vals:
        for vb in vals:
            vimp = luk_imp(va, vb)
            for ga in vals:
                if ga > va:
                    continue
                for gb in vals:
                    if gb > vimp:
                        continue
                    assert luk_and(ga, gb) <= vb


def test_rule_soundness_lc_exhaustive():
    vals = chain_values(10)
    for a in vals:
        for gb in vals:
            for vb in vals:
                if gb <= vb:
                    assert luk_imp(a, gb) <= luk_imp(a, vb)


def test_lc_evaluation_operation_monotone():
    vals = chain_values(50)
    for a in vals:
        for x1, x2 in zip(vals, vals[1:]):
            assert luk_imp(a, x1) <= luk_imp(a, x2)


# ---------------------------------------------------------------------------
# Proof checking


def mp_proof():
    p, q = Pred("P"), Pred("Q")
    return Proof((
        ProofStep(EvaluatedFormula(F(4, 5), p), SaxLeaf()),
        ProofStep(EvaluatedFormula(F(9, 10), Imp(p, q)), SaxLeaf()),
        ProofStep(EvaluatedFormula(F(7, 10), q), RuleApp(RULE_MP, (0, 1))),
    ))


def mp_theory():
    return parse_theory("4/5 : P\n9/10 : P -> Q\n")


def test_check_proof_mp():
    assert check_proof(mp_proof(), mp_theory()) == F(7, 10)


def test_check_proof_rejects_overclaimed_special_leaf():
    proof = Proof((ProofStep(EvaluatedFormula(ONE, Pred("P")), SaxLeaf()),))
    with pytest.raises(ProofCheckError) as err:
        check_proof(proof, mp_theory())
    assert err.value.step == 1 and "grade mismatch" in err.value.reason


def test_check_proof_allows_weakened_special_leaf():
    proof = Proof((ProofStep(EvaluatedFormula(F(1, 5), Pred("P")), SaxLeaf()),))
    assert check_proof(proof, mp_theory()) == F(1, 5)


def test_check_proof_tampered_rule_grade():
    steps = list(mp_proof().steps)
    steps[2] = ProofStep(EvaluatedFormula(F(3, 4), Pred("Q")), RuleApp(RULE_MP, (0, 1)))
    with pytest.raises(ProofCheckError) as err:
        check_proof(Proof(tuple(steps)), mp_theory())
    assert err.value.step == 3 and err.value.reason == "grade mismatch"


def test_check_proof_forward_reference():
    p = Pred("P")
    proof = Proof((
        ProofStep(EvaluatedFormula(F(4, 5), p), SaxLeaf()),
        ProofStep(EvaluatedFormula(F(4, 5), Forall("x", p)), RuleApp(RULE_G, (4,), "x")),
    ))
    with pytest.raises(ProofCheckError) as err:
        check_proof(proof, mp_theory())
    assert err.value.step == 2 and err.value.reason == "forward reference"


def test_check_proof_constant_leaf():
    half = TruthConst(F(1, 2))
    proof = Proof((ProofStep(EvaluatedFormula(F(1, 2), half), LaxLeaf("CONST")),))
    assert check_proof(proof, Theory()) == F(1, 2)


def test_check_proof_logical_leaf_needs_exact_grade():
    f = parse_formula("P -> (Q -> P)")
    good = Proof((ProofStep(EvaluatedFormula(ONE, f), LaxLeaf("R1")),))
    assert check_proof(good, Theory()) == ONE
    bad = Proof((ProofStep(EvaluatedFormula(F(9, 10), f), LaxLeaf("R1")),))
    with pytest.raises(ProofCheckError, match="grade mismatch"):
        check_proof(bad, Theory())


def test_check_proof_schema_match_failure():
    proof = Proof((ProofStep(EvaluatedFormula(ONE, Pred("P")), LaxLeaf("R1")),))
    with pytest.raises(ProofCheckError, match="schema match failure"):
        check_proof(proof, Theory())


def test_check_proof_conclusion_mismatch():
    p, q = Pred("P"), Pred("Q")
    proof = Proof((
        ProofStep(EvaluatedFormula(F(4, 5), p), SaxLeaf()),
        ProofStep(EvaluatedFormula(F(9, 10), Imp(p, q)), SaxLeaf()),
        ProofStep(EvaluatedFormula(F(7, 10), p), RuleApp(RULE_MP, (0, 1))),
    ))
    with pytest.raises(ProofCheckError, match="conclusion mismatch"):
        check_proof(proof, mp_theory())


# ---------------------------------------------------------------------------
# Saturation


def test_saturate_mp_fixpoint():
    theory = mp_theory()
    universe = subformula_universe(list(theory.special_axioms) + [Pred("Q")])
    res = saturate(theory, universe)
    assert res.fixpoint
    assert res.grades[Pred("Q")] == F(7, 10)


def test_saturate_empty_theory_keeps_lax_grades():
    theory = Theory()
    seed = [parse_formula("P -> (Q -> P)")]
    universe = subformula_universe(seed)
    res = saturate(theory, universe)
    assert res.fixpoint
    for f in universe:
        assert res.grades[f] == lax_grade(f, EMPTY)[0]


def test_saturate_generalization():
    theory = parse_theory("1 : R(x)\n")
    px = parse_formula("R(x)")
    goal = Forall("x", px)
    res = saturate(theory, [px, goal])
    assert res.grades[goal] == ONE


def test_saturate_monotone_wrt_initial_grades():
    theory = mp_theory()
    universe = subformula_universe(list(theory.special_axioms) + [Pred("Q")])
    res = saturate(theory, universe)
    for f in universe:
        start = max(theory.special_axioms.get(f, ZERO), lax_grade(f, EMPTY)[0])
        assert res.grades[f] >= start


def test_saturate_order_independent_fixpoint():
    theory = parse_theory("1 : P\n1 : P -> Q\n1 : Q -> R\n")
    universe = subformula_universe(list(theory.special_axioms) + [Pred("R")])
    forward = saturate(theory, universe)
    backward = saturate(theory, list(reversed(universe)))
    shuffled = list(universe)
    random.Random(4).shuffle(shuffled)
    third = saturate(theory, shuffled)
    assert forward.grades == backward.grades == third.grades
    assert forward.grades[Pred("R")] == ONE


def test_saturate_budget_exhaustion_flagged():
    theory = parse_theory("1 : P\n1 : P -> Q\n1 : Q -> R\n")
    p, q, r = Pred("P"), Pred("Q"), Pred("R")
    # R is processed before Q can feed it, so one sweep is not enough
    universe = [r, Imp(q, r), q, Imp(p, q), p]
    res = saturate(theory, universe, budget=1)
    assert not res.fixpoint
    assert res.grades[r] == ZERO
    done = saturate(theory, universe, budget=10)
    assert done.fixpoint and done.grades[r] == ONE


def test_saturate_lc_constant_outside_the_universe():
    # #1/3 itself is not in the universe, so only the LC edge brings the
    # denominator 3: 1/3 => 1/4 = 11/12.
    theory = parse_theory("1/4 : P\n")
    p = Pred("P")
    goal = Imp(TruthConst(F(1, 3)), p)
    res = saturate(theory, [p, goal])
    assert res.grades[goal] == F(11, 12)
    assert check_proof(extract_proof(res.provenance[goal]), theory) == F(11, 12)


# ---------------------------------------------------------------------------
# Provability bounds


def test_provability_mp():
    res = provability_lower_bound(mp_theory(), Pred("Q"))
    assert res.bound == F(7, 10)
    assert res.fixpoint
    assert check_proof(res.proof, mp_theory()) == F(7, 10)
    assert len(res.proof.steps) == 3


def test_provability_logical_axiom():
    res = provability_lower_bound(Theory(), parse_formula("P -> (Q -> P)"))
    assert res.bound == ONE
    assert len(res.proof.steps) == 1
    assert isinstance(res.proof.steps[0].justification, LaxLeaf)


def test_provability_constant():
    res = provability_lower_bound(Theory(), parse_formula("#(1/2)"))
    assert res.bound == F(1, 2)
    assert len(res.proof.steps) == 1


def test_provability_witness_checks_out_on_random_theories():
    rng = random.Random(77)
    atoms = [Pred("P"), Pred("Q"), Pred("R")]
    tenths = chain_values(10)
    for _ in range(30):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            left, right = rng.choice(atoms), rng.choice(atoms)
            formula = rng.choice([left, Imp(left, right), expanded_not(left)])
            pairs.append((rng.choice(tenths), formula))
        theory = Theory.build(pairs)
        goal = rng.choice(atoms)
        res = provability_lower_bound(theory, goal, depth=1, budget=50)
        assert check_proof(res.proof, theory) == res.bound


@pytest.mark.parametrize("n", [10, 30])
def test_extract_proof_shares_repeated_premises(n):
    # Every A{i+1} uses A{i} twice, so a proof unfolded as a tree would
    # double in size at each link.
    text = "1 : A0\n" + "".join(f"1 : A{i} -> (A{i} -> A{i + 1})\n" for i in range(n))
    theory = parse_theory(text)
    start = time.perf_counter()
    res = provability_lower_bound(theory, Pred(f"A{n}"))
    assert time.perf_counter() - start < 10
    assert res.bound == ONE
    assert len(res.proof.steps) == 3 * n + 1  # A0, then each link's axiom and two MP steps
    assert check_proof(res.proof, theory) == ONE


# ---------------------------------------------------------------------------
# Contradiction detection


def test_contradiction_direct():
    theory = parse_theory("4/5 : P\n4/5 : ~P\n")
    res = detect_contradiction(theory)
    assert res.witness is not None
    assert res.witness.formula == Pred("P")
    assert res.witness.degree == F(3, 5)
    assert check_proof(res.witness.proof_pos, theory) == F(4, 5)
    assert check_proof(res.witness.proof_neg, theory) == F(4, 5)


def test_contradiction_below_threshold_is_consistent():
    theory = parse_theory("1/2 : P\n1/2 : ~P\n")
    res = detect_contradiction(theory)
    assert res.witness is None
    assert res.fixpoint


def test_contradiction_via_modus_ponens():
    theory = parse_theory("1 : P\n1 : P -> Q\n9/10 : ~Q\n")
    res = detect_contradiction(theory)
    assert res.witness is not None
    assert res.witness.formula == Pred("Q")
    assert res.witness.degree == F(9, 10)
    assert check_proof(res.witness.proof_pos, theory) == ONE
    assert check_proof(res.witness.proof_neg, theory) == F(9, 10)


# ---------------------------------------------------------------------------
# Reference oracle: the hand-written matchers and the instantiation if-chain
# that the schema templates replaced, kept verbatim except that the public
# names are renamed ReferenceMatch and reference_*.


@dataclass(frozen=True)
class ReferenceMatch:
    schema: str
    bindings: dict[str, object]


def _match_r1(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(a, Imp(b, a2)) if a == a2:
            return {"A": a, "B": b}
    return None


def _match_r2(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(Imp(a, b), Imp(Imp(b2, c), Imp(a2, c2))) if a == a2 and b == b2 and c == c2:
            return {"A": a, "B": b, "C": c}
    return None


def _match_r3(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(Imp(Imp(b, TruthConst(z1)), Imp(a, TruthConst(z2))), Imp(a2, b2)) \
                if z1 == ZERO and z2 == ZERO and a == a2 and b == b2:
            return {"A": a, "B": b}
    return None


def _match_r4(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(Imp(Imp(a, b), b2), Imp(Imp(b3, a2), a3)) \
                if b == b2 == b3 and a == a2 == a3:
            return {"A": a, "B": b}
    return None


def split_expanded_iff(f: Formula) -> tuple[Formula, Formula] | None:
    """Recover (L, R) when ``f`` is the expansion of ``L <-> R``."""
    match f:
        case Imp(
            Imp(Imp(Imp(r1, l1), Imp(l2, r2)), Imp(Imp(r3, l3), TruthConst(z1))),
            TruthConst(z2),
        ) if z1 == ZERO and z2 == ZERO and l1 == l2 == l3 and r1 == r2 == r3:
            return l1, r1
    return None


def _match_b1(f: Formula, sig: HedgeSignature):
    lr = split_expanded_iff(f)
    if lr is None:
        return None
    left, right = lr
    match left, right:
        case (Imp(TruthConst(a), TruthConst(b)), TruthConst(c)) if c == luk_imp(a, b):
            return {"a": a, "b": b}
    return None


def _infer_substituted_term(body: Formula, x: str, rhs: Formula) -> Term | None:
    """Find the term t with ``substitute(body, x, t) == rhs`` by parallel walk."""
    found: list[Term] = []

    def walk_t(bt: Term, rt: Term) -> bool:
        if isinstance(bt, Var) and bt.name == x:
            found.append(rt)
            return True
        if isinstance(bt, Apply) and isinstance(rt, Apply):
            return (
                bt.func == rt.func
                and len(bt.args) == len(rt.args)
                and all(walk_t(p, q) for p, q in zip(bt.args, rt.args))
            )
        return bt == rt

    def walk_f(bf: Formula, rf: Formula, shadowed: bool) -> bool:
        if shadowed:
            return bf == rf
        match bf, rf:
            case (TruthConst(), TruthConst()):
                return bf == rf
            case (Pred(n1, a1), Pred(n2, a2)):
                return n1 == n2 and len(a1) == len(a2) and all(walk_t(p, q) for p, q in zip(a1, a2))
            case (Imp(l1, r1), Imp(l2, r2)):
                return walk_f(l1, l2, False) and walk_f(r1, r2, False)
            case (Forall(y1, b1), Forall(y2, b2)):
                return y1 == y2 and walk_f(b1, b2, y1 == x)
            case (HedgeApp(h1, b1), HedgeApp(h2, b2)):
                return h1 == h2 and walk_f(b1, b2, False)
        return False

    if not walk_f(body, rhs, False):
        return None
    if not found:
        return Var(x)
    first = found[0]
    if any(t != first for t in found[1:]):
        return None
    return first


def _match_t1(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(Forall(x, body), rhs):
            t = _infer_substituted_term(body, x, rhs)
            if t is None:
                return None
            try:
                if substitute(body, x, t) == rhs:
                    return {"x": x, "A": body, "t": t}
            except NotSubstitutableError:
                return None
    return None


def _match_t2(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(Forall(x, Imp(a, b)), Imp(a2, Forall(x2, b2))) \
                if x == x2 and a == a2 and b == b2 and x not in free_vars(a):
            return {"x": x, "A": a, "B": b}
    return None


def _match_hedge_mono(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(Imp(a, b), Imp(HedgeApp(h1, a2), HedgeApp(h2, b2))) \
                if h1 == h2 and a == a2 and b == b2 and sig.is_hedge(h1):
            return {"h": h1, "A": a, "B": b}
    return None


def _match_stresser_chain(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(HedgeApp(h, a), rhs) if h in sig.stressers:
            i = sig.stresser_index(h)
            if i == 1:
                if rhs == a:
                    return {"i": 1, "A": a}
            else:
                match rhs:
                    case HedgeApp(h2, a2) if h2 == sig.stressers[i - 2] and a2 == a:
                        return {"i": i, "A": a}
    return None


def _match_stresser_top(f: Formula, sig: HedgeSignature):
    match f:
        case HedgeApp(h, TruthConst(v)) if v == ONE and sig.stressers and h == sig.stressers[-1]:
            return {}
    return None


def _match_depresser_chain(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(lhs, HedgeApp(h, a)) if h in sig.depressers:
            j = sig.depresser_index(h)
            if j == 1:
                if lhs == a:
                    return {"j": 1, "A": a}
            else:
                match lhs:
                    case HedgeApp(h2, a2) if h2 == sig.depressers[j - 2] and a2 == a:
                        return {"j": j, "A": a}
    return None


def _match_depresser_bottom(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(HedgeApp(h, TruthConst(z1)), TruthConst(z2)) \
                if z1 == ZERO and z2 == ZERO and sig.depressers and h == sig.depressers[-1]:
            return {}
    return None


def _match_duality(f: Formula, sig: HedgeSignature):
    match f:
        case Imp(HedgeApp(d, a), Imp(HedgeApp(s, Imp(a2, TruthConst(z1))), TruthConst(z2))) \
                if z1 == ZERO and z2 == ZERO and a == a2 and d in sig.depressers:
            i = sig.depresser_index(d)
            if i <= len(sig.stressers) and s == sig.stressers[i - 1]:
                return {"i": i, "A": a}
    return None


_BASE_SCHEMAS = (
    ("R1", _match_r1),
    ("R2", _match_r2),
    ("R3", _match_r3),
    ("R4", _match_r4),
    ("B1", _match_b1),
    ("T1", _match_t1),
    ("T2", _match_t2),
)
_H_SCHEMAS = (
    ("H6", _match_hedge_mono),
    ("H7", _match_stresser_chain),
    ("H8", _match_stresser_top),
    ("H9", _match_depresser_chain),
    ("H10", _match_depresser_bottom),
)
_DH_SCHEMAS = (
    ("DH11", _match_hedge_mono),
    ("DH12", _match_stresser_chain),
    ("DH13", _match_stresser_top),
    ("DH14", _match_depresser_chain),
    ("DH15", _match_duality),
)


def reference_schema_table(sig: HedgeSignature) -> tuple[tuple[str, object], ...]:
    extra = _H_SCHEMAS if sig.mode is HedgeMode.H else _DH_SCHEMAS
    return _BASE_SCHEMAS + extra


def reference_match_schema(schema: str, f: Formula, sig: HedgeSignature) -> ReferenceMatch | None:
    f = expand(f)
    if schema == "CONST":
        match f:
            case TruthConst(a):
                return ReferenceMatch("CONST", {"a": a})
        return None
    for name, matcher in reference_schema_table(sig):
        if name == schema:
            bindings = matcher(f, sig)
            return ReferenceMatch(name, bindings) if bindings is not None else None
    raise ValueError(f"unknown axiom schema '{schema}'")


def reference_lax_grade(f: Formula, sig: HedgeSignature) -> tuple[Fraction, ReferenceMatch | None]:
    """Membership grade of ``f`` in the fuzzy set of logical axioms.

    Grade 1 with a match for instances of the enabled schemas, grade a for
    the truth constant #a, grade 0 otherwise.
    """
    f = expand(f)
    for name, matcher in reference_schema_table(sig):
        bindings = matcher(f, sig)
        if bindings is not None:
            return ONE, ReferenceMatch(name, bindings)
    match f:
        case TruthConst(a):
            return a, ReferenceMatch("CONST", {"a": a})
    return ZERO, None


def reference_instantiate_match(m: ReferenceMatch, sig: HedgeSignature) -> Formula:
    """Rebuild the formula matched by ``m``; inverse of schema matching."""
    b = m.bindings
    s = m.schema
    if s == "R1":
        return Imp(b["A"], Imp(b["B"], b["A"]))
    if s == "R2":
        A, B, C = b["A"], b["B"], b["C"]
        return Imp(Imp(A, B), Imp(Imp(B, C), Imp(A, C)))
    if s == "R3":
        A, B = b["A"], b["B"]
        return Imp(Imp(expanded_not(B), expanded_not(A)), Imp(A, B))
    if s == "R4":
        A, B = b["A"], b["B"]
        return Imp(Imp(Imp(A, B), B), Imp(Imp(B, A), A))
    if s == "B1":
        from fln.syntax import Iff  # sugar used only to rebuild the template

        a, bb = b["a"], b["b"]
        return expand(Iff(Imp(TruthConst(a), TruthConst(bb)), TruthConst(luk_imp(a, bb))))
    if s == "T1":
        return Imp(Forall(b["x"], b["A"]), substitute(b["A"], b["x"], b["t"]))
    if s == "T2":
        x, A, B = b["x"], b["A"], b["B"]
        return Imp(Forall(x, Imp(A, B)), Imp(A, Forall(x, B)))
    if s in ("H6", "DH11"):
        h, A, B = b["h"], b["A"], b["B"]
        return Imp(Imp(A, B), Imp(HedgeApp(h, A), HedgeApp(h, B)))
    if s in ("H7", "DH12"):
        i, A = b["i"], b["A"]
        upper = HedgeApp(sig.stressers[i - 1], A)
        lower = A if i == 1 else HedgeApp(sig.stressers[i - 2], A)
        return Imp(upper, lower)
    if s in ("H8", "DH13"):
        return HedgeApp(sig.stressers[-1], TruthConst(ONE))
    if s in ("H9", "DH14"):
        j, A = b["j"], b["A"]
        weaker = A if j == 1 else HedgeApp(sig.depressers[j - 2], A)
        return Imp(weaker, HedgeApp(sig.depressers[j - 1], A))
    if s == "H10":
        return expanded_not(HedgeApp(sig.depressers[-1], FALSUM))
    if s == "DH15":
        i, A = b["i"], b["A"]
        return Imp(
            HedgeApp(sig.depressers[i - 1], A),
            expanded_not(HedgeApp(sig.stressers[i - 1], expanded_not(A))),
        )
    if s == "CONST":
        return TruthConst(b["a"])
    raise ValueError(f"unknown axiom schema '{s}'")


ORACLE_SIGS = (
    EMPTY,
    SIG_H,
    SIG_DH,
    HedgeSignature(HedgeMode.H, (), ("d1", "d2")),
    HedgeSignature(HedgeMode.H, ("s1", "s2", "s3"), ()),
    HedgeSignature(HedgeMode.DH, ("s1",), ("d1",)),
    HedgeSignature(HedgeMode.DH),
)
ORACLE_SIG_IDS = ("empty", "h", "dh", "h-no-stressers", "h-no-depressers", "dh-one-each", "dh-none")
ALL_SCHEMA_NAMES = (
    "R1", "R2", "R3", "R4", "B1", "T1", "T2",
    "H6", "H7", "H8", "H9", "H10", "DH11", "DH12", "DH13", "DH14", "DH15", "CONST", "X1",
)
TENTHS = tuple(chain_values(10))


def schema_shaped(rng: random.Random, sig: HedgeSignature) -> list[Formula]:
    """Formulas in the shape of every schema; a part meant to repeat is
    sometimes replaced, and hedge names, indices and constants are drawn
    freely, so both instances and near misses occur."""
    small = lambda: expand(random_formula(rng, sig, rng.randint(0, 2)))
    hedges = sig.hedges + ("undeclared",)
    hedge = lambda: rng.choice(hedges)
    const = lambda: TruthConst(rng.choice((ZERO, ONE, rng.choice(TENTHS))))
    a, b, c = small(), small(), small()
    again = lambda g: g if rng.random() < 0.8 else small()
    x = rng.choice(("x", "y"))
    t = rng.choice((Var("x"), Var("y"), Const("u1"), Apply("f", (Var("y"),))))
    try:
        t1_rhs = substitute(a, x, t)
    except NotSubstitutableError:
        t1_rhs = a
    ca, cb = rng.choice(TENTHS), rng.choice(TENTHS)
    cc = luk_imp(ca, cb) if rng.random() < 0.7 else rng.choice(TENTHS)
    neg = expanded_not
    return [
        Imp(a, Imp(b, again(a))),
        Imp(Imp(a, b), Imp(Imp(again(b), c), Imp(again(a), again(c)))),
        Imp(Imp(neg(b), neg(a)), Imp(again(a), again(b))),
        Imp(Imp(Imp(a, b), again(b)), Imp(Imp(again(b), again(a)), again(a))),
        expand(Iff(Imp(TruthConst(ca), TruthConst(cb)), TruthConst(cc))),
        Imp(Forall(x, a), again(t1_rhs)),
        Imp(Forall(x, Imp(a, b)), Imp(again(a), Forall(rng.choice((x, "z")), again(b)))),
        Imp(Imp(a, b), Imp(HedgeApp(hedge(), again(a)), HedgeApp(hedge(), again(b)))),
        Imp(HedgeApp(hedge(), a), HedgeApp(hedge(), again(a))),
        Imp(HedgeApp(hedge(), a), again(a)),
        Imp(a, HedgeApp(hedge(), again(a))),
        HedgeApp(hedge(), const()),
        Imp(HedgeApp(hedge(), const()), rng.choice((FALSUM, const()))),
        Imp(HedgeApp(hedge(), a), neg(HedgeApp(hedge(), neg(again(a))))),
        const(),
        small(),
    ]


def _match_outcome(matcher, name, f, sig):
    try:
        m = matcher(name, f, sig)
    except ValueError as exc:
        return "error", str(exc)
    return None if m is None else m.schema


def schema_test_formulas(sig: HedgeSignature) -> list[Formula]:
    rng = random.Random(repr(sig))
    formulas = [f for _ in range(60) for f in schema_shaped(rng, sig)]
    return formulas + [expand(random_formula(rng, sig, 3)) for _ in range(200)]


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=ORACLE_SIG_IDS)
def test_schema_templates_agree_with_reference_matchers(sig):
    matched = set()
    for f in schema_test_formulas(sig):
        grade, m = lax_grade(f, sig)
        ref_grade, ref = reference_lax_grade(f, sig)
        assert (grade, m and m.schema) == (ref_grade, ref and ref.schema), f
        if m is not None:
            matched.add(m.schema)
            assert instantiate_match(m, sig) == f == reference_instantiate_match(ref, sig)
        for name in ALL_SCHEMA_NAMES:
            got = _match_outcome(match_schema, name, f, sig)
            assert got == _match_outcome(reference_match_schema, name, f, sig), (name, f)
    hedge_names = ALL_SCHEMA_NAMES[7:12] if sig.mode is HedgeMode.H else ALL_SCHEMA_NAMES[12:17]
    mono, s_chain, s_top, d_chain, last = hedge_names
    expected = {"R1", "R2", "R3", "R4", "B1", "T1", "T2", "CONST"}
    expected |= {mono} if sig.hedges else set()
    expected |= {s_chain, s_top} if sig.stressers else set()
    expected |= {d_chain, last} if sig.depressers else set()
    assert matched == expected


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=ORACLE_SIG_IDS)
def test_shape_buckets_match_like_the_whole_table(sig):
    buckets = _schemas(sig).buckets
    for f in schema_test_formulas(sig):
        got = _first_match(f, buckets[_shape(f)])
        want = _first_match(f, schema_table(sig))
        assert (got and (got.schema, got.bindings)) == (want and (want.schema, want.bindings)), f
    for f in (Pred("P"), HedgeApp("s1", Pred("P")), HedgeApp("d1", FALSUM)):
        assert not any(isinstance(template, Imp) for _, template, _ in buckets[_shape(f)])


# ---------------------------------------------------------------------------
# Reference oracle: saturation on Fraction grades, the universe built from
# whole subformula lists and the eagerly formatted witness scan, copied
# verbatim from before grades became integer numerators; the public names
# are renamed reference_*.


def reference_subformula_universe(
    seed: "list[Formula] | set[Formula] | tuple[Formula, ...]",
    consts: "set[Fraction] | frozenset[Fraction] | tuple[Fraction, ...]" = (),
    depth: int = 0,
) -> list[Formula]:
    """Finite formula universe: the subformula closure of the expanded seed,
    grown ``depth`` times by the constant-implications ``#a -> A`` and the
    generalizations ``forall x. A`` for free x.

    Returns an insertion-ordered duplicate-free list so downstream
    processing is deterministic.
    """
    if depth < 0:
        raise ValueError("universe depth must be >= 0")
    ordered: dict[Formula, None] = {}

    def add_closed(f: Formula) -> None:
        for g in subformulas(f):
            ordered.setdefault(g, None)

    for f in seed:
        add_closed(expand(f))
    const_list = sorted(set(consts))
    for _ in range(depth):
        current = list(ordered)
        for f in current:
            for a in const_list:
                add_closed(Imp(TruthConst(a), f))
            for x in sorted(free_vars(f)):
                add_closed(Forall(x, f))
    return list(ordered)



def reference_saturate(theory: Theory, universe, budget: int = DEFAULT_BUDGET) -> SaturationResult:
    """Raise grades over a finite universe to a least fixpoint of the rules.

    Grades start from max(SAx, LAx) and only ever increase; the merge is a
    per-formula maximum, so the fixpoint does not depend on the processing
    order.  ``budget`` caps the number of full sweeps; if it runs out
    before a sweep makes no change, the result is flagged non-fixpoint.
    Every reported grade is a certified lower provability bound.
    """
    if budget < 1:
        raise ValueError("saturation budget must be >= 1")
    univ: list[Formula] = []
    seen: set[Formula] = set()
    for f in universe:
        ef = expand(f)
        if ef not in seen:
            seen.add(ef)
            univ.append(ef)

    sig = theory.signature
    grades: dict[Formula, Fraction] = {}
    prov: dict[Formula, ProvNode] = {}
    for f in univ:
        sax = theory.special_axioms.get(f, ZERO)
        lg, m = lax_grade(f, sig)
        if m is not None and lg >= sax:
            grades[f] = lg
            prov[f] = ProvLeaf(f, lg, "lax", m.schema)
        else:
            grades[f] = sax
            prov[f] = ProvLeaf(f, sax, "sax")

    mp_edges: dict[Formula, list[tuple[Formula, Formula]]] = {}
    lc_edges: dict[Formula, Fraction] = {}
    gen_edges: dict[Formula, tuple[str, Formula]] = {}
    for g in univ:
        if isinstance(g, Imp):
            if g.left in seen and g.right in seen:
                mp_edges.setdefault(g.right, []).append((g.left, g))
            if isinstance(g.left, TruthConst) and g.right in seen:
                lc_edges[g] = g.left.value
        elif isinstance(g, Forall) and g.body in seen:
            gen_edges[g] = (g.var, g.body)

    fixpoint = False
    rounds = 0
    while rounds < budget:
        rounds += 1
        changed = False
        for f in univ:
            best = grades[f]
            action = None
            for a, ab in mp_edges.get(f, ()):
                cand = luk_and(grades[a], grades[ab])
                if cand > best:
                    best, action = cand, (RULE_MP, None, (a, ab))
            if f in lc_edges:
                cand = luk_imp(lc_edges[f], grades[f.right])  # type: ignore[union-attr]
                if cand > best:
                    best, action = cand, (RULE_LC, lc_edges[f], (f.right,))  # type: ignore[union-attr]
            if f in gen_edges:
                x, body = gen_edges[f]
                cand = grades[body]
                if cand > best:
                    best, action = cand, (RULE_G, x, (body,))
            if action is not None:
                rule, param, prem_fs = action
                grades[f] = best
                prov[f] = ProvRule(f, best, rule, param, tuple(prov[p] for p in prem_fs))
                changed = True
        if not changed:
            fixpoint = True
            break
    return SaturationResult(grades, prov, fixpoint, rounds)



def reference_detect_contradiction(
    theory: Theory, depth: int = DEFAULT_DEPTH, budget: int = DEFAULT_BUDGET
) -> ConsistencyResult:
    """Search the universe for A with bound(A) ⊗ bound(~A) > 0.

    The universe is the axiom universe closed under one application of
    negation.  A miss certifies only universe-relative consistency.
    Special-axiom formulas are scanned first (in declaration order), then
    the rest in canonical text order with bare truth constants last, so the
    reported witness is deterministic.
    """
    seed = list(theory.special_axioms)
    base = reference_subformula_universe(seed, set(theory.grade_constants()), depth)
    univ = list(base)
    seen = set(univ)
    for f in base:
        nf = expanded_not(f)
        if nf not in seen:
            seen.add(nf)
            univ.append(nf)
    if FALSUM not in seen:
        univ.append(FALSUM)
    res = reference_saturate(theory, univ, budget)

    rest = [f for f in univ if f not in theory.special_axioms]
    rest.sort(key=lambda f: (isinstance(f, TruthConst), format_formula(f)))
    for f in list(theory.special_axioms) + rest:
        nf = expanded_not(f)
        neg_grade = res.grades.get(nf)
        if neg_grade is None:
            continue
        degree = luk_and(res.grades[f], neg_grade)
        if degree > ZERO:
            witness = ContradictionWitness(
                f, degree, extract_proof(res.provenance[f]), extract_proof(res.provenance[nf])
            )
            return ConsistencyResult(witness, res.fixpoint)
    return ConsistencyResult(None, res.fixpoint)


OFF_CHAIN = (F(1), F(9, 10), F(19, 20), F(1, 3), F(2, 7), F(4, 5))


def deduce_style_theories(rng: random.Random) -> list[tuple[Theory, list[Formula]]]:
    """Small versions of the benchmark's deduction theories: a hedged chain
    of implications, a quantified rule set over two objects, and a
    propositional mix; each with its goals."""
    out = []
    steps = [rng.choice(("", "", "s1 ", "d1 ")) + f"P{i}" for i in range(5)]
    chain = [f"{rng.choice(OFF_CHAIN)} : {steps[0]}"]
    chain += [f"{rng.choice(OFF_CHAIN)} : {steps[i]} -> {steps[i + 1]}" for i in range(4)]
    chain.reverse()
    out.append((chain, [steps[4], steps[2]]))
    rules = [f"{rng.choice(OFF_CHAIN)} : s1 Tall('u1)", f"{rng.choice(OFF_CHAIN)} : Rich('u2)"]
    rules += [
        f"{rng.choice(OFF_CHAIN)} : forall x. (s1 Tall(x) -> Kind(x))",
        f"{rng.choice(OFF_CHAIN)} : forall x. (Rich(x) & Kind(x) -> d1 Calm(x))",
        f"{rng.choice(OFF_CHAIN)} : Kind('u1) -> Rich('u1)",
    ]
    out.append((rules, ["Rich('u1)", "(forall x. (Rich(x) -> Kind(x))) -> Rich('u2) -> Kind('u2)"]))
    props = [f"{rng.choice(OFF_CHAIN)} : {a}" for a in ("s1 P", "Q", "~(P & Q)", "P -> R", "R \\/ ~Q")]
    out.append((props, ["R", "P /\\ Q"]))
    # Two derived formulas contradict graded negations: the witness is the
    # first of them in text order, not a special axiom.
    clash = [f"{rng.choice(OFF_CHAIN)} : {a}" for a in ("P", "P -> s1 Q", "P -> R", "~s1 Q", "~R")]
    out.append((clash, ["R"]))
    header = "mode h\nstressers s1 s2\ndepressers d1\n"
    return [(parse_theory(header + "\n".join(axioms) + "\n"), [parse_formula(g, SIG_H) for g in goals])
            for axioms, goals in out]


def random_theory(rng: random.Random, sig: HedgeSignature) -> tuple[Theory, list[Formula]]:
    pairs = [(rng.choice(OFF_CHAIN + (F(1, 2),)), random_formula(rng, sig, rng.randint(0, 2)))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:  # an axiom and a graded negation of it make contradictions likely
        _, f = rng.choice(pairs)
        pairs.append((rng.choice(OFF_CHAIN), Neg(f)))
    return Theory.build(pairs, sig), [random_formula(rng, sig, 1)]


def _proofs(res) -> dict:
    return {f: format_proof(extract_proof(p)) for f, p in res.provenance.items()}


def _witness(res: ConsistencyResult):
    w = res.witness
    if w is None:
        return None, res.fixpoint
    return w.formula, w.degree, format_proof(w.proof_pos), format_proof(w.proof_neg), res.fixpoint


def _agree(theory: Theory, universe: list[Formula], budget: int) -> None:
    got, want = saturate(theory, universe, budget), reference_saturate(theory, universe, budget)
    assert list(got.grades.items()) == list(want.grades.items())
    assert (got.rounds, got.fixpoint) == (want.rounds, want.fixpoint)
    assert _proofs(got) == _proofs(want)


def _oracle_cases(depth: int):
    rng = random.Random(2016 + depth)
    randoms = 5 if depth < 2 else 2  # depth 2 universes are about five times larger
    cases = deduce_style_theories(rng)
    for sig in (SIG_H, SIG_DH):
        cases += [random_theory(rng, sig) for _ in range(randoms)]
    return cases


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_saturation_agrees_with_reference(depth):
    rng = random.Random(depth)
    witnesses = from_rest = 0
    for theory, goals in _oracle_cases(depth):
        seed = list(theory.special_axioms) + [expand(g) for g in goals]
        consts = set(theory.grade_constants()) | {c for g in goals for c in truth_constants_in(g)}
        universe = subformula_universe(seed, consts, depth)
        assert universe == reference_subformula_universe(seed, consts, depth)
        # A sample is not subformula-closed: an LC constant may be missing.
        sample = rng.sample(universe, len(universe) // 2)
        for budget in (1, 2, 3, DEFAULT_BUDGET):
            _agree(theory, universe, budget)
            _agree(theory, sample, budget)
            got = detect_contradiction(theory, depth, budget)
            assert _witness(got) == _witness(reference_detect_contradiction(theory, depth, budget))
            if got.witness is not None:
                witnesses += 1
                from_rest += got.witness.formula not in theory.special_axioms
    assert witnesses > 0 and from_rest > 0
