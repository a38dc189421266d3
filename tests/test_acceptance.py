"""Acceptance suite: one test per shipped guarantee, exact arithmetic
throughout, with one PASS line printed per criterion (run with -s to see
them)."""

import random
import time
from fractions import Fraction
from itertools import product

from fln.deduction import detect_contradiction, provability_lower_bound
from fln.hedges import (
    HedgeFunction,
    HedgeModel,
    IDENTITY,
    PL_SQRT,
    PL_SQUARE,
    blend,
    boundaries,
    fitting_constant,
    validate_axioms,
    validate_shape,
)
from fln.mv import MVChain, ONE, ZERO, biresiduum, chain_values, join, luk_and, luk_imp, luk_neg, meet
from fln.parser import parse_formula, parse_theory
from fln.semantics import Structure, eval_formula, sem_degree, tautology_degree
from fln.syntax import (
    Conj,
    Const,
    Exists,
    Forall,
    HedgeApp,
    HedgeMode,
    HedgeSignature,
    Iff,
    Imp,
    Max,
    Min,
    Multiple,
    Neg,
    Power,
    Pred,
    TruthConst,
    Var,
    expand,
    format_formula,
    free_vars,
    substitute,
)
from fln.theory import Theory
from genformulas import SIG_DH, SIG_H, random_formula

F = Fraction


def _report(n: int, text: str) -> None:
    print(f"[criterion {n:2d}] PASS - {text}")


def test_criterion_01_residuation_exhaustive():
    vals = chain_values(20)
    started = time.monotonic()
    checked = 0
    for a in vals:
        for b in vals:
            ab = luk_and(a, b)
            for c in vals:
                assert (ab <= c) == (a <= luk_imp(b, c))
                checked += 1
    elapsed = time.monotonic() - started
    assert checked == 9261
    assert elapsed < 1.0, f"residuation sweep took {elapsed:.2f}s"
    _report(1, f"residuation on 9261 exact triples in {elapsed:.3f}s")


def test_criterion_02_basic_operations_logically_fitting():
    vals = chain_values(10)
    ops = (join, meet, luk_and, luk_imp)
    started = time.monotonic()
    for a in vals:
        for a2 in vals:
            left_a = biresiduum(a, a2)
            for b in vals:
                for b2 in vals:
                    bound = luk_and(left_a, biresiduum(b, b2))
                    for op in ops:
                        assert bound <= biresiduum(op(a, b), op(a2, b2))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"fitting sweep took {elapsed:.2f}s"
    _report(2, f"join/meet/and/imp are 1-fitting on 14641 tuples in {elapsed:.2f}s")


def _random_prop_formula(rng, atoms, depth):
    if depth <= 0:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    sub = lambda: _random_prop_formula(rng, atoms, depth - 1)
    if kind == 0:
        return Imp(sub(), sub())
    if kind == 1:
        return Conj(sub(), sub())
    if kind == 2:
        return Max(sub(), sub())
    if kind == 3:
        return Min(sub(), sub())
    if kind == 4:
        return Neg(sub())
    return rng.choice(atoms)


def test_criterion_03_axiom_schemas_are_one_tautologies():
    rng = random.Random(2024)
    chain = MVChain(10)
    atoms = [Pred("P"), Pred("Q"), TruthConst(F(1, 2)), TruthConst(F(3, 10))]
    instances = []

    def prop():
        return _random_prop_formula(rng, atoms, rng.randint(0, 2))

    for _ in range(40):
        a, b = prop(), prop()
        instances.append(Imp(a, Imp(b, a)))
    for _ in range(40):
        a, b, c = prop(), prop(), prop()
        instances.append(Imp(Imp(a, b), Imp(Imp(b, c), Imp(a, c))))
    for _ in range(40):
        a, b = prop(), prop()
        instances.append(Imp(Imp(Neg(b), Neg(a)), Imp(a, b)))
    for _ in range(40):
        a, b = prop(), prop()
        instances.append(Imp(Imp(Imp(a, b), b), Imp(Imp(b, a), a)))
    for _ in range(30):
        a = F(rng.randint(0, 12), 12)
        b = F(rng.randint(0, 12), 12)
        instances.append(
            Iff(Imp(TruthConst(a), TruthConst(b)), TruthConst(luk_imp(a, b)))
        )
    rx = Pred("R", (Var("x"),))
    bodies = [rx, Imp(rx, Pred("P")), Imp(Pred("P"), rx), Conj(rx, rx)]
    terms = [Var("y"), Const("u")]
    for _ in range(20):
        body = rng.choice(bodies)
        t = rng.choice(terms)
        inst = Imp(Forall("x", body), substitute(body, "x", t))
        if free_vars(inst):
            inst = Forall("y", inst)
        instances.append(inst)
    for _ in range(20):
        a = rng.choice([Pred("P"), Pred("Q"), TruthConst(F(2, 5))])
        b = rng.choice(bodies)
        instances.append(Imp(Forall("x", Imp(a, b)), Imp(a, Forall("x", b))))

    assert len(instances) >= 200
    failures = [f for f in instances if tautology_degree(f, chain, max_domain=2) != ONE]
    assert not failures, [format_formula(f) for f in failures[:3]]
    _report(3, f"{len(instances)} schema instances all evaluate to degree 1")


def _random_prop_theory(rng):
    atoms = [Pred("P"), Pred("Q"), Pred("R")]
    tenths = chain_values(10)
    pairs = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.choice(atoms), rng.choice(atoms)
        f = rng.choice([a, Imp(a, b), Neg(a), Conj(a, b), Max(a, b)])
        pairs.append((rng.choice(tenths), f))
    return Theory.build(pairs), rng.choice(atoms)


def test_criterion_04_soundness_bound_below_degree():
    rng = random.Random(404)
    chain = MVChain(10)
    for _ in range(100):
        theory, goal = _random_prop_theory(rng)
        bound = provability_lower_bound(theory, goal, depth=1, budget=60).bound
        degree = sem_degree(theory, goal, chain).degree
        assert bound <= degree, (theory.special_axioms, format_formula(goal))
    _report(4, "provability bound <= truth degree on 100 random theories")


def test_criterion_05_completeness_spot_checks():
    chain = MVChain(10)
    theory = parse_theory("4/5 : P\n9/10 : P -> Q\n")
    goal = Pred("Q")
    bound = provability_lower_bound(theory, goal).bound
    degree = sem_degree(theory, goal, chain).degree
    assert bound == degree == F(7, 10)
    for a in chain_values(10):
        single = Theory.build([(a, Pred("P"))])
        assert provability_lower_bound(single, Pred("P")).bound == a
        assert sem_degree(single, Pred("P"), chain).degree == a
        constant = TruthConst(a)
        assert provability_lower_bound(Theory(), constant).bound == a
        assert sem_degree(Theory(), constant, chain).degree == a
    _report(5, "provability degree equals truth degree on the pinned instances")


def test_criterion_06_hedge_theorem_suite():
    # shape validation mirrors the hedge theorems: non-decreasing, 0/1
    # preservation, sub/superdiagonality
    assert validate_shape(IDENTITY, "stresser").passed
    assert validate_shape(IDENTITY, "depresser").passed
    assert validate_shape(PL_SQUARE, "stresser").passed
    assert validate_shape(PL_SQRT, "depresser").passed
    sub_fail = validate_shape(PL_SQUARE, "depresser")
    assert any(v.check == "superdiagonal" for v in sub_fail.violations)
    wobble = HedgeFunction(((ZERO, ZERO), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (ONE, ONE)))
    assert any(v.check == "non-decreasing" for v in validate_shape(wobble, "depresser").violations)
    lifted = HedgeFunction(((ZERO, F(1, 8)), (ONE, ONE)))
    assert any(v.check == "preserves-0" for v in validate_shape(lifted, "depresser").violations)

    assert fitting_constant(IDENTITY) == 1
    assert fitting_constant(PL_SQUARE) == 2

    rng = random.Random(6)
    chain = MVChain(50)
    sig = HedgeSignature(HedgeMode.DH, ("s1",), ("d1",))
    models = [HedgeModel.identity_model(sig)]
    shapes = [IDENTITY, PL_SQUARE, PL_SQRT, blend(PL_SQUARE, F(1, 4)), blend(PL_SQRT, F(1, 4))]
    for _ in range(30):
        models.append(HedgeModel(sig, {"s1": rng.choice(shapes), "d1": rng.choice(shapes)}))
    validated = 0
    for model in models:
        if validate_axioms(model, chain).passed:
            validated += 1
            s, d = model.function_for("s1"), model.function_for("d1")
            for b in chain:
                assert luk_imp(s(b), luk_neg(d(luk_neg(b)))) == ONE
    assert validated >= 1
    _report(6, f"shape/fitting theorems hold; dual tautology on {validated} validated models")


def _random_endpoint_pl(rng):
    xs = sorted(rng.sample([F(i, 10) for i in range(1, 10)], rng.randint(0, 4)))
    bps = [(ZERO, ZERO)]
    for x in xs:
        bps.append((x, F(rng.randint(0, 20), 20)))
    bps.append((ONE, ONE))
    return HedgeFunction(tuple(bps))


def test_criterion_07_h6_collapse_to_identity():
    rng = random.Random(7)
    family = [IDENTITY, PL_SQUARE, PL_SQRT] + [_random_endpoint_pl(rng) for _ in range(97)]
    assert len(family) == 100
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    for k in (10, 50):
        chain = MVChain(k)
        for f in family:
            model = HedgeModel(sig, {"s1": f})
            h6_violations = [v for v in validate_axioms(model, chain).violations if v.check == "H6"]
            if not h6_violations:
                assert all(f(x) == x for x in chain), f.breakpoints
    square_report = validate_axioms(
        HedgeModel(sig, {"s1": PL_SQUARE}), MVChain(10)
    )
    witnesses = {(v.inputs, v.value) for v in square_report.violations if v.check == "H6"}
    assert ((ONE, F(9, 10)), F(37, 40)) in witnesses
    _report(7, "H6 on a chain forces identity there; pl-square witness (1, 9/10) -> 37/40")


def test_h6_holds_iff_adjacent_steps_in_range():
    # Telescoping lemma behind the validator's skip: on the chain the
    # monotonicity axiom holds iff every adjacent step f(x_{i+1}) - f(x_i)
    # lies in [0, 1/k].  Criterion 07's family plus functions that move 0 or 1.
    rng = random.Random(7)
    family = [IDENTITY, PL_SQUARE, PL_SQRT] + [_random_endpoint_pl(rng) for _ in range(97)]
    lifted_rng = random.Random(77)
    for _ in range(40):
        y0 = F(lifted_rng.randint(0, 10), 20)
        y1 = F(lifted_rng.randint(10, 20), 20)
        mid = [(F(i, 10), F(lifted_rng.randint(0, 20), 20)) for i in sorted(lifted_rng.sample(range(1, 10), 2))]
        family.append(HedgeFunction(((ZERO, y0), *mid, (ONE, y1))))
    family.append(HedgeFunction(((ZERO, F(1, 5)), (ONE, ONE))))
    sigs = [
        (HedgeSignature(HedgeMode.H, ("s1",), ()), "H6"),
        (HedgeSignature(HedgeMode.DH, ("s1",), ("d1",)), "DH11"),
    ]
    passing = 0
    for k in (7, 10, 50):
        chain = MVChain(k)
        for f in family:
            ys = [f(x) for x in chain]
            steps_ok = all(ZERO <= b - a <= F(1, k) for a, b in zip(ys, ys[1:]))
            passing += steps_ok
            for sig, check in sigs:
                report = validate_axioms(HedgeModel(sig, {name: f for name in sig.hedges}), chain)
                mono_ok = not any(v.check == check and v.hedge == "s1" for v in report.violations)
                assert mono_ok == steps_ok, (f.breakpoints, k, check)
    # identity and the lifted line 1/5 + 4x/5 pass on every chain
    assert passing >= 6


def test_criterion_08_boundary_envelopes():
    sig2 = HedgeSignature(HedgeMode.DH, ("s1", "s2"), ("d1", "d2"))
    identity_model = HedgeModel.identity_model(sig2)
    tables, report = boundaries(identity_model, MVChain(10))
    assert report.passed
    for name in sig2.depressers:
        for row in tables[name]:
            assert (row.lower, row.upper) == (row.x, row.x)

    sig = HedgeSignature(HedgeMode.DH, ("s1",), ("d1",))
    square_model = HedgeModel(sig, {"s1": PL_SQUARE, "d1": IDENTITY})
    tables, report = boundaries(square_model, MVChain(10))
    assert report.passed
    row = {r.x: r for r in tables["d1"]}[F(2, 5)]
    assert row.upper == F(5, 8)

    breach = HedgeModel(sig, {"s1": PL_SQUARE, "d1": HedgeFunction(((ZERO, ZERO), (F(2, 5), F(7, 10)), (ONE, ONE)))})
    _, report = boundaries(breach, MVChain(10))
    hits = [v for v in report.violations if v.check == "envelope-upper" and v.hedge == "d1"]
    assert any(v.inputs == (F(2, 5),) and v.value == F(7, 10) for v in hits)
    _report(8, "envelopes collapse for identity stressers; breaches carry witnesses")


def _has_model(theory, chain):
    atoms = sorted({f.name for f in (Pred("P"), Pred("Q"), Pred("R"))})
    items = list(theory.special_axioms.items())
    for values in product(chain.values(), repeat=3):
        s = Structure(domain=("d1",), preds={a: {(): v} for a, v in zip(atoms, values)})
        if all(eval_formula(s, f) >= g for f, g in items):
            return True
    return False


def test_criterion_09_contradiction_detection():
    direct = detect_contradiction(parse_theory("4/5 : P\n4/5 : ~P\n"))
    assert direct.witness is not None and direct.witness.degree == F(3, 5)
    below = detect_contradiction(parse_theory("1/2 : P\n1/2 : ~P\n"))
    assert below.witness is None and below.fixpoint

    rng = random.Random(909)
    chain = MVChain(10)
    with_model = 0
    attempts = 0
    while with_model < 100:
        attempts += 1
        assert attempts < 2000
        theory, _ = _random_prop_theory(rng)
        if not _has_model(theory, chain):
            continue
        with_model += 1
        res = detect_contradiction(theory, depth=1, budget=60)
        assert res.witness is None, dict(theory.special_axioms)
    _report(9, f"pinned witnesses exact; {with_model} satisfiable theories never flagged")


def test_criterion_10_parser_round_trip():
    rng = random.Random(20250810)
    seen_nodes = set()
    quantifier_nesting = 0
    for i in range(500):
        sig = SIG_H if i % 2 == 0 else SIG_DH
        f = random_formula(rng, sig, depth=3)
        seen_nodes.update(_node_kinds(f))
        quantifier_nesting += _nested_quantifier(f)
        text = format_formula(f)
        back = parse_formula(text, sig)
        assert back == f, text
        assert format_formula(back) == text
    required = {
        "TruthConst", "Pred", "Imp", "Forall", "Exists", "HedgeApp",
        "Neg", "Conj", "Disj", "Min", "Max", "Iff", "Power", "Multiple",
    }
    assert required <= seen_nodes
    assert quantifier_nesting > 0
    _report(10, "500 generated formulas round-trip byte-stably through the parser")


def _node_kinds(f):
    out = {type(f).__name__}
    for attr in ("left", "right", "body"):
        child = getattr(f, attr, None)
        if child is not None and not isinstance(child, (str, int)):
            out |= _node_kinds(child)
    return out


def _nested_quantifier(f, under=False):
    if isinstance(f, (Forall, Exists)):
        if under:
            return 1
        return _nested_quantifier(f.body, True)
    total = 0
    for attr in ("left", "right", "body"):
        child = getattr(f, attr, None)
        if child is not None and not isinstance(child, (str, int)):
            total += _nested_quantifier(child, under)
    return total
