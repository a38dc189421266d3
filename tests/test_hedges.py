import math
import random
import re
from fractions import Fraction

import pytest

from fln.hedges import (
    BoundaryRow,
    HedgeFunction,
    HedgeKernel,
    HedgeModel,
    IDENTITY,
    PL_SQRT,
    PL_SQUARE,
    ValidationReport,
    Violation,
    blend,
    boundaries,
    eval_hedge,
    fitting_constant,
    validate_axioms,
    validate_shape,
)
from fln.mv import MVChain, ONE, ZERO, biresiduum, luk_imp, luk_neg, power
from fln.semantics import sem_degree
from fln.syntax import HedgeApp, HedgeMode, HedgeSignature, Pred
from fln.theory import Theory
from genformulas import reference_eval_hedge

F = Fraction


def interpolate(bps, a):
    """Independent linear-interpolation oracle used to pin expected values."""
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if x0 <= a <= x1:
            if a == x0:
                return y0
            return y0 + (a - x0) * (y1 - y0) / (x1 - x0)
    raise AssertionError("argument outside [0,1]")


def test_eval_identity():
    assert eval_hedge(IDENTITY, F(3, 10)) == F(3, 10)


def test_eval_pl_square_oracle():
    # between (3/4, 9/16) and (1, 1): 9/16 + (9/10 - 3/4) * (7/16)/(1/4)
    expected = interpolate(PL_SQUARE.breakpoints, F(9, 10))
    assert expected == F(33, 40)
    assert eval_hedge(PL_SQUARE, F(9, 10)) == F(33, 40)


def test_eval_at_breakpoints():
    for f in (IDENTITY, PL_SQUARE, PL_SQRT):
        for x, y in f.breakpoints:
            assert eval_hedge(f, x) == y


EXACTNESS_DENOMINATORS = (1, 2, 3, 7, 12, 60, 60 * 16**3)


def test_eval_matches_oracle_on_chain():
    # The kernel's integer lines against the Fraction oracle at the points
    # i/d: every point for small d, and for the large d both endpoints, the
    # points at and next to each breakpoint and a random sample.
    rng = random.Random(40)
    funcs = [IDENTITY, PL_SQUARE, PL_SQRT, blend(PL_SQUARE, F(1, 3)), blend(PL_SQRT, F(2, 5))]
    funcs += [random_lifted_pl(rng) for _ in range(20)]
    for f in funcs:
        for d in EXACTNESS_DENOMINATORS:
            kernel = HedgeKernel(f, d)
            table = kernel.table()
            assert len(table) == d + 1
            if d <= 60:
                points = set(range(d + 1))
            else:
                near = {round(x * d) + step for x, _ in f.breakpoints for step in (-1, 0, 1)}
                points = {i for i in near if 0 <= i <= d} | {rng.randrange(d + 1) for _ in range(40)}
            for i in sorted(points):
                want = interpolate(f.breakpoints, F(i, d))
                assert eval_hedge(f, F(i, d)) == want, (f, i, d)
                assert F(kernel.at(i), kernel.den) == F(table[i], kernel.den) == want, (f, i, d)
        for x, y in f.breakpoints:
            assert eval_hedge(f, x) == y
        assert (eval_hedge(f, 0), eval_hedge(f, 1)) == (f.breakpoints[0][1], f.breakpoints[-1][1])
        for bad in (F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError, match=re.escape(f"hedge argument {bad} outside [0, 1]")):
                eval_hedge(f, bad)


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        HedgeFunction(((F(0), F(0)),))
    with pytest.raises(ValueError):
        HedgeFunction(((F(1, 4), F(0)), (F(1), F(1))))
    with pytest.raises(ValueError):
        HedgeFunction(((F(0), F(0)), (F(1), F(3, 2))))
    f = HedgeFunction(PL_SQUARE.breakpoints)
    assert f == PL_SQUARE and hash(f) == hash(PL_SQUARE)
    assert f != PL_SQRT


def test_validate_shape_identity_both_kinds():
    assert validate_shape(IDENTITY, "stresser").passed
    assert validate_shape(IDENTITY, "depresser").passed


def test_validate_shape_pl_square():
    assert validate_shape(PL_SQUARE, "stresser").passed
    report = validate_shape(PL_SQUARE, "depresser")
    assert not report.passed
    witnesses = {(v.inputs, v.value) for v in report.violations if v.check == "superdiagonal"}
    assert ((F(1, 2),), F(1, 4)) in witnesses


def test_validate_shape_detects_broken_endpoints_and_monotonicity():
    f = HedgeFunction(((ZERO, F(1, 10)), (F(1, 2), F(1, 2)), (ONE, F(9, 10))))
    report = validate_shape(f, "stresser")
    checks = {v.check for v in report.violations}
    assert "preserves-0" in checks and "preserves-1" in checks
    g = HedgeFunction(((ZERO, ZERO), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)), (ONE, ONE)))
    assert "non-decreasing" in {v.check for v in validate_shape(g, "stresser").violations}


def reference_fitting_constant(f: HedgeFunction) -> int:
    max_slope = ZERO
    for (x0, y0), (x1, y1) in zip(f.breakpoints, f.breakpoints[1:]):
        slope = abs((y1 - y0) / (x1 - x0))
        if slope > max_slope:
            max_slope = slope
    return max(1, math.ceil(max_slope))


def test_fitting_constants():
    assert fitting_constant(IDENTITY) == 1
    assert fitting_constant(PL_SQUARE) == 2  # max slope 7/4 on [3/4, 1]
    steep = HedgeFunction(((ZERO, ZERO), (F(4, 5), ZERO), (ONE, ONE)))
    assert fitting_constant(steep) == 5
    rng = random.Random(7)
    for f in [random_lifted_pl(rng) for _ in range(300)]:
        assert fitting_constant(f) == reference_fitting_constant(f), f


def test_fitting_constant_is_sound_and_minimal_on_chain():
    for f in (IDENTITY, PL_SQUARE, PL_SQRT):
        k = fitting_constant(f)
        vals = MVChain(50).values()
        for a in vals:
            fa = f(a)
            for b in vals:
                assert power(biresiduum(a, b), k) <= biresiduum(fa, f(b))
        if k > 1:
            assert any(
                power(biresiduum(a, b), k - 1) > biresiduum(f(a), f(b))
                for a in vals
                for b in vals
            )


def test_eval_monotone_when_shape_monotone():
    rng = random.Random(17)
    funcs = [IDENTITY, PL_SQUARE, PL_SQRT] + [random_pl(rng) for _ in range(20)]
    points = MVChain(60).values()
    for f in funcs:
        monotone = not any(v.check == "non-decreasing" for v in validate_shape(f, "stresser").violations)
        if monotone:
            values = [eval_hedge(f, a) for a in points]
            assert values == sorted(values)


def test_blend_family():
    assert blend(PL_SQUARE, ZERO) == HedgeFunction(tuple((x, x) for x, _ in PL_SQUARE.breakpoints))
    assert blend(PL_SQUARE, ONE) == PL_SQUARE
    half = blend(PL_SQUARE, F(1, 2))
    assert half(F(1, 2)) == F(3, 8)
    assert validate_shape(half, "stresser").passed


SIG_H2 = HedgeSignature(HedgeMode.H, ("s1", "s2"), ("d1",))
SIG_DH2 = HedgeSignature(HedgeMode.DH, ("s1", "s2"), ("d1", "d2"))


def test_validate_axioms_identity_model_passes_everywhere():
    for sig in (SIG_H2, SIG_DH2):
        for k in (1, 2, 10, 50):
            assert validate_axioms(HedgeModel.identity_model(sig), MVChain(k)).passed


def test_validate_axioms_pl_square_fails_h6_with_pinned_witness():
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    model = HedgeModel(sig, {"s1": PL_SQUARE})
    report = validate_axioms(model, MVChain(10))
    assert not report.passed
    h6 = {(v.inputs, v.value) for v in report.violations if v.check == "H6"}
    assert ((ONE, F(9, 10)), F(37, 40)) in h6


def test_validate_axioms_crossing_strength_chain_fails_h7():
    s1 = HedgeFunction(((ZERO, ZERO), (F(1, 2), F(1, 4)), (ONE, ONE)))
    s2 = HedgeFunction(((ZERO, ZERO), (F(1, 2), F(3, 8)), (ONE, ONE)))
    sig = HedgeSignature(HedgeMode.H, ("s1", "s2"), ())
    model = HedgeModel(sig, {"s1": s1, "s2": s2})
    report = validate_axioms(model, MVChain(10))
    h7 = [v for v in report.violations if v.check == "H7" and v.hedge == "s2"]
    assert any(v.inputs == (F(1, 2),) and v.value == F(7, 8) for v in h7)


def test_validate_axioms_h10_needs_zero_preservation():
    lifted = HedgeFunction(((ZERO, F(1, 5)), (ONE, ONE)))
    sig = HedgeSignature(HedgeMode.H, (), ("d1",))
    model = HedgeModel(sig, {"d1": lifted})
    report = validate_axioms(model, MVChain(10))
    assert any(v.check == "H10" and v.value == F(4, 5) for v in report.violations)


def test_h6_pass_on_chain_forces_identity_on_chain():
    # Endpoint-preserving functions that satisfy the monotonicity axiom on a
    # chain coincide with the identity there; generated family plus presets.
    rng = random.Random(99)
    funcs = [IDENTITY, PL_SQUARE, PL_SQRT] + [random_pl(rng) for _ in range(40)]
    chain = MVChain(10)
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    for f in funcs:
        model = HedgeModel(sig, {"s1": f})
        report = validate_axioms(model, chain)
        h6_ok = not any(v.check == "H6" for v in report.violations)
        if h6_ok:
            assert all(f(x) == x for x in chain)


def random_pl(rng: random.Random) -> HedgeFunction:
    xs = sorted(rng.sample([F(i, 8) for i in range(1, 8)], rng.randint(0, 3)))
    bps = [(ZERO, ZERO)]
    for x in xs:
        bps.append((x, F(rng.randint(0, 16), 16)))
    bps.append((ONE, ONE))
    return HedgeFunction(tuple(bps))


def test_dual_tautology_follows_from_dh15_on_chain():
    # s_i(b) => ~d_i(~b) is 1 whenever the duality axiom holds on the chain,
    # independently of the other axioms.
    rng = random.Random(5)
    chain = MVChain(50)
    cases = [
        (IDENTITY, IDENTITY),
        (PL_SQUARE, PL_SQRT),
        (blend(PL_SQUARE, F(1, 3)), blend(PL_SQRT, F(1, 3))),
    ] + [(random_pl(rng), random_pl(rng)) for _ in range(20)]
    sig = HedgeSignature(HedgeMode.DH, ("s1",), ("d1",))
    from fln.mv import luk_imp

    for s, d in cases:
        model = HedgeModel(sig, {"s1": s, "d1": d})
        report = validate_axioms(model, chain)
        dh15_ok = not any(v.check == "DH15" for v in report.violations)
        if dh15_ok:
            for b in chain:
                assert luk_imp(s(b), luk_neg(d(luk_neg(b)))) == ONE


def test_dual_tautology_for_fully_valid_models():
    chain = MVChain(50)
    model = HedgeModel.identity_model(SIG_DH2)
    assert validate_axioms(model, chain).passed
    from fln.mv import luk_imp

    for name_s, name_d in zip(SIG_DH2.stressers, SIG_DH2.depressers):
        s = model.function_for(name_s)
        d = model.function_for(name_d)
        for b in chain:
            assert luk_imp(s(b), luk_neg(d(luk_neg(b)))) == ONE


# ---------------------------------------------------------------------------
# Boundary envelopes


def test_boundaries_identity_collapse():
    model = HedgeModel.identity_model(SIG_DH2)
    tables, report = boundaries(model, MVChain(10))
    assert report.passed
    for name in SIG_DH2.depressers:
        for row in tables[name]:
            assert row.lower == row.x and row.upper == row.x


def test_boundaries_d1_upper_with_pl_square():
    sig = HedgeSignature(HedgeMode.DH, ("s1",), ("d1",))
    model = HedgeModel(sig, {"s1": PL_SQUARE, "d1": IDENTITY})
    tables, report = boundaries(model, MVChain(10))
    # carried out by hand: pl-square(3/5) = 1/4 + (1/10)(5/4) = 3/8, complement 5/8
    assert interpolate(PL_SQUARE.breakpoints, F(3, 5)) == F(3, 8)
    row = {r.x: r for r in tables["d1"]}[F(2, 5)]
    assert row.upper == F(5, 8)
    assert row.lower == F(2, 5)
    assert report.passed


def test_boundaries_flags_envelope_breach():
    sig = HedgeSignature(HedgeMode.DH, ("s1",), ("d1",))
    too_high = HedgeFunction(((ZERO, ZERO), (F(2, 5), F(7, 10)), (ONE, ONE)))
    model = HedgeModel(sig, {"s1": PL_SQUARE, "d1": too_high})
    _, report = boundaries(model, MVChain(10))
    breaches = [v for v in report.violations if v.check == "envelope-upper" and v.hedge == "d1"]
    assert any(v.inputs == (F(2, 5),) and v.value == F(7, 10) for v in breaches)


def test_boundaries_stresser_rows():
    sig = HedgeSignature(HedgeMode.DH, ("s1", "s2"), ("d1", "d2"))
    model = HedgeModel(
        sig, {"s1": IDENTITY, "s2": PL_SQUARE, "d1": IDENTITY, "d2": IDENTITY}
    )
    tables, report = boundaries(model, MVChain(10))
    assert report.passed
    for row in tables["s1"]:
        assert row.lower == eval_hedge(PL_SQUARE, row.x)
        assert row.upper == row.x
    for row in tables["s2"]:
        assert row.lower == ZERO and row.upper == row.x


def test_boundaries_requires_dual_mode():
    model = HedgeModel.identity_model(SIG_H2)
    with pytest.raises(ValueError, match="dual-hedge"):
        boundaries(model, MVChain(10))


def test_machine_violation_line():
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    model = HedgeModel(sig, {"s1": PL_SQUARE})
    report = validate_axioms(model, MVChain(10))
    lines = [v.machine_line() for v in report.violations]
    assert "VIOLATION H6 s1 (1, 9/10) 37/40" in lines


# ---------------------------------------------------------------------------
# Reference oracle: the pointwise Fraction pair loop the tabulated kernel
# replaced, reading hedge values through the Fraction interpolation oracle


def _reference_axiom_ids(mode: HedgeMode) -> dict[str, str]:
    if mode is HedgeMode.H:
        return {"mono": "H6", "schain": "H7", "stop": "H8", "dchain": "H9", "dbot": "H10"}
    return {"mono": "DH11", "schain": "DH12", "stop": "DH13", "dchain": "DH14", "dual": "DH15"}


def reference_function(model: HedgeModel, name: str):
    fn = model.function_for(name)
    return lambda a: reference_eval_hedge(fn, a)


def reference_identity(a: Fraction) -> Fraction:
    return a


def reference_validate_axioms(model: HedgeModel, chain: MVChain) -> ValidationReport:
    sig = model.signature
    ids = _reference_axiom_ids(sig.mode)
    values = chain.values()
    vs: list[Violation] = []

    for name in sig.hedges:
        f = reference_function(model, name)
        for a in values:
            fa = f(a)
            for b in values:
                v = luk_imp(luk_imp(a, b), luk_imp(fa, f(b)))
                if v != ONE:
                    vs.append(Violation(ids["mono"], name, (a, b), v))

    for i, name in enumerate(sig.stressers, start=1):
        f = reference_function(model, name)
        prev = reference_identity if i == 1 else reference_function(model, sig.stressers[i - 2])
        for a in values:
            v = luk_imp(f(a), prev(a))
            if v != ONE:
                vs.append(Violation(ids["schain"], name, (a,), v))

    if sig.stressers:
        top = sig.stressers[-1]
        v = reference_function(model, top)(ONE)
        if v != ONE:
            vs.append(Violation(ids["stop"], top, (ONE,), v))

    for j, name in enumerate(sig.depressers, start=1):
        f = reference_function(model, name)
        prev = reference_identity if j == 1 else reference_function(model, sig.depressers[j - 2])
        for a in values:
            v = luk_imp(prev(a), f(a))
            if v != ONE:
                vs.append(Violation(ids["dchain"], name, (a,), v))

    if sig.mode is HedgeMode.H:
        if sig.depressers:
            bottom = sig.depressers[-1]
            v = luk_neg(reference_function(model, bottom)(ZERO))
            if v != ONE:
                vs.append(Violation(ids["dbot"], bottom, (ZERO,), v))
    else:
        for i, name in enumerate(sig.depressers, start=1):
            d = reference_function(model, name)
            s = reference_function(model, sig.stressers[i - 1])
            for a in values:
                v = luk_imp(d(a), luk_neg(s(luk_neg(a))))
                if v != ONE:
                    vs.append(Violation(ids["dual"], name, (a,), v))

    return ValidationReport(tuple(vs))


def reference_boundaries(model: HedgeModel, chain: MVChain):
    sig = model.signature
    values = chain.values()
    tables = {}
    vs = []
    n = len(sig.stressers)

    def envelope(name, lo_at, hi_at):
        f = reference_function(model, name)
        rows = []
        for x in values:
            lo, hi = lo_at(x), hi_at(x)
            rows.append(BoundaryRow(x, lo, hi))
            y = f(x)
            if y < lo:
                vs.append(Violation("envelope-lower", name, (x,), y))
            if y > hi:
                vs.append(Violation("envelope-upper", name, (x,), y))
        tables[name] = tuple(rows)

    for i in range(1, n + 1):
        name = sig.stressers[i - 1]
        if i == n:
            envelope(name, lambda x: ZERO, lambda x: x)
        else:
            stronger = reference_function(model, sig.stressers[i])
            envelope(name, stronger, lambda x: x)
    for i in range(1, n + 1):
        name = sig.depressers[i - 1]
        s_i = reference_function(model, sig.stressers[i - 1])
        upper = lambda x, s=s_i: luk_neg(s(luk_neg(x)))
        if i == 1:
            envelope(name, lambda x: x, upper)
        else:
            weaker = reference_function(model, sig.depressers[i - 2])
            envelope(name, weaker, upper)

    return tables, ValidationReport(tuple(vs))


def random_lifted_pl(rng: random.Random) -> HedgeFunction:
    """Random breakpoints with mixed denominators; endpoints may leave 0 and 1."""
    q = rng.choice((5, 7, 12, 16))
    xs = sorted(rng.sample([F(i, 12) for i in range(1, 12)], rng.randint(0, 3)))
    y0 = ZERO if rng.random() < 0.6 else F(rng.randint(1, q - 1), q)
    y1 = ONE if rng.random() < 0.6 else F(rng.randint(1, q - 1), q)
    bps = [(ZERO, y0)] + [(x, F(rng.randint(0, q), q)) for x in xs] + [(ONE, y1)]
    return HedgeFunction(tuple(bps))


def random_model(rng: random.Random) -> HedgeModel:
    shapes = [IDENTITY, PL_SQUARE, PL_SQRT, blend(PL_SQUARE, F(1, 3)), blend(PL_SQRT, F(2, 5))]
    if rng.random() < 0.5:
        n_s = rng.randint(0, 3)
        sig = HedgeSignature(HedgeMode.H, tuple(f"s{i}" for i in range(1, n_s + 1)),
                             tuple(f"d{i}" for i in range(1, rng.randint(0, 3 - n_s) + 1)))
    else:
        n = rng.randint(0, 1)
        sig = HedgeSignature(HedgeMode.DH, ("s1",) * n, ("d1",) * n)
    return HedgeModel(sig, {
        name: rng.choice(shapes) if rng.random() < 0.3 else random_lifted_pl(rng) for name in sig.hedges
    })


ORACLE_CHAINS = (1, 2, 3, 7, 10, 20, 33)


def test_validate_axioms_matches_pointwise_reference():
    rng = random.Random(2016)
    for _ in range(40):
        model = random_model(rng)
        for k in ORACLE_CHAINS:
            chain = MVChain(k)
            got = [v.machine_line() for v in validate_axioms(model, chain).violations]
            want = [v.machine_line() for v in reference_validate_axioms(model, chain).violations]
            assert got == want, (model, k)


def test_boundaries_match_pointwise_reference():
    rng = random.Random(8033)
    models = [m for m in (random_model(rng) for _ in range(80)) if m.signature.mode is HedgeMode.DH]
    models.append(HedgeModel(SIG_DH2, {"s1": PL_SQRT, "s2": PL_SQUARE, "d1": PL_SQUARE, "d2": random_lifted_pl(rng)}))
    for model in models:
        for k in ORACLE_CHAINS:
            chain = MVChain(k)
            tables, report = boundaries(model, chain)
            want_tables, want_report = reference_boundaries(model, chain)
            assert tables == want_tables
            assert list(tables) == list(want_tables)
            assert [v.machine_line() for v in report.violations] == [
                v.machine_line() for v in want_report.violations
            ]


def test_validate_axioms_tabulates_each_hedge_once(monkeypatch):
    # A count guard, not a timing test: validation derives one integer kernel
    # per declared hedge and never evaluates a hedge per chain point or per
    # pair of points.  sem_degree only asks whether the model passes, so it
    # stops at the first violation.
    derived = 0
    init = HedgeKernel.__init__

    def counted(self, f, d):
        nonlocal derived
        derived += 1
        init(self, f, d)

    monkeypatch.setattr(HedgeKernel, "__init__", counted)
    sig = HedgeSignature(HedgeMode.DH, ("s1",), ("d1",))
    model = HedgeModel(sig, {"s1": PL_SQUARE, "d1": PL_SQRT})
    k = 200
    report = validate_axioms(model, MVChain(k))
    assert not report.passed
    assert derived <= len(sig.hedges)

    made = 0

    def violation(*args):
        nonlocal made
        made += 1
        return Violation(*args)

    import fln.hedges

    monkeypatch.setattr(fln.hedges, "Violation", violation)
    derived = 0
    theory = Theory(sig, {}, model)
    res = sem_degree(theory, HedgeApp("s1", Pred("P")), MVChain(k))
    assert (res.degree, res.witness, res.structures_checked) == (ONE, None, 0)
    assert derived <= len(sig.hedges)
    assert made == 1
    assert len(report.violations) > 1000


# ---------------------------------------------------------------------------
# The command line prints reports from integer records; the oracle is the
# text of the library's objects


def model_text(model: HedgeModel) -> str:
    sig = model.signature
    lines = [f"mode {sig.mode.value}"]
    if sig.stressers:
        lines.append("stressers " + " ".join(sig.stressers))
    if sig.depressers:
        lines.append("depressers " + " ".join(sig.depressers))
    for name in sig.hedges:
        pairs = " ".join(f"({x},{y})" for x, y in model.function_for(name).breakpoints)
        lines.append(f"{name} = pl {{ {pairs} }}")
    return "\n".join(lines) + "\n"


def expected_validate_hedges(model: HedgeModel, chain: MVChain, tsv: bool) -> tuple[int, str]:
    sig = model.signature
    sections = [
        (f"SHAPE {name}", validate_shape(model.function_for(name), kind, name))
        for names, kind in ((sig.stressers, "stresser"), (sig.depressers, "depresser"))
        for name in names
    ]
    sections.append(("AXIOMS", validate_axioms(model, chain)))
    if sig.mode is HedgeMode.DH:
        sections.append(("ENVELOPES", boundaries(model, chain)[1]))
    count = sum(len(report.violations) for _, report in sections)
    verdict = "fail" if count else "pass"
    if tsv:
        return int(bool(count)), f"validate-hedges\t{verdict}\t{count}\n"
    lines = []
    for title, report in sections:
        lines.append(f"{title} {report.verdict}")
        lines += [v.machine_line() for v in report.violations]
    lines.append(f"RESULT {verdict}")
    return int(bool(count)), "".join(line + "\n" for line in lines)


def expected_boundaries(model: HedgeModel, chain: MVChain, tsv: bool) -> tuple[int, str]:
    tables, report = boundaries(model, chain)
    lines = []
    for name, rows in tables.items():
        for row in rows:
            if tsv:
                lines.append(f"boundaries\t{name}\t{row.x}\t{row.lower}\t{row.upper}")
            else:
                lines.append(f"BOUNDARY {name} {row.x} [{row.lower}, {row.upper}]")
    if not tsv:
        lines += [v.machine_line() for v in report.violations]
    return int(not report.passed), "".join(line + "\n" for line in lines)


def test_cli_hedge_reports_match_the_library_objects(tmp_path, capsys):
    import io

    from fln.cli import main
    from fln.parser import parse_hedge_model

    rng = random.Random(1010)
    models = [random_model(rng) for _ in range(24)]
    models.append(HedgeModel(SIG_DH2, {"s1": PL_SQRT, "s2": PL_SQUARE, "d1": PL_SQUARE, "d2": random_lifted_pl(rng)}))
    assert {m.signature.mode for m in models} == {HedgeMode.H, HedgeMode.DH}
    commands = (("validate-hedges", expected_validate_hedges), ("boundaries", expected_boundaries))
    for n, model in enumerate(models):
        path = tmp_path / f"m{n}.fln"
        path.write_text(model_text(model))
        assert parse_hedge_model(path.read_text()) == model
        for k in (1, 2, 3, 7, 12, 100):
            chain = MVChain(k)
            for tsv in (False, True):
                flags = ["--hedges", str(path), "--chain", str(k)] + (["--format", "tsv"] if tsv else [])
                for command, expected in commands:
                    out = io.StringIO()
                    code = main([command, *flags], out=out)
                    err = capsys.readouterr().err
                    if command == "boundaries" and model.signature.mode is HedgeMode.H:
                        want = (2, "", "error: boundary envelopes are defined for dual-hedge signatures only\n")
                    else:
                        want = (*expected(model, chain, tsv), "")
                    assert (code, out.getvalue(), err) == want, (n, k, command, tsv)


def test_cli_validate_hedges_builds_no_violation_per_instance(tmp_path, monkeypatch):
    # A count guard, not a timing test: the command line prints axiom
    # instances from integer records, with one text per distinct value and
    # no Violation or Fraction per reported line.
    import io

    import fln.hedges
    from fln.cli import main

    made = {"Violation": 0, "Fraction": 0}

    def counted(name):
        original = getattr(fln.hedges, name)

        def make(*args):
            made[name] += 1
            return original(*args)

        return make

    for name in made:
        monkeypatch.setattr(fln.hedges, name, counted(name))
    path = tmp_path / "h.fln"
    path.write_text("mode h\nstressers s1\ns1 = preset pl-square\n")
    out = io.StringIO()
    code = main(["validate-hedges", "--hedges", str(path), "--chain", "100"], out=out)
    lines = out.getvalue().splitlines()
    violations = [line for line in lines if line.startswith("VIOLATION H6 s1 ")]
    assert code == 1 and lines[:2] == ["SHAPE s1 pass", "AXIOMS fail"] and len(violations) > 1000
    assert made["Violation"] == 0  # the shape passes, so any Violation would be an axiom instance
    assert made["Fraction"] < len({line.rsplit(" ", 1)[1] for line in violations})
    # The library reports share one Fraction per distinct value.
    report = validate_axioms(HedgeModel(HedgeSignature(HedgeMode.H, ("s1",), ()), {"s1": PL_SQUARE}), MVChain(100))
    assert len({id(v.value) for v in report.violations}) == len({v.value for v in report.violations}) > 50
