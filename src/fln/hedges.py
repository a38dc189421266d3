"""Piecewise-linear hedge truth functions and their validation.

A hedge function is given by rational breakpoints from x=0 to x=1 and is
linearly interpolated in between, so monotonicity, sub/superdiagonality,
Lipschitz constants and axiom instances at chain points can all be checked
exactly.  Analytic shapes (Zadeh's square for *very*, a square-root-like
curve for *slightly*) ship as piecewise-linear presets.

Every hedge value comes from one integer kernel (:class:`HedgeKernel`),
shared by :func:`eval_hedge`, chain validation and the compiled formulas
of :mod:`fln.semantics`.  Validation on a chain {0, 1/k, ..., 1}
(:class:`HedgeTables`) tabulates each declared hedge once, compares
integers and yields integer records; the pair scan of H6/DH11 goes row by
row and is skipped when every adjacent step of a table lies in [0, 1/k],
which already rules out any violation.  The library reports records as
``Violation`` and ``BoundaryRow`` objects sharing one ``Fraction`` per
distinct value; the command line prints them from texts made once per
distinct chain point and value, with no object per line.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .mv import MVChain, ONE, ZERO
from .syntax import HedgeMode, HedgeSignature


@dataclass(frozen=True)
class HedgeFunction:
    """Piecewise-linear function [0,1] -> [0,1] with rational breakpoints."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if len(bps) < 2:
            raise ValueError("a hedge function needs at least the breakpoints at x=0 and x=1")
        if bps[0][0] != ZERO or bps[-1][0] != ONE:
            raise ValueError("breakpoints must start at x=0 and end at x=1")
        last_x = None
        for x, y in bps:
            if not (ZERO <= x <= ONE and ZERO <= y <= ONE):
                raise ValueError(f"breakpoint ({x}, {y}) outside the unit square")
            if last_x is not None and x <= last_x:
                raise ValueError("breakpoint x-coordinates must be strictly increasing")
            last_x = x

    def __call__(self, a: Fraction) -> Fraction:
        return eval_hedge(self, a)


class HedgeKernel:
    """``f`` at the points i/d as integer numerators over one denominator.

    On segment j, from (x_j, y_j) with slope s_j, f(i/d) has a denominator
    dividing lcm(den y_j, lcm(d, den x_j)·den s_j), f(1) included; ``den``
    is the lcm over the segments.  From its first point ceil(x_j·d) on,
    den·f(i/d) = a_j + b_j·i with integers a_j = den·(y_j - x_j·s_j) and
    b_j = den·s_j/d.
    """

    __slots__ = ("d", "den", "starts", "lines")

    def __init__(self, f: HedgeFunction, d: int):
        bps = [(Fraction(x), Fraction(y)) for x, y in f.breakpoints]
        segments = [(x0, y0, (y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(bps, bps[1:])]
        den = 1
        for x0, y0, s in segments:
            den = math.lcm(den, y0.denominator, math.lcm(d, x0.denominator) * s.denominator)
        self.d, self.den = d, den
        self.starts = [math.ceil(x0 * d) for x0, _, _ in segments]
        self.lines = [(int(den * (y0 - x0 * s)), int(den * s / d)) for x0, y0, s in segments]

    def at(self, i: int) -> int:
        """den·f(i/d), for an integer 0 <= i <= d."""
        a, b = self.lines[bisect_right(self.starts, i) - 1]
        return a + b * i

    def table(self) -> list[int]:
        """den·f(i/d) for i = 0, 1, ..., d, segment by segment."""
        ends = [*self.starts[1:], self.d + 1]
        return [a + b * i for (a, b), lo, hi in zip(self.lines, self.starts, ends) for i in range(lo, hi)]


def eval_hedge(f: HedgeFunction, a: Fraction) -> Fraction:
    """Exact value of ``f`` at ``a``."""
    if a < ZERO or a > ONE:
        raise ValueError(f"hedge argument {a} outside [0, 1]")
    a = Fraction(a)
    kernel = HedgeKernel(f, a.denominator)
    return Fraction(kernel.at(a.numerator), kernel.den)


IDENTITY = HedgeFunction(((ZERO, ZERO), (ONE, ONE)))

# Zadeh's x^2 sampled at quarter points; subdiagonal, max slope 7/4.
PL_SQUARE = HedgeFunction((
    (ZERO, ZERO),
    (Fraction(1, 4), Fraction(1, 16)),
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(9, 16)),
    (ONE, ONE),
))

# A square-root-like superdiagonal curve at quarter points (rational heights).
PL_SQRT = HedgeFunction((
    (ZERO, ZERO),
    (Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(7, 10)),
    (Fraction(3, 4), Fraction(7, 8)),
    (ONE, ONE),
))

PRESETS: dict[str, HedgeFunction] = {
    "identity": IDENTITY,
    "pl-square": PL_SQUARE,
    "pl-sqrt": PL_SQRT,
}


def blend(g: HedgeFunction, strength: Fraction) -> HedgeFunction:
    """Linear blend (1-λ)·x + λ·g(x); λ=0 is identity, λ=1 is g.

    Useful for building strength chains s_1, s_2, ... from one base shape.
    """
    lam = Fraction(strength)
    if lam < ZERO or lam > ONE:
        raise ValueError("blend strength must lie in [0, 1]")
    return HedgeFunction(tuple((x, (1 - lam) * x + lam * y) for x, y in g.breakpoints))


@dataclass(frozen=True)
class HedgeModel:
    """Assignment of one truth function to every declared hedge."""

    signature: HedgeSignature
    functions: dict[str, HedgeFunction]

    def __post_init__(self) -> None:
        declared = set(self.signature.hedges)
        assigned = set(self.functions)
        if declared != assigned:
            missing = sorted(declared - assigned)
            extra = sorted(assigned - declared)
            raise ValueError(f"hedge model mismatch: missing {missing}, undeclared {extra}")

    def function_for(self, name: str) -> HedgeFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"undeclared hedge '{name}'") from None

    @staticmethod
    def identity_model(signature: HedgeSignature) -> "HedgeModel":
        return HedgeModel(signature, {name: IDENTITY for name in signature.hedges})

    @staticmethod
    def empty() -> "HedgeModel":
        return HedgeModel(HedgeSignature.empty(), {})


# ---------------------------------------------------------------------------
# Validation reports


@dataclass(frozen=True)
class Violation:
    check: str
    hedge: str
    inputs: tuple[Fraction, ...]
    value: Fraction

    def machine_line(self) -> str:
        ins = "(" + ", ".join(str(v) for v in self.inputs) + ")"
        return f"VIOLATION {self.check} {self.hedge} {ins} {self.value}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def validate_shape(f: HedgeFunction, kind: str, hedge: str = "f") -> ValidationReport:
    """Check the characteristic shape of a hedge truth function.

    All hedges must be non-decreasing and preserve 0 and 1; stressers must
    be subdiagonal, depressers superdiagonal.  Piecewise-linear functions
    satisfy each property everywhere iff they satisfy it at breakpoints,
    so the check is exact.
    """
    if kind not in ("stresser", "depresser"):
        raise ValueError("kind must be 'stresser' or 'depresser'")
    vs: list[Violation] = []
    bps = f.breakpoints
    if bps[0][1] != ZERO:
        vs.append(Violation("preserves-0", hedge, (ZERO,), bps[0][1]))
    if bps[-1][1] != ONE:
        vs.append(Violation("preserves-1", hedge, (ONE,), bps[-1][1]))
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if y1 < y0:
            vs.append(Violation("non-decreasing", hedge, (x0, x1), y1))
    for x, y in bps:
        if kind == "stresser" and y > x:
            vs.append(Violation("subdiagonal", hedge, (x,), y))
        if kind == "depresser" and y < x:
            vs.append(Violation("superdiagonal", hedge, (x,), y))
    return ValidationReport(tuple(vs))


def fitting_constant(f: HedgeFunction) -> int:
    """Smallest k such that (a ⇔ b)^k ≤ f(a) ⇔ f(b) on all of [0, 1].

    For a piecewise-linear function that is the ceiling of the maximum
    absolute segment slope (and at least 1), b_j/den in the kernel at d = 1.
    """
    kernel = HedgeKernel(f, 1)
    return max(1, -(-max(abs(b) for _, b in kernel.lines) // kernel.den))


# ---------------------------------------------------------------------------
# Hedge axiom validation over a finite chain
#
# A scan yields integer records (check, hedge, points, num): an instance of
# ``check`` for ``hedge`` at the chain points x_p for p in ``points``, whose
# value num/D is below 1 (for an envelope, the hedge's value outside it).
# :meth:`HedgeTables.violations` turns records into Violations and
# :meth:`HedgeTables.lines` into the text of their machine lines.

Record = tuple[str, str, tuple[int, ...], int]


def _axiom_ids(mode: HedgeMode) -> dict[str, str]:
    if mode is HedgeMode.H:
        return {"mono": "H6", "schain": "H7", "stop": "H8", "dchain": "H9", "dbot": "H10"}
    return {"mono": "DH11", "schain": "DH12", "stop": "DH13", "dchain": "DH14", "dual": "DH15"}


class _RatioTexts(dict):
    """``str(Fraction(n, denom))`` by numerator n, made on the first lookup
    of each n with one gcd and no ``Fraction``."""

    def __init__(self, denom: int):
        super().__init__()
        self.denom = denom

    def __missing__(self, n: int) -> str:
        g = math.gcd(n, self.denom)
        text = self[n] = str(n // g) if g == self.denom else f"{n // g}/{self.denom // g}"
        return text


class HedgeTables:
    """A hedge model on a chain {0, 1/k, ..., 1}, on integers.

    One denominator D = lcm(k, each hedge's den) holds the chain points
    (``diagonal``, i·D/k) and every declared hedge's values at them, in
    chain order (``values``).  The scans read only these tables; the texts
    and Fractions they are reported with are made once per distinct
    chain point and value.
    """

    def __init__(self, model: HedgeModel, chain: MVChain):
        k = chain.k
        kernels = {name: HedgeKernel(model.function_for(name), k) for name in model.signature.hedges}
        denom = math.lcm(k, *(kernel.den for kernel in kernels.values()))
        self.signature, self.chain, self.denom = model.signature, chain, denom
        self.diagonal = range(0, denom + 1, denom // k)
        self.values = {name: [y * (denom // kernel.den) for y in kernel.table()] for name, kernel in kernels.items()}
        self.point_texts, self.value_texts = _RatioTexts(k), _RatioTexts(denom)
        self._fractions: dict[int, Fraction] = {}

    def fraction(self, num: int) -> Fraction:
        """num/D, one object per distinct numerator."""
        value = self._fractions.get(num)
        if value is None:
            value = self._fractions[num] = Fraction(num, self.denom)
        return value

    def _dual(self, name: str) -> list[int]:
        """¬s(¬x) at the chain points for the hedge s: ¬x_i = 1 - i/k is the
        chain point x_{k-i}, so s(¬x_i) is the mirrored entry."""
        return [self.denom - y for y in reversed(self.values[name])]

    def axiom_records(self) -> Iterator[Record]:
        """Every instance of the active mode's hedge axioms below 1, in
        report order: monotonicity for each hedge, the stresser chain and
        top, the depresser chain, then the dual pairs or the depresser
        bottom.  A row of instances is computed at a time, so a caller that
        stops at the first record does no more than one row's work."""
        sig, denom, table = self.signature, self.denom, self.values
        ids = _axiom_ids(sig.mode)

        def below(check: str, hedge: str, left, right, start: int = 0) -> list[Record]:
            """Instances l(x_i) ⇒ r(x_i) below 1: where l > r, 1 - (l - r)."""
            return [(check, hedge, (i,), denom - l + r) for i, (l, r) in enumerate(zip(left, right), start) if l > r]

        for name in sig.hedges:
            yield from _monotonicity_records(ids["mono"], name, table[name], denom, self.chain.k)
        for i, name in enumerate(sig.stressers, start=1):
            prev = self.diagonal if i == 1 else table[sig.stressers[i - 2]]
            yield from below(ids["schain"], name, table[name], prev)
        if sig.stressers:
            top = sig.stressers[-1]
            yield from below(ids["stop"], top, [denom], table[top][-1:], self.chain.k)  # 1 ⇒ s_n(1)
        for j, name in enumerate(sig.depressers, start=1):
            prev = self.diagonal if j == 1 else table[sig.depressers[j - 2]]
            yield from below(ids["dchain"], name, prev, table[name])
        if sig.mode is HedgeMode.DH:
            for i, name in enumerate(sig.depressers, start=1):
                yield from below(ids["dual"], name, table[name], self._dual(sig.stressers[i - 1]))
        elif sig.depressers:
            bottom = sig.depressers[-1]
            yield from below(ids["dbot"], bottom, table[bottom][:1], [0])  # d_n(0) ⇒ 0, i.e. ¬d_n(0)

    def envelopes(self) -> list[tuple[str, Sequence[int], Sequence[int]]]:
        """(hedge, lower, upper) for every hedge, stressers first: the
        envelope :func:`boundaries` describes, at the chain points."""
        sig = self.signature
        if sig.mode is not HedgeMode.DH:
            raise ValueError("boundary envelopes are defined for dual-hedge signatures only")
        table, n = self.values, len(sig.stressers)
        out = []
        for i, name in enumerate(sig.stressers, start=1):
            out.append((name, [0] * len(self.diagonal) if i == n else table[sig.stressers[i]], self.diagonal))
        for i, name in enumerate(sig.depressers, start=1):
            lower = self.diagonal if i == 1 else table[sig.depressers[i - 2]]
            out.append((name, lower, self._dual(sig.stressers[i - 1])))
        return out

    def envelope_records(self, envelopes) -> Iterator[Record]:
        """Each hedge's values outside its envelope, hedge by hedge and
        point by point, the lower bound's breach before the upper's."""
        for name, lower, upper in envelopes:
            for i, (lo, hi, y) in enumerate(zip(lower, upper, self.values[name])):
                if y < lo:
                    yield ("envelope-lower", name, (i,), y)
                if y > hi:
                    yield ("envelope-upper", name, (i,), y)

    def violations(self, records) -> Iterator[Violation]:
        """The records as Violations, with the chain's own points as inputs."""
        points = self.chain.values()
        for check, hedge, idx, num in records:
            yield Violation(check, hedge, tuple([points[p] for p in idx]), self.fraction(num))

    def lines(self, records) -> list[str]:
        """The records as the lines :meth:`Violation.machine_line` gives,
        each ending in a newline."""
        pts, vals = self.point_texts, self.value_texts
        return [
            f"VIOLATION {check} {hedge} ({pts[idx[0]]}, {pts[idx[1]]}) {vals[num]}\n"
            if len(idx) == 2
            else f"VIOLATION {check} {hedge} ({pts[idx[0]]}) {vals[num]}\n"
            for check, hedge, idx, num in records
        ]


def _monotonicity_records(check: str, hedge: str, nums: list[int], denom: int, k: int) -> Iterator[Record]:
    """Instances of (a ⇒ b) ⇒ (f(a) ⇒ f(b)) below 1, in row-major (a, b) order.

    With A_i = i·D/k and F_i = D·f(x_i) on the common denominator D, the
    instance at (x_i, x_j) is 1 - max(0, F_i - F_j - max(0, A_i - A_j))/D:
    1 - max(0, G_i - G_j)/D with G = F - A where j < i, and
    1 - max(0, F_i - F_j)/D where j >= i.
    """
    step = denom // k
    # Adjacent steps in [0, D/k] telescope: for i <= j, F_i - F_j <= 0, and
    # for i > j, F_i - F_j <= (i-j)·D/k = A_i - A_j, so no instance is below 1.
    if all(0 <= hi - lo <= step for lo, hi in zip(nums, nums[1:])):
        return
    lifted = [y - a for y, a in zip(nums, range(0, denom + 1, step))]
    for i, (y, g) in enumerate(zip(nums, lifted)):
        yield from [(check, hedge, (i, j), denom - g + h) for j, h in enumerate(lifted[:i]) if h < g]
        yield from [(check, hedge, (i, j), denom - y + z) for j, z in enumerate(nums[i:], i) if z < y]


def validate_axioms(model: HedgeModel, chain: MVChain) -> ValidationReport:
    """Exhaustively instantiate the hedge axioms' truth conditions on a chain.

    Every instance whose truth value is below 1 is reported with its
    attained value.  A failing witness is sound for [0, 1]; a pass is
    relative to the chain.
    """
    return ValidationReport(tuple(axiom_violations(model, chain)))


def axiom_violations(model: HedgeModel, chain: MVChain) -> Iterator[Violation]:
    """The violations :func:`validate_axioms` reports, in its order, one at
    a time; a caller that only asks whether the model passes stops at the
    first."""
    tables = HedgeTables(model, chain)
    yield from tables.violations(tables.axiom_records())


# ---------------------------------------------------------------------------
# Boundary envelopes for dual-hedge models


@dataclass(frozen=True)
class BoundaryRow:
    x: Fraction
    lower: Fraction
    upper: Fraction


def boundaries(model: HedgeModel, chain: MVChain) -> tuple[dict[str, tuple[BoundaryRow, ...]], ValidationReport]:
    """Tabulated lower/upper envelopes of every hedge function on the chain.

    With stressers s_1..s_n and depressers d_1..d_n: s_i lies between
    s_{i+1} and the diagonal (s_n between 0 and the diagonal), d_1 between
    the diagonal and ¬s_1(¬x), and d_i between d_{i-1} and ¬s_i(¬x).
    Assigned functions breaching their envelope are reported as violations.
    Requires a dual-hedge signature.
    """
    tables = HedgeTables(model, chain)
    envelopes = tables.envelopes()
    frac, points = tables.fraction, chain.values()
    rows = {
        name: tuple([BoundaryRow(x, frac(lo), frac(hi)) for x, lo, hi in zip(points, lower, upper)])
        for name, lower, upper in envelopes
    }
    return rows, ValidationReport(tuple(tables.violations(tables.envelope_records(envelopes))))
