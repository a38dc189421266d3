"""Piecewise-linear hedge truth functions and their validation.

A hedge function is given by rational breakpoints from x=0 to x=1 and is
linearly interpolated in between, so monotonicity, sub/superdiagonality,
Lipschitz constants and axiom instances at chain points can all be checked
exactly.  Analytic shapes (Zadeh's square for *very*, a square-root-like
curve for *slightly*) ship as piecewise-linear presets.

Every hedge value comes from one integer kernel (:class:`HedgeKernel`),
shared by :func:`eval_hedge`, chain validation and the compiled formulas
of :mod:`fln.semantics`.  Validation on a chain {0, 1/k, ..., 1} tabulates
each declared hedge once and compares integers, building a ``Fraction``
only for a reported violation or envelope row; the pair scan of H6/DH11 is
skipped when every adjacent step of a table lies in [0, 1/k], which
already rules out any violation.
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


def _axiom_ids(mode: HedgeMode) -> dict[str, str]:
    if mode is HedgeMode.H:
        return {"mono": "H6", "schain": "H7", "stop": "H8", "dchain": "H9", "dbot": "H10"}
    return {"mono": "DH11", "schain": "DH12", "stop": "DH13", "dchain": "DH14", "dual": "DH15"}


def _tabulate(model: HedgeModel, chain: MVChain) -> tuple[int, range, dict[str, list[int]]]:
    """A denominator D = lcm(k, each hedge's den), and the chain points and
    every declared hedge's values at them, in chain order, as numerators over D."""
    k = chain.k
    kernels = {name: HedgeKernel(model.function_for(name), k) for name in model.signature.hedges}
    denom = math.lcm(k, *(kernel.den for kernel in kernels.values()))
    tables = {name: [y * (denom // kernel.den) for y in kernel.table()] for name, kernel in kernels.items()}
    return denom, range(0, denom + 1, denom // k), tables


def _dual(table: list[int], denom: int) -> list[int]:
    """¬s(¬x) at the chain points, from the table of s over ``denom``:
    ¬x_i = 1 - i/k is the chain point x_{k-i}, so s(¬x_i) is the mirrored entry."""
    return [denom - y for y in reversed(table)]


def _monotonicity_violations(
    check: str, hedge: str, nums: list[int], denom: int, chain: MVChain
) -> Iterator[Violation]:
    """Instances of (a ⇒ b) ⇒ (f(a) ⇒ f(b)) below 1, in row-major (a, b) order.

    On the common denominator D of the chain and the table, A_i = i·D/k and
    F_i = D·f(x_i) are integers.  The instance at (x_i, x_j) equals
    1 - max(0, F_i - F_j - max(0, A_i - A_j))/D.
    """
    step = denom // chain.k
    # Adjacent steps in [0, D/k] telescope: for i <= j, F_i - F_j <= 0, and
    # for i > j, F_i - F_j <= (i-j)·D/k = A_i - A_j, so no instance is below 1.
    if all(0 <= hi - lo <= step for lo, hi in zip(nums, nums[1:])):
        return
    rows = list(zip(chain.values(), nums, range(0, denom + 1, step)))
    for a, fa, aa in rows:
        for b, fb, ab in rows:
            gap = fa - fb
            if aa > ab:
                gap -= aa - ab
            if gap > 0:
                yield Violation(check, hedge, (a, b), Fraction(denom - gap, denom))


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
    sig = model.signature
    ids = _axiom_ids(sig.mode)
    values = chain.values()
    denom, diagonal, table = _tabulate(model, chain)

    def below(check: str, hedge: str, left, right, points=values) -> Iterator[Violation]:
        """Instances l(x) ⇒ r(x) below 1: where l > r, 1 - (l - r)."""
        for x, lx, rx in zip(points, left, right):
            if lx > rx:
                yield Violation(check, hedge, (x,), Fraction(denom - lx + rx, denom))

    for name in sig.hedges:
        yield from _monotonicity_violations(ids["mono"], name, table[name], denom, chain)
    for i, name in enumerate(sig.stressers, start=1):
        prev = diagonal if i == 1 else table[sig.stressers[i - 2]]
        yield from below(ids["schain"], name, table[name], prev)
    if sig.stressers:
        top = sig.stressers[-1]
        yield from below(ids["stop"], top, [denom], table[top][-1:], (ONE,))  # 1 ⇒ s_n(1)
    for j, name in enumerate(sig.depressers, start=1):
        prev = diagonal if j == 1 else table[sig.depressers[j - 2]]
        yield from below(ids["dchain"], name, prev, table[name])
    if sig.mode is HedgeMode.DH:
        for i, name in enumerate(sig.depressers, start=1):
            yield from below(ids["dual"], name, table[name], _dual(table[sig.stressers[i - 1]], denom))
    elif sig.depressers:
        bottom = sig.depressers[-1]
        yield from below(ids["dbot"], bottom, table[bottom][:1], [0], (ZERO,))  # d_n(0) ⇒ 0, i.e. ¬d_n(0)


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
    sig = model.signature
    if sig.mode is not HedgeMode.DH:
        raise ValueError("boundary envelopes are defined for dual-hedge signatures only")
    values = chain.values()
    denom, diagonal, table = _tabulate(model, chain)
    tables: dict[str, tuple[BoundaryRow, ...]] = {}
    vs: list[Violation] = []
    n = len(sig.stressers)

    def envelope(name: str, lower: Sequence[int], upper: Sequence[int]) -> None:
        rows = []
        for x, lo, hi, y in zip(values, lower, upper, table[name]):
            rows.append(BoundaryRow(x, Fraction(lo, denom), Fraction(hi, denom)))
            if y < lo:
                vs.append(Violation("envelope-lower", name, (x,), Fraction(y, denom)))
            if y > hi:
                vs.append(Violation("envelope-upper", name, (x,), Fraction(y, denom)))
        tables[name] = tuple(rows)

    for i, name in enumerate(sig.stressers, start=1):
        lower = [0] * len(values) if i == n else table[sig.stressers[i]]
        envelope(name, lower, diagonal)
    for i, name in enumerate(sig.depressers, start=1):
        lower = diagonal if i == 1 else table[sig.depressers[i - 2]]
        envelope(name, lower, _dual(table[sig.stressers[i - 1]], denom))

    return tables, ValidationReport(tuple(vs))
