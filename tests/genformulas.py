"""Seeded random term/formula generators, and the Fraction hedge oracle,
shared by the test modules.

Symbol arities are fixed (P/0, Q/0, R/1, S/2, f/1, g/2) so any generated
formula parses back under the same implicit declarations.
"""

import random
from bisect import bisect_right
from fractions import Fraction

from fln.syntax import (
    Apply,
    Conj,
    Const,
    Disj,
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
)

SIG_H = HedgeSignature(HedgeMode.H, ("s1", "s2"), ("d1",))
SIG_DH = HedgeSignature(HedgeMode.DH, ("very", "extremely"), ("rather", "slightly"))

CONST_POOL = (
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(3, 10),
    Fraction(7, 10),
    Fraction(2, 5),
)

VARS = ("x", "y", "z")


def random_term(rng: random.Random, depth: int = 1):
    r = rng.random()
    if depth <= 0 or r < 0.5:
        return Var(rng.choice(VARS))
    if r < 0.75:
        return Const(rng.choice(("u1", "u2")))
    if r < 0.9:
        return Apply("f", (random_term(rng, depth - 1),))
    return Apply("g", (random_term(rng, depth - 1), random_term(rng, depth - 1)))


def random_atom(rng: random.Random):
    r = rng.random()
    if r < 0.35:
        return Pred(rng.choice(("P", "Q")))
    if r < 0.6:
        return Pred("R", (random_term(rng),))
    if r < 0.75:
        return Pred("S", (random_term(rng), random_term(rng)))
    return TruthConst(rng.choice(CONST_POOL))


_KINDS = (
    "imp", "imp", "conj", "disj", "min", "max", "iff",
    "neg", "hedge", "forall", "exists", "power", "multiple", "atom",
)


def random_formula(rng: random.Random, signature: HedgeSignature = SIG_H, depth: int = 3):
    if depth <= 0:
        return random_atom(rng)
    kind = rng.choice(_KINDS)
    sub = lambda: random_formula(rng, signature, depth - 1)
    if kind == "imp":
        return Imp(sub(), sub())
    if kind == "conj":
        return Conj(sub(), sub())
    if kind == "disj":
        return Disj(sub(), sub())
    if kind == "min":
        return Min(sub(), sub())
    if kind == "max":
        return Max(sub(), sub())
    if kind == "iff":
        return Iff(sub(), sub())
    if kind == "neg":
        return Neg(sub())
    if kind == "hedge":
        hedges = signature.hedges
        if hedges:
            return HedgeApp(rng.choice(hedges), sub())
        return Neg(sub())
    if kind == "forall":
        return Forall(rng.choice(VARS), sub())
    if kind == "exists":
        return Exists(rng.choice(VARS), sub())
    if kind == "power":
        return Power(sub(), rng.randint(1, 3))
    if kind == "multiple":
        return Multiple(rng.randint(1, 3), sub())
    return random_atom(rng)


def reference_eval_hedge(f, a: Fraction) -> Fraction:
    """Exact linear interpolation of the hedge function ``f`` at ``a`` on
    ``Fraction``s: the evaluator the integer hedge kernel replaced, kept as
    an oracle that shares no code with it."""
    if a < 0 or a > 1:
        raise ValueError(f"hedge argument {a} outside [0, 1]")
    bps = f.breakpoints
    i = bisect_right(tuple(x for x, _ in bps), a) - 1
    x0, y0 = bps[i]
    if a == x0:
        return y0
    x1, y1 = bps[i + 1]
    return y0 + (a - x0) * (y1 - y0) / (x1 - x0)
