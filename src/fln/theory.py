"""Fuzzy theories: a hedge signature, a graded set of special axioms and
the hedge truth functions fixed for the logic."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .mv import as_truth
from .hedges import HedgeModel
from .syntax import Formula, HedgeSignature, expand, truth_constants_in


@dataclass(frozen=True)
class Theory:
    """A graded axiom set over a fixed hedge signature.

    ``special_axioms`` maps *expanded* formulas to their grades; formulas
    absent from the mapping have grade 0.  Treat instances as immutable.
    """

    signature: HedgeSignature = field(default_factory=HedgeSignature)
    special_axioms: dict[Formula, Fraction] = field(default_factory=dict)
    hedge_model: HedgeModel = field(default_factory=HedgeModel.empty)

    def __post_init__(self) -> None:
        if self.hedge_model.signature != self.signature:
            raise ValueError("hedge model signature differs from the theory signature")

    @staticmethod
    def build(
        axioms: "list[tuple[Fraction, Formula]] | tuple[tuple[Fraction, Formula], ...]" = (),
        signature: HedgeSignature | None = None,
        hedge_model: HedgeModel | None = None,
    ) -> "Theory":
        """Assemble a theory from (grade, formula) pairs.

        Formulas are expanded; duplicates merge by maximum grade, matching
        fuzzy-set union.  Without an explicit hedge model every declared
        hedge gets the identity function.
        """
        sig = signature or (hedge_model.signature if hedge_model else HedgeSignature.empty())
        model = hedge_model or HedgeModel.identity_model(sig)
        sax: dict[Formula, Fraction] = {}
        for grade, formula in axioms:
            g = as_truth(grade)
            f = expand(formula)
            if f in sax:
                sax[f] = max(sax[f], g)
            else:
                sax[f] = g
        return Theory(sig, sax, model)

    def grade_constants(self) -> frozenset[Fraction]:
        """Truth constants relevant to this theory: those appearing inside
        the axioms plus the axiom grades themselves."""
        out: set[Fraction] = set(self.special_axioms.values())
        for f in self.special_axioms:
            out |= truth_constants_in(f)
        return frozenset(out)
