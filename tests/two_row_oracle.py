"""The two-row diagram lemmas judged on one diagram at a time.

This is the tests' oracle for the grouped chase of the ``exactness`` tag
(``suite._two_row_diagram_items``): ``test_suite._pairwise_chase`` finds
the commuting diagrams pair by pair and asks ``verify_two_row_diagram``
for the verdict of each case.
"""
from __future__ import annotations

from semiflat.errors import NotCommutative
from semiflat.homology import classify_stage, morphism_profile
from semiflat.record import Record
from semiflat.structures import Morphism, compose


def _require_commutes(left: Morphism, right: Morphism, tag: str):
    # tuples compare their items by identity before equality
    if (left.source, left.target) != (right.source, right.target):
        raise NotCommutative(tag, "path endpoints differ")
    for x in range(left.source.size):
        if left.map[x] != right.map[x]:
            raise NotCommutative((tag, x), "paths disagree")


class TwoRowReport(Record):
    case_1a: bool | None
    case_1b: bool | None
    case_2a: bool | None
    case_2b: bool | None

    @property
    def holds(self) -> bool:
        return all(v is not False for v in (self.case_1a, self.case_1b,
                                            self.case_2a, self.case_2b))


def verify_two_row_diagram(f1: Morphism, g1: Morphism, f2: Morphism, g2: Morphism,
                           a1: Morphism, a2: Morphism, a3: Morphism,
                           cancellative_maps: bool = False) -> TwoRowReport:
    """Conclusions of the two-row diagram chase, case by case.

    Each case evaluates to True (hypotheses hold, conclusion holds), False
    (hypotheses hold, conclusion fails) or None (hypotheses not met).  The
    case needing cancellativity side conditions is only evaluated when the
    caller vouches for them.
    """
    _require_commutes(compose(a2, f1), compose(f2, a1), "left square")
    _require_commutes(compose(a3, g1), compose(g2, a2), "right square")
    stage2 = classify_stage(f2, g2)
    p1, p2 = morphism_profile(a1), morphism_profile(a2)
    g1_prof = morphism_profile(g1)
    zero1 = all(g1.map[f1.map[x]] == g1.target.zero for x in range(f1.source.size))
    zero2 = all(g2.map[f2.map[x]] == g2.target.zero for x in range(f2.source.size))
    stage1 = classify_stage(f1, g1)

    case_1a = case_1b = case_2a = case_2b = None
    if stage2.quasi_exact and g1.surjective and a1.surjective:
        if zero1 and a2.injective:
            case_1a = a3.injective
        if a3.surjective:
            case_1b = p2.semi_epi and (not p2.i_uniform or a2.surjective)
    if stage1.semi_exact and f2.injective:
        if cancellative_maps and g1_prof.k_uniform and a1.injective and a3.injective:
            case_2a = a2.injective
        ker_a3 = all(a3.map[x] != a3.target.zero
                     for x in range(a3.source.size) if x != a3.source.zero)
        if zero2 and ker_a3 and a2.surjective:
            f1_prof = morphism_profile(f1)
            ok = p1.semi_epi
            if p1.i_uniform or f1_prof.i_uniform:
                ok = ok and a1.surjective
            case_2b = ok
    return TwoRowReport(case_1a, case_1b, case_2a, case_2b)
