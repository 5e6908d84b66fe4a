"""Assembly of Bredon homology (coefficients in the complex representation
ring) and the K-groups of the classifying space for proper actions.

For a presentation whose group has cyclic torsion structure:

* H0 is free abelian of rank equal to the sum of the torsion-subgroup
  orders (the number of irreducible characters of each Z/n), or Z when
  there is no torsion;
* H1 is the abelianization of G modulo the subgroup generated by torsion,
  computed from the root presentation (or by killing declared torsion
  generators);
* H2, when a 2-dimensional classifying model is certified, is the free
  kernel of the exponent-sum matrix;
* K0 = H0 + H2 (split extension) and K1 = H1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CombinatorDegreeError,
    NotHempelFormError,
    NotTwoDimensionalError,
)
from .free_group import Word, are_conjugate
from .hempel import check_hempel, hempel_context
from .int_linalg import AbelianGroupInvariants, cokernel_invariants, kernel_rank
from .presentation import (
    DECLARED,
    DERIVE_FROM_ROOTS,
    Presentation,
    exponent_matrix,
    kill_torsion_presentation,
    root_presentation,
)

HIGHER_ALL_ZERO = "ALL_ZERO"
HIGHER_EQUALS_H_BG = "EQUALS_H_BG"

INTERPRETATION_BREDON_H0 = "BREDON_H0"
INTERPRETATION_LITERAL = "LITERAL_RC_G"

SOURCE_ONE_RELATOR = "one-relator"
SOURCE_HEMPEL = "hempel"
SOURCE_USER_ASSERTED = "user-asserted"

HIGHER_NOTE = "H_i = H_i(BG-bar; Z) for i >= 2, not computed"


@dataclass(frozen=True)
class TorsionDatum:
    """One relator's contribution to the torsion bookkeeping.

    `order` is the order of the finite cyclic subgroup generated by the image
    of the relator's root; order 1 marks a torsion-free contribution.
    """

    relator_index: int
    root: Word
    order: int


def torsion_data(p: Presentation) -> list[TorsionDatum]:
    """Roots and torsion orders per relator, honouring the torsion mode."""
    declared = p.declared_orders if p.torsion_mode == DECLARED else {}
    data = []
    for i, rel in enumerate(p.relators):
        root, log = rel.root()
        if p.torsion_mode == DECLARED:
            order = declared.get(i, 1)
        else:
            order = log
        data.append(TorsionDatum(i, root, order))
    return data


def bredon_h0(data: list[TorsionDatum]) -> AbelianGroupInvariants:
    """Free abelian on the irreducible characters of the torsion subgroups.

    R_C(Z/n) has underlying group Z^n, so each torsion datum of order n > 1
    contributes rank n; with no torsion at all the colimit is Z.
    """
    total = sum(d.order for d in data if d.order > 1)
    return AbelianGroupInvariants.free(total if total else 1)


def bredon_h1(p: Presentation) -> AbelianGroupInvariants:
    """Abelianization of G/Tor(G).

    Tor(G) is the normal closure of the relator roots (respectively of the
    declared torsion generators), so the quotient is presented by replacing
    relators with their roots (respectively killing the declared generators).
    """
    if p.torsion_mode == DECLARED:
        killed = kill_torsion_presentation(p)
    else:
        killed = root_presentation(p)
    return cokernel_invariants(exponent_matrix(killed))


def detect_asphericity(p: Presentation, assert_aspherical: bool = False) -> str | None:
    """Which hypothesis certifies a 2-dimensional classifying model, if any.

    Single-relator presentations qualify by Lyndon's identity theorem; a
    two-relator surface-type pair qualifies when the second relator passes the
    Hempel conditions; anything else needs a user assertion.
    """
    if len(p.relators) <= 1:
        return SOURCE_ONE_RELATOR
    if p.torsion_mode == DERIVE_FROM_ROOTS and len(p.relators) == 2:
        try:
            ctx, r = hempel_context(p)
        except NotHempelFormError:
            ctx = None
        if ctx is not None and check_hempel(r, ctx).is_hempel:
            return SOURCE_HEMPEL
    if assert_aspherical:
        return SOURCE_USER_ASSERTED
    return None


def bredon_h2(p: Presentation, *, assert_aspherical: bool = False) -> AbelianGroupInvariants:
    """Free kernel of the exponent matrix; needs a certified 2-dim model."""
    source = detect_asphericity(p, assert_aspherical)
    if source is None:
        raise NotTwoDimensionalError(
            "no certified 2-dimensional model: H2 equals H_2(BG-bar; Z), not computed"
        )
    return AbelianGroupInvariants.free(kernel_rank(exponent_matrix(p)))


@dataclass(frozen=True)
class BredonResult:
    h0: AbelianGroupInvariants
    h1: AbelianGroupInvariants
    h2: AbelianGroupInvariants | None
    higher: str
    note: str
    aspherical_source: str | None
    torsion: tuple[TorsionDatum, ...]
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "H0": self.h0.to_json(),
            "H1": self.h1.to_json(),
            "H2": self.h2.to_json() if self.h2 is not None else None,
            "higher": self.higher,
            "note": self.note,
            "aspherical_source": self.aspherical_source,
            "torsion": [
                {"rel": d.relator_index, "root": str(d.root), "order": d.order}
                for d in self.torsion
            ],
            "warnings": list(self.warnings),
        }


def _conjugate_root_warnings(data: list[TorsionDatum]) -> list[str]:
    # Conjugate roots in the free group may present the same torsion subgroup
    # of G; conjugacy in G itself is undecidable, so this is flagged, not fixed.
    torsion = [d for d in data if d.order > 1]
    warnings = []
    for a in range(len(torsion)):
        for b in range(a + 1, len(torsion)):
            da, db = torsion[a], torsion[b]
            if are_conjugate(da.root, db.root) or are_conjugate(
                da.root, db.root.inverse()
            ):
                warnings.append(
                    f"roots of relators {da.relator_index} and {db.relator_index}"
                    " are conjugate in the free group; their torsion subgroups may"
                    " coincide and would then be double-counted"
                )
    return warnings


def bredon_full(p: Presentation, *, assert_aspherical: bool = False) -> BredonResult:
    """H0, H1, H2 and the higher-degree verdict for one presentation."""
    data = torsion_data(p)
    h0 = bredon_h0(data)
    h1 = bredon_h1(p)
    source = detect_asphericity(p, assert_aspherical)
    warnings = _conjugate_root_warnings(data)
    if source is not None:
        h2 = AbelianGroupInvariants.free(kernel_rank(exponent_matrix(p)))
        higher = HIGHER_ALL_ZERO
        note = ""
        if source == SOURCE_USER_ASSERTED:
            warnings.append("asphericity was asserted by the user, not verified")
    else:
        h2 = None
        higher = HIGHER_EQUALS_H_BG
        note = HIGHER_NOTE
    return BredonResult(
        h0=h0,
        h1=h1,
        h2=h2,
        higher=higher,
        note=note,
        aspherical_source=source,
        torsion=tuple(data),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class KTheoryResult:
    k0: AbelianGroupInvariants
    k1: AbelianGroupInvariants
    h0_interpretation: str

    def to_json(self) -> dict:
        return {
            "K0": self.k0.to_json(),
            "K1": self.k1.to_json(),
            "h0_interpretation": self.h0_interpretation,
        }


def ktheory(b: BredonResult, interpretation: str = INTERPRETATION_BREDON_H0) -> KTheoryResult:
    """K0 and K1 of the classifying space for proper actions.

    Needs the 2-dimensional model (higher homology all zero): then K1 = H1
    and K0 splits as the degree-0 term plus H2.  The degree-0 term is the
    Bredon H0; requesting the literal representation-ring reading computes
    the same underlying group and records the interpretation in the result.
    """
    if interpretation not in (INTERPRETATION_BREDON_H0, INTERPRETATION_LITERAL):
        raise ValueError(f"unknown interpretation {interpretation!r}")
    if b.higher != HIGHER_ALL_ZERO or b.h2 is None:
        raise NotTwoDimensionalError(
            "K-groups need the 2-dimensional model; higher homology is not known to vanish"
        )
    return KTheoryResult(
        k0=b.h0.direct_sum(b.h2),
        k1=b.h1,
        h0_interpretation=interpretation,
    )


def one_relator_product_homology(
    ha: list[AbelianGroupInvariants],
    hb: list[AbelianGroupInvariants],
    i: int,
) -> AbelianGroupInvariants:
    """Degree-i homology of a one-relator product from the factors, i > 2.

    In degrees above the surgery dimension the homology is the direct sum of
    the factors' homology; lists are indexed from degree 0 and missing
    degrees mean the trivial group.
    """
    if i <= 2:
        raise CombinatorDegreeError(
            "the direct-sum formula only applies in degrees i > 2"
        )
    a = ha[i] if i < len(ha) else AbelianGroupInvariants.trivial()
    b = hb[i] if i < len(hb) else AbelianGroupInvariants.trivial()
    return a.direct_sum(b)
