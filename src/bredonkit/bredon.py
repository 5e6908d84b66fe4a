"""Assembly of Bredon homology (coefficients in the complex representation
ring) and the K-groups of the classifying space for proper actions.

For a presentation whose group has cyclic torsion structure:

* `torsion_data` reads each relator's root once; its torsion order is the
  exponent of the relator over that root;
* H0 is free abelian of rank equal to the sum of the torsion-subgroup
  orders (the number of irreducible characters of each Z/n), or Z when
  there is no torsion;
* H1 and H2 are read off one matrix, d2 of the subdivided presentation
  complex: one row per relator, the exponent vector of its root (a relator
  that is not a proper power is its own root).  H1 is its cokernel,
  the abelianization of G modulo the subgroup generated by torsion; H2,
  when a 2-dimensional classifying model is certified, is its free kernel;
* K0 = H0 + H2 (split extension) and K1 = H1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CombinatorDegreeError,
    NotHempelFormError,
    NotTwoDimensionalError,
)
from .free_group import Word, _conjugacy_class_key, _cyclic_span
from .hempel import check_hempel, hempel_context
from .int_linalg import AbelianGroupInvariants, cokernel_invariants
from .presentation import Presentation, exponent_matrix

HIGHER_ALL_ZERO = "ALL_ZERO"
HIGHER_EQUALS_H_BG = "EQUALS_H_BG"

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
    """Root and torsion order of every relator.

    The order is the exponent of the relator over its root: in an aspherical
    presentation a relator s^n, s not a proper power, makes s of order n.
    Declared torsion restates such an order and `Presentation` has checked
    it, so it is not read here.
    """
    return [TorsionDatum(i, *rel.root()) for i, rel in enumerate(p.relators)]


def detect_asphericity(p: Presentation) -> str | None:
    """Which hypothesis certifies a 2-dimensional classifying model, if any.

    Single-relator presentations qualify by Lyndon's identity theorem; a
    two-relator surface-type pair qualifies when the second relator passes the
    Hempel conditions; anything else has no certificate.
    """
    if len(p.relators) <= 1:
        return SOURCE_ONE_RELATOR
    if len(p.relators) == 2:
        try:
            ctx, r = hempel_context(p)
        except NotHempelFormError:
            ctx = None
        if ctx is not None and check_hempel(r, ctx).is_hempel:
            return SOURCE_HEMPEL
    return None


@dataclass(frozen=True)
class BredonResult:
    """H2 is computed exactly when `aspherical_source` names a certified (or
    asserted) 2-dimensional model; the higher-degree verdict follows from it."""

    h0: AbelianGroupInvariants
    h1: AbelianGroupInvariants
    h2: AbelianGroupInvariants | None
    aspherical_source: str | None
    torsion: tuple[TorsionDatum, ...]
    warnings: tuple[str, ...]

    @property
    def higher(self) -> str:
        return HIGHER_EQUALS_H_BG if self.aspherical_source is None else HIGHER_ALL_ZERO

    @property
    def note(self) -> str:
        return HIGHER_NOTE if self.aspherical_source is None else ""

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
    # "Conjugate to b or to b^-1" is an equivalence relation, and the shared
    # class key names its classes: one pass groups the roots, one warning per
    # class.  Only cores that share their length with another need that key.
    by_length: dict[int, list[tuple[int, tuple]]] = {}
    for d in data:
        if d.order > 1:
            i, j = _cyclic_span(d.root.code)
            by_length.setdefault(j - i, []).append((d.relator_index, d.root.code))
    classes: dict[tuple, list[int]] = {}
    for same_length in by_length.values():
        if len(same_length) > 1:
            for index, code in same_length:
                classes.setdefault(_conjugacy_class_key(code), []).append(index)
    return [
        f"roots of relators {', '.join(map(str, members[:-1]))} and {members[-1]}"
        " are conjugate in the free group; their torsion subgroups may"
        " coincide and would then be double-counted"
        for members in sorted(classes.values())
        if len(members) > 1
    ]


def bredon_full(p: Presentation, *, assert_aspherical: bool = False) -> BredonResult:
    """H0, H1, H2 and the higher-degree verdict for one presentation.

    H1 and H2 come from one elimination of d2 (see the module docstring).
    """
    data = torsion_data(p)
    h0 = AbelianGroupInvariants.free(sum(d.order for d in data if d.order > 1) or 1)
    d2 = exponent_matrix(p.alphabet, [d.root for d in data])
    h1 = cokernel_invariants(d2)
    source = detect_asphericity(p) or (SOURCE_USER_ASSERTED if assert_aspherical else None)
    warnings = _conjugate_root_warnings(data)
    if source is not None:
        # rank(d2) = cols - h1.rank; the kernel of an integer map is free.
        h2 = AbelianGroupInvariants.free(d2.rows - (d2.cols - h1.rank))
        if source == SOURCE_USER_ASSERTED:
            warnings.append("asphericity was asserted by the user, not verified")
    else:
        h2 = None
    return BredonResult(
        h0=h0,
        h1=h1,
        h2=h2,
        aspherical_source=source,
        torsion=tuple(data),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class KTheoryResult:
    k0: AbelianGroupInvariants
    k1: AbelianGroupInvariants

    def to_json(self) -> dict:
        return {"K0": self.k0.to_json(), "K1": self.k1.to_json()}


def ktheory(b: BredonResult) -> KTheoryResult:
    """K0 and K1 of the classifying space for proper actions.

    Needs the 2-dimensional model (higher homology all zero, so H2 is
    known): then K1 = H1 and K0 splits as the Bredon H0 plus H2.
    """
    if b.h2 is None:
        raise NotTwoDimensionalError(
            "K-groups need the 2-dimensional model; higher homology is not known to vanish"
        )
    return KTheoryResult(k0=b.h0.direct_sum(b.h2), k1=b.h1)


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
