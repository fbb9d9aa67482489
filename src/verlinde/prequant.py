"""Surface data, the finite 2-group Gamma, and pre-quantization choices.

A surface input is a level k, a genus h and boundary labels m_1..m_s with
0 <= m_j <= k; the label m_j = k/2 marks the trace-zero conjugacy class
(the star class).  The group Gamma sits inside Z^(s+2h) for the center
Z = {e, c}: its elements are bit vectors (1 = c) that vanish on non-star
boundary slots and have even parity across the boundary slots.  So
|Gamma| = 2^(2h+r-1) when the star count r >= 1 and 2^(2h) otherwise.

Pre-quantization choices are homomorphisms psi: Gamma -> {+-1}, encoded as
bit functionals psi(gamma) = (-1)^<psi_bits, gamma>.  Two bit vectors give
the same choice iff they agree on Gamma; the canonical representative
zeroes every coordinate the constraints force to act trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .fusion_ring import _check_level

__all__ = [
    "SurfaceData",
    "GammaElement",
    "PrequantChoice",
    "AdmissibilityReport",
    "ConditionCheck",
    "NotAdmissible",
    "GroupTooLarge",
    "check_prequantization",
    "require_admissible",
    "enumerate_gamma",
    "enumerate_choices",
    "canonicalize_choice",
    "phase_factor",
    "star_sign",
    "double_sign",
    "GAMMA_SIZE_CAP",
]

GAMMA_SIZE_CAP = 2**20


class NotAdmissible(ValueError):
    """The surface carries no level-k pre-quantization (or a phase needs one)."""


class GroupTooLarge(ValueError):
    """Gamma enumeration would exceed the configured size cap."""


def _check_bits(bits: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(map(int, bits))
    if out.count(0) + out.count(1) != len(out):
        raise ValueError(f"{what} must consist of 0/1 entries, got {bits!r}")
    return out


@dataclass(frozen=True)
class SurfaceData:
    """Genus h surface with boundary labels m_1..m_s at a fixed level."""

    level: int
    genus: int
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        k = _check_level(self.level)
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        labels = tuple(int(m) for m in self.labels)
        for m in labels:
            if not 0 <= m <= k:
                raise ValueError(f"label {m} out of range 0..{k}")
        object.__setattr__(self, "level", k)
        object.__setattr__(self, "genus", int(self.genus))
        object.__setattr__(self, "labels", labels)

    @property
    def num_boundary(self) -> int:
        return len(self.labels)

    @property
    def num_slots(self) -> int:
        return len(self.labels) + 2 * self.genus

    # Derived data, computed once per instance; cached_property stores it in
    # the instance __dict__, so equality, hash and repr still see the fields
    # (and a pickled surface carries it along).

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The field hash, taken once: every result cache is keyed by surface."""
        return hash((self.level, self.genus, self.labels))

    @cached_property
    def star_slots(self) -> tuple[int, ...]:
        """Boundary slots carrying the trace-zero class, i.e. 2*m_j = k."""
        return tuple(j for j, m in enumerate(self.labels) if 2 * m == self.level)

    @cached_property
    def star_count(self) -> int:
        return len(self.star_slots)

    @cached_property
    def nonstar_labels(self) -> tuple[int, ...]:
        return tuple(m for m in self.labels if 2 * m != self.level)

    @cached_property
    def admissibility(self) -> "AdmissibilityReport":
        """The ``check_prequantization`` report of this surface."""
        return check_prequantization(self)

    @cached_property
    def _admissible(self) -> bool:
        """Whether ``admissibility`` holds, tested as integer conditions
        without building the report: (ii) and the star conditions.
        Condition (i) holds by construction."""
        return (self.genus == 0 or self.level % 2 == 0) \
            and _star_admissible(self.level, self.star_count)

    def gamma_size(self) -> int:
        r = self.star_count
        return 2 ** (2 * self.genus + r - 1) if r >= 1 else 2 ** (2 * self.genus)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "genus": self.genus, "labels": list(self.labels)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SurfaceData":
        return cls(int(data["level"]), int(data["genus"]),
                   tuple(int(m) for m in data.get("labels", ())))


@dataclass(frozen=True)
class GammaElement:
    """Element of Gamma as a bit vector over the s+2h slots (1 means c)."""

    bits: tuple[int, ...]
    star_slots: tuple[int, ...]
    num_boundary: int

    @classmethod
    def _trusted(cls, bits: tuple[int, ...], star_slots: tuple[int, ...],
                 num_boundary: int) -> "GammaElement":
        """An element from bits already known to satisfy the invariants (they
        were generated, or combined from valid elements); skips the checks."""
        self = object.__new__(cls)
        vars(self).update(bits=bits, star_slots=star_slots, num_boundary=num_boundary)
        return self

    def __post_init__(self):
        bits = _check_bits(self.bits, "gamma bits")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "star_slots", tuple(int(j) for j in self.star_slots))
        stars = set(self.star_slots)
        for j in range(self.num_boundary):
            if j not in stars and bits[j]:
                raise ValueError(f"slot {j} is not a star class, bit must be 0")
        if sum(bits[:self.num_boundary]) % 2:
            raise ValueError("boundary bits must have even parity")

    @classmethod
    def identity(cls, surface: SurfaceData) -> "GammaElement":
        return cls((0,) * surface.num_slots, surface.star_slots, surface.num_boundary)

    @classmethod
    def from_surface(cls, surface: SurfaceData, bits: Sequence[int]) -> "GammaElement":
        return cls(tuple(bits), surface.star_slots, surface.num_boundary)

    @property
    def weight(self) -> int:
        """Number of c entries, l(gamma)."""
        return sum(self.bits)

    @property
    def star_weight(self) -> int:
        """Number of c entries on boundary slots (even by the invariant)."""
        return sum(self.bits[:self.num_boundary])

    @property
    def double_pairs(self) -> tuple[tuple[int, int], ...]:
        s = self.num_boundary
        tail = self.bits[s:]
        return tuple((tail[2 * i], tail[2 * i + 1]) for i in range(len(tail) // 2))

    def is_identity(self) -> bool:
        return not any(self.bits)

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        if (self.star_slots, self.num_boundary) != (other.star_slots, other.num_boundary):
            raise ValueError("gamma elements belong to different groups")
        return GammaElement._trusted(tuple(a ^ b for a, b in zip(self.bits, other.bits)),
                                     self.star_slots, self.num_boundary)


@dataclass(frozen=True)
class PrequantChoice:
    """Pre-quantization label: psi(gamma) = (-1)^<psi_bits, gamma bits>."""

    psi_bits: tuple[int, ...]

    @classmethod
    def _trusted(cls, psi_bits: tuple[int, ...]) -> "PrequantChoice":
        """A choice from a tuple of 0/1 ints already known to be valid (it
        was generated); skips the checks."""
        self = object.__new__(cls)
        vars(self)["psi_bits"] = psi_bits
        return self

    def __post_init__(self):
        object.__setattr__(self, "psi_bits", _check_bits(self.psi_bits, "psi bits"))

    def psi(self, gamma: GammaElement) -> int:
        if len(self.psi_bits) != len(gamma.bits):
            raise ValueError("psi functional and gamma have different slot counts")
        return -1 if sum(p & b for p, b in zip(self.psi_bits, gamma.bits)) % 2 else 1

    def is_trivial(self) -> bool:
        return not any(self.psi_bits)

    def to_json_dict(self) -> dict:
        return {"psi_bits": list(self.psi_bits)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PrequantChoice":
        return cls(tuple(int(b) for b in data["psi_bits"]))


@dataclass(frozen=True)
class ConditionCheck:
    code: str
    description: str
    holds: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    surface: SurfaceData
    conditions: tuple[ConditionCheck, ...]

    @property
    def admissible(self) -> bool:
        return all(c.holds for c in self.conditions)

    @property
    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.conditions if not c.holds)

    def failure_message(self) -> str:
        return _failure_message(self.conditions)

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.to_json_dict(),
            "admissible": self.admissible,
            "conditions": [
                {"code": c.code, "description": c.description, "holds": c.holds}
                for c in self.conditions
            ],
        }


def _failure_message(conditions: Iterable[ConditionCheck]) -> str:
    return "; ".join(f"condition {c.code} requires {c.description}"
                     for c in conditions if not c.holds)


def _star_conditions(level: int, star_count: int) -> tuple[ConditionCheck, ...]:
    """Conditions (iii) and (ii'), the ones r star labels impose on k."""
    k, r = level, star_count
    return (
        ConditionCheck("(iii)", "k in 4N when the star count is >= 3",
                       r < 3 or k % 4 == 0),
        ConditionCheck("(ii')", "k in 2N when the star count is >= 1",
                       r < 1 or k % 2 == 0),
    )


def check_prequantization(surface: SurfaceData) -> AdmissibilityReport:
    """Decide whether the surface data admits a level-k pre-quantization.

    The conditions: (i) every label lies in 0..k, (ii) positive genus needs
    k even, (iii) three or more star labels need k divisible by 4; a single
    star label already forces k even, which holds automatically since the
    star condition 2*m = k has no solution at odd k.
    """
    k, h = surface.level, surface.genus
    conditions = (
        ConditionCheck("(i)", f"all labels in 0..{k}",
                       all(0 <= m <= k for m in surface.labels)),
        ConditionCheck("(ii)", "k in 2N when genus >= 1",
                       h == 0 or k % 2 == 0),
    ) + _star_conditions(k, surface.star_count)
    return AdmissibilityReport(surface, conditions)


def require_admissible(surface: SurfaceData) -> None:
    """Raise NotAdmissible unless the surface admits a pre-quantization.

    Tests the boolean the surface computed once (``SurfaceData._admissible``),
    so every path that checks the same surface shares one evaluation; the
    report (``SurfaceData.admissibility``) is built only for the message.
    """
    if not surface._admissible:
        raise NotAdmissible(f"inadmissible: {surface.admissibility.failure_message()}")


def _star_admissible(level: int, star_count: int) -> bool:
    """Conditions (iii) and (ii') of ``_star_conditions``, as one boolean."""
    return (star_count < 3 or level % 4 == 0) and (star_count < 1 or level % 2 == 0)


def _require_star_admissible(level: int, star_count: int) -> None:
    """Raise NotAdmissible unless r star labels alone are admissible at
    level k, with the wording of ``require_admissible``.  (At odd k no
    surface carries a star label, so this is not a surface's report.)  The
    conditions are tested as booleans; the checks and their message are
    built only on failure."""
    if not _star_admissible(level, star_count):
        raise NotAdmissible(
            f"inadmissible: {_failure_message(_star_conditions(level, star_count))}")


def _star_patterns(r: int) -> Iterator[tuple[int, ...]]:
    # even-parity bit patterns, all-zeros first (lexicographic order)
    for pat in product((0, 1), repeat=r):
        if sum(pat) % 2 == 0:
            yield pat


def enumerate_gamma(surface: SurfaceData, cap: int = GAMMA_SIZE_CAP) -> list[GammaElement]:
    """All elements of Gamma, the identity first."""
    size = surface.gamma_size()
    if size > cap:
        raise GroupTooLarge(f"|Gamma| = {size} exceeds cap {cap}")
    stars = surface.star_slots
    s, h = surface.num_boundary, surface.genus
    out = []
    for star_pat in _star_patterns(len(stars)):
        boundary = [0] * s
        for j, bit in zip(stars, star_pat):
            boundary[j] = bit
        for double_bits in product((0, 1), repeat=2 * h):
            out.append(GammaElement._trusted(tuple(boundary) + double_bits, stars, s))
    return out


def canonicalize_choice(surface: SurfaceData, psi_bits: Sequence[int]) -> PrequantChoice:
    """Reduce psi_bits modulo the annihilator of Gamma.

    Bits on non-star boundary slots never see a 1 in Gamma, and flipping all
    star-slot bits at once changes nothing by the parity constraint, so we
    zero the former and force the first star bit to 0.
    """
    bits = list(_check_bits(psi_bits, "psi bits"))
    if len(bits) != surface.num_slots:
        raise ValueError(f"need {surface.num_slots} psi bits, got {len(bits)}")
    stars = surface.star_slots
    star_set = set(stars)
    for j in range(surface.num_boundary):
        if j not in star_set:
            bits[j] = 0
    if stars and bits[stars[0]]:
        for j in stars:
            bits[j] ^= 1
    return PrequantChoice(tuple(bits))


def _classify(surface: SurfaceData,
              choice: PrequantChoice) -> tuple[PrequantChoice, int, int]:
    """The canonical form of a PrequantChoice on ``surface`` and its class
    (a, d), as ``_canonical_class`` describes; the surface is admissible."""
    bits, s, stars = choice.psi_bits, surface.num_boundary, surface.star_slots
    if (len(bits) != surface.num_slots or (stars and bits[stars[0]])
            or sum(bits[:s]) != sum(map(bits.__getitem__, stars))):
        choice = canonicalize_choice(surface, bits)
        bits = choice.psi_bits
    # canonical: the boundary bits set are star bits
    return choice, sum(bits[:s]), sum(map(or_, bits[s::2], bits[s + 1::2]))


# The last (surface, choice, class) that ``_canonical_class`` returned.  The
# three paths of one request ask for the same pair in a row, so one slot
# classifies each request once.  It holds both objects, so neither id can
# be reused while it is compared by identity, and both are immutable; it is
# replaced as one tuple, never updated in place.
_last_class: tuple = (None, None, None)


def _canonical_class(surface: SurfaceData,
                     choice: PrequantChoice | None) -> tuple[PrequantChoice, int, int]:
    """The canonical form of ``choice`` on an admissible surface, and its
    class (a, d): a psi bits set on star slots, and d doubles with
    phi != (0, 0).  The phases, and so every quantization path's result,
    depend on the choice only through this class.

    Raises NotAdmissible unless the surface is admissible.  None is the
    trivial choice.  A PrequantChoice that is already canonical (one bit
    per slot, none on a non-star boundary slot, first star bit 0) is
    returned as it is: its bits were checked to be 0/1 when it was built.
    Any other goes through ``canonicalize_choice``, which raises for a wrong
    length; anything that is not a PrequantChoice raises TypeError.  Both
    checks run on every call; only then is the last pair classified read
    back (``_last_class``), so a repeated request is classified once.
    """
    global _last_class
    require_admissible(surface)
    if choice is None:
        return PrequantChoice._trusted((0,) * surface.num_slots), 0, 0
    if not isinstance(choice, PrequantChoice):
        raise TypeError(f"choice must be a PrequantChoice or None, got {choice!r}")
    last_surface, last_choice, last = _last_class
    if last_surface is surface and last_choice is choice:
        return last
    result = _classify(surface, choice)
    _last_class = (surface, choice, result)
    return result


def enumerate_choices(surface: SurfaceData) -> list[PrequantChoice]:
    """Canonical representatives of Hom(Gamma, {+-1}), the trivial one first."""
    require_admissible(surface)
    if surface.gamma_size() > GAMMA_SIZE_CAP:
        raise GroupTooLarge(f"|Gamma| = {surface.gamma_size()} exceeds cap {GAMMA_SIZE_CAP}")
    stars = surface.star_slots
    s, h = surface.num_boundary, surface.genus
    free_stars = stars[1:]
    out = []
    for star_bits in product((0, 1), repeat=len(free_stars)):
        bits = [0] * s
        for j, bit in zip(free_stars, star_bits):
            bits[j] = bit
        for double_bits in product((0, 1), repeat=2 * h):
            out.append(PrequantChoice._trusted(tuple(bits) + double_bits))
    return out


def star_sign(level: int, star_count: int, star_weight: int) -> int:
    """sigma_star: (-1)^(k*l_star/8) for star count >= 3, else 1 (psi alone)."""
    if not star_weight or star_count < 3:
        return 1
    num = level * star_weight
    if num % 8:
        raise NotAdmissible(f"phase exponent k*l_star/8 = {num}/8 is not an integer; "
                            f"(k={level}, l_star={star_weight}) needs k in 4N")
    return -1 if (num // 8) % 2 else 1


def double_sign(level: int) -> int:
    """sigma_double: the phase (-1)^(k/2) of a double pair other than (0,0)."""
    if level % 2:
        raise NotAdmissible(f"phase exponent k/2 = {level}/2 is not an integer; "
                            "double factors need k in 2N")
    return -1 if (level // 2) % 2 else 1


def phase_factor(level: int, choice: PrequantChoice, gamma: GammaElement) -> int:
    """Phase phi'(gamma) entering the S-matrix quantization formula.

    Multiplicative over the blocks: psi(gamma) times ``star_sign`` times
    ``double_sign`` for every double pair other than (0,0); phi'(e) = 1.
    """
    k = _check_level(level)
    sign = choice.psi(gamma) * star_sign(k, len(gamma.star_slots), gamma.star_weight)
    for pair in gamma.double_pairs:
        if pair != (0, 0):
            sign *= double_sign(k)
    return sign
