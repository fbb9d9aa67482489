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
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .fusion_ring import _check_int, _check_ints, _check_level, _value_class

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
    out = _check_ints(bits, what)
    if out.count(0) + out.count(1) != len(out):
        raise ValueError(f"{what} must consist of 0/1 entries, got {bits!r}")
    return out


def _bits_mask(bits: Sequence[int]) -> int:
    """The int with bit j set iff bits[j] is 1, for a sequence of 0/1 ints."""
    mask = 0
    for bit in reversed(bits):
        mask = mask << 1 | bit
    return mask


@dataclass(frozen=True)
class SurfaceData:
    """Genus h surface with boundary labels m_1..m_s at a fixed level.

    Construction checks the fields and derives, once, what every path reads:
    ``star_slots`` (the j with 2 m_j = k), ``star_count``, ``nonstar_labels``
    (the other labels, in order), ``num_slots`` (s + 2h), ``_hash`` (the key
    of every result cache), ``_admissible`` (whether ``_CONDITIONS`` hold;
    (i) holds by construction), ``_folded``, the surface the quantization
    paths compute on, and three bit masks over the slots that classify a
    choice (``_classify``): ``_star_mask`` (the star slots), ``_zero_mask``
    (the slots a canonical choice leaves 0: the non-star boundary slots and
    the first star slot) and ``_double_mask`` (the first slot of each double,
    s, s + 2, ...).  A boundary circle labelled 0 quantizes to tau_0, the
    unit, and one labelled k to tau_k, the simple current: tau_k x reflects
    x's coefficients (c_m -> c_{k-m}) and tau_k^2 = tau_0.  So when k > 0,
    ``_folded`` is this surface with every label 0 and every label k removed,
    and ``_reflected`` says whether the labels k were odd in number, the
    result then being the folded surface's reflected (pairs cancel); at
    k = 0, label 0 is the star label and stays.  ``_folded`` is None when
    there is no label to remove, so no surface refers to itself.  Equality,
    hash and repr see the fields alone.
    """

    level: int
    genus: int
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        k = _check_level(self.level)
        genus, *labels = _check_ints((self.genus, *self.labels), "the genus and labels")
        if genus < 0:
            raise ValueError(f"genus must be non-negative, got {genus}")
        for m in labels:
            if not 0 <= m <= k:
                raise ValueError(f"label {m} out of range 0..{k}")
        labels = tuple(labels)
        stars = tuple(j for j, m in enumerate(labels) if 2 * m == k)
        s, star_mask = len(labels), sum(1 << j for j in stars)
        # Set one at a time: a write through vars(self) moves CPython's
        # inline attribute values into a dict, where every read is slower.
        for name, value in (
                ("level", k), ("genus", genus), ("labels", labels),
                ("_hash", hash((k, genus, labels))), ("star_slots", stars),
                ("star_count", len(stars)), ("num_slots", s + 2 * genus),
                ("nonstar_labels", tuple(m for m in labels if 2 * m != k)),
                ("_admissible", _conditions_hold(k, genus, len(stars))),
                ("_folded", SurfaceData(k, genus, tuple(m for m in labels if m % k))
                 if k and (0 in labels or k in labels) else None),
                ("_reflected", k > 0 and labels.count(k) % 2 == 1),
                ("_star_mask", star_mask),
                ("_zero_mask", ((1 << s) - 1 ^ star_mask) | (star_mask & -star_mask)),
                ("_double_mask", ((4 ** genus - 1) // 3) << s)):
            object.__setattr__(self, name, value)

    @property
    def num_boundary(self) -> int:
        return len(self.labels)

    def __hash__(self) -> int:
        return self._hash

    def __setstate__(self, state: Mapping) -> None:
        """Rebuild from the fields: a pickle without the derived data loads whole."""
        self.__init__(state["level"], state["genus"], state["labels"])

    @cached_property
    def admissibility(self) -> "AdmissibilityReport":
        """The ``check_prequantization`` report of this surface."""
        return check_prequantization(self)

    def gamma_size(self) -> int:
        return _gamma_size(self.genus, self.star_count)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "genus": self.genus, "labels": list(self.labels)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SurfaceData":
        return cls(data["level"], data["genus"], data.get("labels", ()))


@_value_class
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
        _set_bits(self, bits)
        _set_star_slots(self, star_slots)
        _set_num_boundary(self, num_boundary)
        return self

    def __post_init__(self):
        bits = _check_bits(self.bits, "gamma bits")
        stars = _check_ints(self.star_slots, "star slots")
        s = _check_int(self.num_boundary, "boundary count")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "star_slots", stars)
        object.__setattr__(self, "num_boundary", s)
        if s < 0 or len(bits) < s or (len(bits) - s) % 2 or not all(0 <= j < s for j in stars):
            raise ValueError(f"need s >= 0 boundary bits, two per double and star slots "
                             f"below s, got {len(bits)} bits, stars {stars} and s = {s}")
        for j in range(s):
            if j not in stars and bits[j]:
                raise ValueError(f"slot {j} is not a star class, bit must be 0")
        if sum(bits[:s]) % 2:
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


_set_bits, _set_star_slots, _set_num_boundary = (
    GammaElement.bits.__set__, GammaElement.star_slots.__set__, GammaElement.num_boundary.__set__)


class _Masked:
    """A slot outside the dataclass fields: ``_mask``, psi_bits as one int
    (``_bits_mask``), which equality, hash, repr and pickle state never see."""

    __slots__ = ("_mask",)


@_value_class
class PrequantChoice(_Masked):
    """Pre-quantization label: psi(gamma) = (-1)^<psi_bits, gamma bits>.

    Both constructors set ``_mask``, the bits as an int (bit j is slot j),
    which ``_classify`` reads; an unpickled choice goes through the checked
    one."""

    psi_bits: tuple[int, ...]

    @classmethod
    def _trusted(cls, psi_bits: tuple[int, ...], mask: int) -> "PrequantChoice":
        """A choice from a tuple of 0/1 ints already known to be valid (it
        was generated) and its ``_bits_mask``; skips the checks."""
        self = object.__new__(cls)
        _set_psi_bits(self, psi_bits)
        _set_mask(self, mask)
        return self

    def __post_init__(self):
        bits = _check_bits(self.psi_bits, "psi bits")
        object.__setattr__(self, "psi_bits", bits)
        _set_mask(self, _bits_mask(bits))

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
        return cls(data["psi_bits"])


_set_psi_bits, _set_mask = PrequantChoice.psi_bits.__set__, _Masked._mask.__set__


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


# Conditions (ii), (iii) and (ii') on the level k, genus h and star count r,
# as (code, description, predicate): their one statement.  The report, the
# surface's derived boolean and every failure message read this table.
_CONDITIONS = (
    ("(ii)", "k in 2N when genus >= 1", lambda k, h, r: h == 0 or k % 2 == 0),
    ("(iii)", "k in 4N when the star count is >= 3", lambda k, h, r: r < 3 or k % 4 == 0),
    ("(ii')", "k in 2N when the star count is >= 1", lambda k, h, r: r < 1 or k % 2 == 0),
)


def _gamma_size(h: int, r: int) -> int:
    """|Gamma| of genus h with r star labels: 2^(2h + r - 1), or 2^(2h) for r = 0."""
    return 2 ** (2 * h + max(r - 1, 0))


def _conditions_hold(k: int, h: int, r: int) -> bool:
    return all(holds(k, h, r) for _, _, holds in _CONDITIONS)


def _condition_checks(k: int, h: int, r: int) -> tuple[ConditionCheck, ...]:
    return tuple(ConditionCheck(code, text, holds(k, h, r)) for code, text, holds in _CONDITIONS)


def check_prequantization(surface: SurfaceData) -> AdmissibilityReport:
    """Decide whether the surface data admits a level-k pre-quantization.

    The conditions: (i) every label lies in 0..k, and those of
    ``_CONDITIONS``: (ii) positive genus needs k even, (iii) three or more
    star labels need k divisible by 4; (ii') a single star label already
    forces k even, which holds automatically since the star condition
    2*m = k has no solution at odd k.
    """
    k = surface.level
    label_check = ConditionCheck("(i)", f"all labels in 0..{k}",
                                 all(0 <= m <= k for m in surface.labels))
    return AdmissibilityReport(
        surface, (label_check,) + _condition_checks(k, surface.genus, surface.star_count))


def require_admissible(surface: SurfaceData) -> None:
    """Raise NotAdmissible unless the surface admits a pre-quantization.

    Tests the boolean the surface derived when it was built
    (``SurfaceData._admissible``), so a check costs one attribute read; the
    report (``SurfaceData.admissibility``) is built only for the message.
    """
    if not surface._admissible:
        raise NotAdmissible(f"inadmissible: {surface.admissibility.failure_message()}")


def _require_conditions(level: int, genus: int, star_count: int) -> None:
    """Raise NotAdmissible unless (k, h, r) meet ``_CONDITIONS``, worded as
    ``require_admissible``, for entry points that take no surface; the
    checks and their message are built only on failure."""
    if not _conditions_hold(level, genus, star_count):
        raise NotAdmissible(
            f"inadmissible: {_failure_message(_condition_checks(level, genus, star_count))}")


def _star_patterns(r: int) -> Iterator[tuple[int, ...]]:
    # even-parity bit patterns, all-zeros first (lexicographic order)
    for pat in product((0, 1), repeat=r):
        if sum(pat) % 2 == 0:
            yield pat


def enumerate_gamma(surface: SurfaceData, cap: int = GAMMA_SIZE_CAP) -> list[GammaElement]:
    """All elements of Gamma, the identity first."""
    size, cap = surface.gamma_size(), _check_int(cap, "cap")
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
    return PrequantChoice._trusted(tuple(bits), _bits_mask(bits))


def _classify(surface: SurfaceData,
              choice: PrequantChoice) -> tuple[PrequantChoice, int, int]:
    """The canonical form of a PrequantChoice on ``surface`` and its folded
    class (a, d), as ``_canonical_class`` describes; the surface is admissible.

    On the masks (``SurfaceData``): a choice is canonical when it has one
    bit per slot and none under ``_zero_mask``; a counts its bits under
    ``_star_mask``, and d the doubles whose first or second bit is set, read
    at the pair's first slot as (m | m >> 1) & ``_double_mask``."""
    mask = choice._mask
    if len(choice.psi_bits) != surface.num_slots or mask & surface._zero_mask:
        choice = canonicalize_choice(surface, choice.psi_bits)
        mask = choice._mask
    a, r = (mask & surface._star_mask).bit_count(), surface.star_count
    d = ((mask | mask >> 1) & surface._double_mask).bit_count()
    if 2 * a > r:
        a = r - a
    if d > 1:
        d = d & 1 if surface.level % 4 else 1
    return choice, a, d


# The last (surface, choice, class) that ``_canonical_class`` returned.  The
# three paths of one request ask for the same pair in a row, so one slot
# classifies each request once.  It holds only a pair that passed the
# admissibility and type checks; it holds both objects, so neither id can be
# reused while it is compared by identity, and both are immutable; it is
# replaced as one tuple, never updated in place.  The first entry starts as
# an object no caller holds.
_last_class: tuple = (object(), None, None)


def _canonical_class(surface: SurfaceData,
                     choice: PrequantChoice | None) -> tuple[PrequantChoice, int, int]:
    """The canonical form of ``choice`` on an admissible surface, and its
    class (a, d), folded: a psi bits set on the r star slots, and d doubles
    with phi != (0, 0), read as min(a, r - a) and, at level k, as min(d, 1)
    for k in 4N and d mod 2 otherwise (odd k allows no double, so d = 0).
    The phases, and so every quantization path's result, depend on the
    choice only through this class, as the two quantities they enter show:

    * the star sum (1-x)^min(a, r-a) sum_i C(|r-2a|, 2i) x^i
      (``quantization._krawtchouk_sum``) is unchanged by a -> r - a;
    * the doubles' factor (1+3 sigma)^(h-d) (1-sigma)^d, sigma = (-1)^(k/2)
      (``quantization._double_factor``), is 0 for every d >= 1 when
      sigma = 1, and (-1)^(h-d) 2^h when sigma = -1.

    Choices of one folded class thus share every per-class result.

    Raises NotAdmissible unless the surface is admissible.  None is the
    trivial choice.  A PrequantChoice that is already canonical (one bit
    per slot, none on a non-star boundary slot, first star bit 0) is
    returned as it is: its bits were checked to be 0/1 when it was built.
    Any other goes through ``canonicalize_choice``, which raises for a wrong
    length; anything that is not a PrequantChoice raises TypeError.  The
    last pair classified (``_last_class``) is read first, by identity: it
    passed both checks, and neither object can change, so a repeated
    request is checked and classified once.  Every other pair is checked.
    """
    global _last_class
    last_surface, last_choice, last = _last_class
    if last_surface is surface and last_choice is choice:
        return last
    require_admissible(surface)
    if choice is None:
        return PrequantChoice._trusted((0,) * surface.num_slots, 0), 0, 0
    if not isinstance(choice, PrequantChoice):
        raise TypeError(f"choice must be a PrequantChoice or None, got {choice!r}")
    result = _classify(surface, choice)
    _last_class = (surface, choice, result)
    return result


# A shape shares its choices when they hold at most this many psi bits in
# all, |Gamma| choices of s + 2h bits; as |Gamma| <= 2^(s+2h), that is at
# most 2^9 choices.  The sweep's largest shape holds 5,120.
_SHARED_PSI_BITS = 2**13


def enumerate_choices(surface: SurfaceData) -> list[PrequantChoice]:
    """Canonical representatives of Hom(Gamma, {+-1}), the trivial one first.

    They depend only on the surface's slot shape (s, star slots, h): a shape
    of at most ``_SHARED_PSI_BITS`` psi bits builds its choices once
    (``_shared_choices``), and every call returns a new list of those
    immutable choices; a larger shape builds them on every call."""
    require_admissible(surface)
    size = surface.gamma_size()
    if size > GAMMA_SIZE_CAP:
        raise GroupTooLarge(f"|Gamma| = {size} exceeds cap {GAMMA_SIZE_CAP}")
    shape = surface.num_boundary, surface.star_slots, surface.genus
    if size * surface.num_slots <= _SHARED_PSI_BITS:
        return list(_shared_choices(*shape))
    return _choices(*shape)


# One per slot shape: the sweep's 31,324 requests have 105 shapes and 4,662
# distinct choices, so it builds each once; they hold 1.3 MB.  At most 128
# shapes of ``_SHARED_PSI_BITS`` bits each: 16.5 MB measured at worst (128
# shapes of 512 choices of 16 bits, tracemalloc).
@lru_cache(maxsize=128)
def _shared_choices(s: int, star_slots: tuple[int, ...], h: int) -> tuple[PrequantChoice, ...]:
    return tuple(_choices(s, star_slots, h))


def _choices(s: int, star_slots: tuple[int, ...], h: int) -> list[PrequantChoice]:
    """The canonical choices of the shape (s, star slots, h), built."""
    free_stars = star_slots[1:]
    # the 4^h double patterns, each with its mask on slots s..s+2h-1
    doubles = [(bits, _bits_mask(bits) << s) for bits in product((0, 1), repeat=2 * h)]
    out = []
    for star_bits in product((0, 1), repeat=len(free_stars)):
        bits, mask = [0] * s, 0
        for j, bit in zip(free_stars, star_bits):
            bits[j] = bit
            mask |= bit << j
        bits = tuple(bits)
        out += [PrequantChoice._trusted(bits + double_bits, mask | double_mask)
                for double_bits, double_mask in doubles]
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
