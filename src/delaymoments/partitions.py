"""Integer partitions and the symmetric-group combinatorics built on them.

Partitions index everything in this package: Schur moments, characters,
conjugacy classes and Littlewood-Richardson expansions.  All functions are
pure and return exact integers; the expensive ones (characters, dimensions,
Schur products) are memoized; the mappings they return are read-only views.

One kernel multiplies symmetric functions: `strip_expansion`, the
Murnaghan-Nakayama rule for s_mu * p_beta.  A character row is that
expansion started at the empty shape, and a Schur product s_a * s_b is its
sum over the cycle types of the lighter factor, weighed by that factor's
characters.

A shape has one representation, `Partition`, a validated tuple of parts.
Input from outside is validated once, where it enters (`as_parts`); the
shapes this module generates are built without re-validation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from functools import cache, wraps
from itertools import accumulate
from math import factorial, prod
from types import MappingProxyType


class WeightMismatchError(ValueError):
    """Two partitions that must have equal weight do not."""


class ContainmentError(ValueError):
    """A partition required to contain another one does not."""


PartitionLike = "Partition | Iterable[int]"


class Partition(tuple):
    """A non-increasing tuple of positive integers; the empty partition is valid.

    A Partition is its tuple of parts: it compares and hashes like that
    tuple.  Construction validates the parts; shapes this module generates
    itself skip that check (see `_shape`).  The text form used across the
    package is comma-separated parts, e.g. "3,1,1"; the empty partition
    parses from "" or "0" and prints as "0".
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        ps = tuple(parts)
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in ps):
            raise ValueError(f"parts must be integers: {ps}")
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be non-increasing: {ps}")
        if ps and ps[-1] <= 0:
            raise ValueError(f"parts must be positive: {ps}")
        return super().__new__(cls, ps)

    @classmethod
    def parse(cls, text: str) -> Partition:
        text = text.strip()
        if text in ("", "0"):
            return cls()
        return cls(int(tok) for tok in text.split(","))

    @property
    def parts(self) -> tuple[int, ...]:
        return self

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return ",".join(map(str, self)) if self else "0"

    def conjugate(self) -> Partition:
        cols = [0] * (self[0] if self else 0)
        for p in self:
            for j in range(p):
                cols[j] += 1
        return _shape(cols)

    def contains(self, other: PartitionLike) -> bool:
        """Part-wise containment: every row of `other` fits inside this shape."""
        return contains(other, self)


def _shape(parts: Iterable[int]) -> Partition:
    """A Partition built without validation, for shapes generated here."""
    return tuple.__new__(Partition, parts)


def as_parts(p: PartitionLike) -> Partition:
    """`p` as a Partition, validated unless it already is one."""
    return p if isinstance(p, Partition) else Partition(p)


def _cache_by_shape(shapes: int):
    """`functools.cache` for a function whose first `shapes` arguments are
    partitions: they are validated with `as_parts` before the lookup, so a
    list is accepted and a non-partition never reaches the cache.  The
    wrapper keeps `cache_info` and `cache_clear`."""
    def decorate(fn):
        cached = cache(fn)

        @wraps(fn)
        def lookup(*args, **kwargs):
            return cached(*map(as_parts, args[:shapes]), *args[shapes:], **kwargs)

        lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
        return lookup
    return decorate


def contains(mu: PartitionLike, lam: PartitionLike) -> bool:
    """True iff mu fits inside lam part-wise (missing parts read as 0)."""
    mp, lp = as_parts(mu), as_parts(lam)
    return len(mp) <= len(lp) and all(a <= b for a, b in zip(mp, lp))


@cache
def enumerate_partitions(m: int, forbid_part_one: bool = False) -> tuple[Partition, ...]:
    """All partitions of weight m in reverse-lexicographic order, as a cached
    tuple.

    With forbid_part_one, only partitions with every part >= 2 are kept
    (one-cycles carry no weight in the large-M sums and are excluded there).
    """
    if m < 0:
        raise ValueError("weight must be non-negative")
    min_part = 2 if forbid_part_one else 1
    out: list[Partition] = []

    def descend(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(_shape(prefix))
            return
        for k in range(min(remaining, max_part), min_part - 1, -1):
            if remaining - k and remaining - k < min_part:
                continue
            prefix.append(k)
            descend(remaining - k, k, prefix)
            prefix.pop()

    descend(m, m, [])
    return tuple(out)


def subpartitions(lam: PartitionLike) -> list[Partition]:
    """All partitions contained in lam, reverse-lexicographically ordered."""
    lp = as_parts(lam)
    out: list[Partition] = []

    def descend(row: int, bound: int, prefix: list[int]) -> None:
        # Every extension of a prefix sorts before it, the larger part first.
        if row < len(lp):
            for k in range(min(bound, lp[row]), 0, -1):
                prefix.append(k)
                descend(row + 1, k, prefix)
                prefix.pop()
        out.append(_shape(prefix))

    descend(0, lp[0] if lp else 0, [])
    return out


def durfee(lam: PartitionLike) -> int:
    """Side of the largest square fitting inside the Young diagram."""
    lp = as_parts(lam)
    d = 0
    for i, p in enumerate(lp):
        if p >= i + 1:
            d = i + 1
    return d


def skew_contents(outer: PartitionLike,
                  inner: PartitionLike = Partition()) -> tuple[int, ...]:
    """Contents j - i of the cells of outer/inner, row by row (0-based)."""
    op, ip = as_parts(outer), as_parts(inner)
    if not contains(ip, op):
        raise ContainmentError(f"{ip} does not fit inside {op}")
    return tuple(j - i for i, p in enumerate(op)
                 for j in range(ip[i] if i < len(ip) else 0, p))


@_cache_by_shape(2)
def skew_tableaux(outer: PartitionLike, inner: PartitionLike) -> int:
    """Number of standard tableaux of the skew shape outer/inner, which must
    be contained: the largest entry sits in a corner of outer outside inner,
    so the count is the sum over those corners with the corner removed."""
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, p in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if p > below and p > (inner[i] if i < len(inner) else 0):
            smaller = _shape(outer[:i] + ((p - 1,) if p > 1 else ()) + outer[i + 1:])
            total += skew_tableaux(smaller, inner)
    return total


def content_product(lam: PartitionLike) -> int:
    """Product of the non-zero cell contents j - i (empty product is 1)."""
    lp = as_parts(lam)
    return prod(j - i for i, p in enumerate(lp) for j in range(p) if j != i)


@cache
def _dimension(parts: Partition) -> int:
    n = sum(parts)
    if n == 0:
        return 1
    hooks = 1
    conj = parts.conjugate()
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (conj[j] - i) - 1
    d, rem = divmod(factorial(n), hooks)
    assert rem == 0
    return d


def dimension(nu: PartitionLike) -> int:
    """Number of standard tableaux of the shape, by the hook-length formula."""
    return _dimension(as_parts(nu))


def class_size(beta: PartitionLike) -> int:
    """Size of the conjugacy class of permutations with this cycle type."""
    bp = as_parts(beta)
    z = 1
    for q, mult in Counter(bp).items():
        z *= q**mult * factorial(mult)
    return factorial(sum(bp)) // z


@cache
def _character(mu: tuple[int, ...], beta: tuple[int, ...]) -> int:
    return character_row(beta).get(mu, 0)


def character(mu: PartitionLike, beta: PartitionLike) -> int:
    """Symmetric-group character at cycle type beta, irreducible label mu:
    the entry of `character_row(beta)` (0 when mu is absent from it)."""
    mp, bp = as_parts(mu), as_parts(beta)
    if sum(mp) != sum(bp):
        raise WeightMismatchError(f"|mu|={sum(mp)} differs from |beta|={sum(bp)}")
    return _character(mp, bp)


@_cache_by_shape(1)
def character_row(beta: PartitionLike) -> Mapping[Partition, int]:
    """Characters of every irreducible at cycle type beta, as one mapping:
    the strip expansion of the power-sum product for beta started at the
    empty shape.  The result is a read-only view of the cached dict."""
    return MappingProxyType(strip_expansion(_shape(()), beta))


def strip_expansion(mu: PartitionLike, beta: PartitionLike,
                    max_durfee: int | None = None) -> dict[Partition, int]:
    """Expand s_mu * p_beta in the Schur basis as {shape: non-zero coefficient}
    by adding one border strip per part of beta (the Murnaghan-Nakayama rule).
    With `max_durfee` = d only shapes whose Durfee square has side at most d
    are kept: strips only add cells, so a pruned shape never comes back.

    Shapes are held as bead bitmasks: with L = len(mu) + |beta| beads, row i
    (0-based) of a shape puts a bead at position part_i + L - 1 - i, and no
    shape of the product has more than L rows.  A k-strip moves one bead from
    b to a free b + k; its sign is the parity of the beads strictly between.
    Row i reaches the diagonal (part_i > i) exactly when its bead sits at or
    above L, so the Durfee side is the number of beads there.  Each kept
    mask becomes a Partition once, at the end.
    """
    mp, bp = as_parts(mu), as_parts(beta)
    beads = len(mp) + sum(bp)
    start = (1 << beads) - 1
    for i, p in enumerate(mp):
        start += ((1 << p) - 1) << (beads - 1 - i)
    d = beads if max_durfee is None else max_durfee
    row: dict[int, int] = {start: 1} if (start >> beads).bit_count() <= d else {}
    for k in bp:
        between = (1 << (k - 1)) - 1
        # Beads whose move crosses position `beads` add one to the Durfee side.
        crossing = ((1 << k) - 1) << (beads - k)
        nxt: dict[int, int] = defaultdict(int)
        for mask, coef in row.items():
            movable = mask & ~(mask >> k)
            if (mask >> beads).bit_count() >= d:
                movable &= ~crossing
            while movable:
                b = movable.bit_length() - 1
                movable ^= 1 << b
                grown = mask ^ (1 << b) ^ (1 << (b + k))
                nxt[grown] += -coef if (mask >> (b + 1) & between).bit_count() & 1 else coef
        row = {m: c for m, c in nxt.items() if c}
    return {_mask_shape(mask): c for mask, c in row.items()}


def _mask_shape(mask: int) -> Partition:
    """The Partition whose rows put their beads at the set bits of `mask`:
    a row's part is the number of empty positions below its bead."""
    # Past the "0b" prefix, each "1" is followed by the run of empty
    # positions down to the next bead; the trailing beads are empty rows.
    # Summing the runs from the bottom up gives the parts, smallest first.
    runs = [len(z) for z in bin(mask).rstrip("1").split("1")[:0:-1]]
    return _shape(reversed(list(accumulate(runs))))


@_cache_by_shape(2)
def schur_product(a: PartitionLike, b: PartitionLike) -> Mapping[Partition, int]:
    """Littlewood-Richardson expansion of s_a * s_b, keyed by result shape.

    The lighter factor, of weight m, is expanded in power sums,
    s_b = sum over cycle types beta of chi^b(beta) * p_beta / z_beta, and each
    s_a * p_beta is a `strip_expansion`:

        m! * s_a * s_b = sum over beta of class_size(beta) * chi^b(beta) * s_a * p_beta.

    The result is a read-only view of the cached dict.
    """
    if (sum(a), a) < (sum(b), b):
        a, b = b, a
    m = sum(b)
    total: dict[Partition, int] = defaultdict(int)
    for beta in enumerate_partitions(m):
        chi = character_row(beta).get(b, 0)
        if chi:
            weight = class_size(beta) * chi
            for nu, c in strip_expansion(a, beta).items():
                total[nu] += weight * c
    return MappingProxyType({nu: c // factorial(m) for nu, c in total.items() if c})


def lr_coefficient(mu: PartitionLike, rho: PartitionLike, nu: PartitionLike) -> int:
    """Multiplicity of s_nu in s_mu * s_rho (0 unless weights add up)."""
    mp, rp, np_ = as_parts(mu), as_parts(rho), as_parts(nu)
    if sum(np_) != sum(mp) + sum(rp):
        return 0
    return schur_product(mp, rp).get(np_, 0)
