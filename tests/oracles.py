"""Independent brute-force oracles used to validate the fast implementations.

These deliberately avoid the algorithms under test: characters come from the
alternant (Frobenius) coefficient extraction, Schur polynomials from
explicit semistandard-tableau enumeration, Littlewood-Richardson
coefficients from expanding actual polynomial products in many variables,
the transform determinant from elimination on the binomial matrix, and
polynomial arithmetic from dense loops over lists of Fractions.
Shapes, hook lengths, contents and Durfee squares are computed here.  The
large-M coefficients are assembled term by term with the public
`Polynomial` and `RationalFunction` arithmetic, which has its own tests.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, prod

from delaymoments.algebra import SYM_G, SYM_M, Polynomial, RationalFunction


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i)
                     if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def _multiply_power_sum(poly: dict[tuple[int, ...], int], k: int,
                        nvars: int) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = defaultdict(int)
    for expo, coeff in poly.items():
        for i in range(nvars):
            new = list(expo)
            new[i] += k
            out[tuple(new)] += coeff
    return dict(out)


def frobenius_character(mu: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """Character via the alternant: the coefficient of x^(mu + delta) in the
    Vandermonde alternant times the power-sum product for beta."""
    if sum(mu) != sum(beta):
        raise ValueError("weights differ")
    if not mu and not beta:
        return 1
    nvars = max(len(mu), 1)
    delta = tuple(range(nvars - 1, -1, -1))
    poly: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(nvars)):
        expo = tuple(delta[perm[i]] for i in range(nvars))
        poly[expo] = _parity(perm)
    for k in beta:
        poly = _multiply_power_sum(poly, k, nvars)
    padded = tuple(mu) + (0,) * (nvars - len(mu))
    target = tuple(padded[i] + delta[i] for i in range(nvars))
    return poly.get(target, 0)


@cache
def schur_polynomial(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the Schur polynomial by enumerating semistandard
    tableaux (rows weakly increase, columns strictly increase)."""
    if not lam:
        return {(0,) * nvars: 1}
    if len(lam) > nvars:
        return {}
    out: dict[tuple[int, ...], int] = defaultdict(int)

    def fill(row_idx: int, prev_row: tuple[int, ...], counts: list[int]) -> None:
        if row_idx == len(lam):
            out[tuple(counts)] += 1
            return
        length = lam[row_idx]

        def rec(j: int, min_val: int) -> None:
            if j == length:
                fill(row_idx + 1, tuple(current), counts)
                return
            low = min_val
            if row_idx > 0:
                low = max(low, prev_row[j] + 1)
            for v in range(low, nvars + 1):
                current.append(v)
                counts[v - 1] += 1
                rec(j + 1, v)
                counts[v - 1] -= 1
                current.pop()

        current: list[int] = []
        rec(0, 1)

    fill(0, (), [0] * nvars)
    return dict(out)


def _poly_product(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = defaultdict(int)
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return {e: c for e, c in out.items() if c}


def schur_expand(poly: dict[tuple[int, ...], int],
                 nvars: int) -> dict[tuple[int, ...], int]:
    """Decompose a symmetric polynomial in the Schur basis by repeatedly
    peeling the lexicographically leading monomial."""
    residue = dict(poly)
    out: dict[tuple[int, ...], int] = {}
    while residue:
        lead = max(residue)
        shape = tuple(p for p in lead if p)
        assert all(a >= b for a, b in zip(shape, shape[1:])), \
            f"leading exponent {lead} is not a partition"
        coeff = residue[lead]
        out[shape] = coeff
        for expo, mult in schur_polynomial(shape, nvars).items():
            new = residue.get(expo, 0) - coeff * mult
            if new:
                residue[expo] = new
            else:
                residue.pop(expo, None)
    return out


def brute_schur_product(mu: tuple[int, ...], rho: tuple[int, ...],
                        nvars: int) -> dict[tuple[int, ...], int]:
    """Littlewood-Richardson expansion from an actual polynomial product."""
    product = _poly_product(schur_polynomial(mu, nvars),
                            schur_polynomial(rho, nvars))
    return schur_expand(product, nvars)


def _binomial(x: int, k: int) -> Fraction:
    """x(x-1)...(x-k+1)/k! for any integer x; zero when k < 0."""
    if k < 0:
        return Fraction(0)
    num = 1
    for t in range(k):
        num *= x - t
    return Fraction(num, factorial(k))


def bareiss_determinant(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    mat = [row[:] for row in rows]
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) / prev
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def binomial_matrix_determinant(lam: tuple[int, ...], mu: tuple[int, ...],
                                m: int) -> Fraction:
    """det binomial(m + lam_i - i, m + mu_j - j) at the integer m (rows
    1-based), with mu padded by zeros to the length of lam; binomial(x, y)
    reads as the polynomial in x of degree x - y, and as zero when x < y."""
    n = len(lam)
    padded = tuple(mu) + (0,) * (n - len(mu))
    return bareiss_determinant(
        [[_binomial(m + lam[i] - (i + 1), lam[i] - i - (padded[j] - j))
          for j in range(n)] for i in range(n)])


# Polynomial arithmetic on plain lists of ascending Fraction coefficients,
# trailing zeros dropped: the dense loops `Polynomial` ran while it stored
# its coefficients as Fractions.

def poly_trim(cs: list) -> list[Fraction]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: list, b: list) -> list[Fraction]:
    n = max(len(a), len(b))
    return poly_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                      for k in range(n)])


def poly_neg(a: list) -> list[Fraction]:
    return poly_trim([-c for c in a])


def poly_mul(a: list, b: list) -> list[Fraction]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_pow(a: list, n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_evaluate(a: list, v: Fraction) -> Fraction:
    return sum((Fraction(c) * v**k for k, c in enumerate(a)), Fraction(0))


def poly_monic(a: list) -> list[Fraction]:
    a = poly_trim(a)
    return [c / a[-1] for c in a] if a else []


def shapes(weight: int, largest: int | None = None, smallest: int = 1):
    """All partitions of `weight` with parts between `smallest` and
    `largest`, the larger parts first."""
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, largest or weight), smallest - 1, -1):
        for rest in shapes(weight - first, first, smallest):
            yield (first,) + rest


def cells(shape: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(shape) for j in range(row)]


def hook_dimension(shape: tuple[int, ...]) -> int:
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
    hooks = 1
    for i, j in cells(shape):
        hooks *= shape[i] - j + columns[j] - i - 1
    return factorial(sum(shape)) // hooks


def durfee_side(shape: tuple[int, ...]) -> int:
    return sum(1 for i, row in enumerate(shape) if row > i)


def _content_product(shape: tuple[int, ...]) -> int:
    return prod((j - i) or 1 for i, j in cells(shape))


@cache
def durfee_weighted_sum(a: tuple[int, ...], b: tuple[int, ...], side: int) -> int:
    """Sum of dim(nu) * (product of non-zero contents of nu)**2 over s_a * s_b
    (with multiplicity), restricted to nu with the given Durfee side."""
    total = 0
    for nu, c in brute_schur_product(a, b, max(len(a) + len(b), 1)).items():
        if durfee_side(nu) == side:
            total += c * hook_dimension(nu) * _content_product(nu) ** 2
    return total


@cache
def _character(rho: tuple[int, ...], beta: tuple[int, ...]) -> int:
    return frobenius_character(rho, beta)


def strip_weight(a: tuple[int, ...], beta: tuple[int, ...], side: int) -> int:
    """Sum over rho of chi^rho(beta) times `durfee_weighted_sum(a, rho, side)`:
    the weighted shape sum of s_a * p_beta at the given Durfee side, since
    p_beta = sum_rho chi^rho(beta) s_rho."""
    return sum(_character(rho, beta) * durfee_weighted_sum(a, rho, side)
               for rho in shapes(sum(beta)))


def inv_m_inner_sum(mu: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """`strip_weight` at mu's Durfee side: the shape sum of the large-M
    expansion for cycle type beta."""
    return strip_weight(mu, beta, durfee_side(mu))


def inv_m_reflection_coefficients(mu: tuple[int, ...],
                                  order: int) -> dict[int, RationalFunction]:
    """{p: coefficient of 1/M**p} of the large-M reflection moment of mu, for
    -|mu| <= p <= order, zeros left out.  Straight from the defining sum:

        prod_c (M + c)**2 / t**2 * sum over cycle types beta of weight m with
        no part 1 of (-1)**len(beta) |C_beta| inner(mu, beta)
        / (m! (|mu| + m)!) * prod_q (1 + q g) / (1 + g)**(|mu| + m)
        * M**-(|mu| + m - len(beta)),

    with c the cell contents of mu and t the product of the non-zero ones;
    a term reaches powers <= order only if m <= 2 (order + |mu|)."""
    n = sum(mu)
    zero = RationalFunction.constant(SYM_G, 0)
    one_plus_g = Polynomial(SYM_G, (1, 1))
    bare: dict[int, RationalFunction] = {}
    for m in range(2 * (order + n) + 1):
        for beta in shapes(m, smallest=2):
            exponent = n + m - len(beta)
            if exponent - 2 * n > order:
                continue
            centraliser = prod(q ** beta.count(q) * factorial(beta.count(q))
                               for q in set(beta))
            scalar = Fraction((-1) ** len(beta) * (factorial(m) // centraliser)
                              * inv_m_inner_sum(mu, beta),
                              factorial(m) * factorial(n + m) * _content_product(mu) ** 2)
            weight = Polynomial(SYM_G, (1,))
            for q in beta:
                weight = weight * Polynomial(SYM_G, (1, q))
            bare[exponent] = bare.get(exponent, zero) + RationalFunction(
                weight * scalar, one_plus_g ** (n + m))
    rising = Polynomial(SYM_M, (1,))
    for i, j in cells(mu):
        rising = rising * Polynomial(SYM_M, (j - i, 1))
    square = rising * rising
    out = {}
    for p in range(-n, order + 1):
        total = zero
        for d in range(square.degree + 1):
            total = total + bare.get(p + d, zero) * square.coefficient(d)
        if not total.is_zero:
            out[p] = total
    return out
