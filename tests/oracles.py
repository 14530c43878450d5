"""Independent brute-force oracles used to validate the fast implementations.

These deliberately avoid the algorithms under test: characters come from the
alternant (Frobenius) coefficient extraction, Schur polynomials from
explicit semistandard-tableau enumeration, Littlewood-Richardson
coefficients from expanding actual polynomial products in many variables,
and the transform determinant from elimination on the binomial matrix.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial


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
