"""Exact scalar, polynomial, rational-function and truncated-series arithmetic.

Every coefficient in this package is carried by these types; there is no
floating point anywhere.  Scalars are `fractions.Fraction`.  Polynomials
(dense, univariate over "M" or "g" for the absorption strength) and
rational functions, whose denominators split over the integers, are two
views of one fraction-free form with one set of operators: integer
coefficients over a positive integer content, and the denominator's
integer roots, none for a polynomial.  A zero takes the other operand's
symbol, two non-zero operands with different symbols are refused, and a
constant hashes as its Fraction.
Series are Laurent-type truncations with a guaranteed order: coefficients
of powers up to `order` are exact, powers above it are never emitted.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import wraps
from math import gcd as int_gcd, isqrt, lcm
from types import MappingProxyType

SYM_M = "M"
SYM_G = "g"

VAR_INV_M = "inv_M"
VAR_GAMMA = "gamma"
VAR_INV_GAMMA = "inv_gamma"
VARIABLES = (VAR_INV_M, VAR_GAMMA, VAR_INV_GAMMA)

# Power of the expansion variable carried by one factor of M and of g, per
# expansion variable.  The three regimes differ only in this table; the
# symbol carrying power 0 is the one the series coefficients live in.
VARIABLE_POWER = {
    VAR_INV_M: {SYM_M: -1, SYM_G: 0},
    VAR_GAMMA: {SYM_M: 0, SYM_G: 1},
    VAR_INV_GAMMA: {SYM_M: 0, SYM_G: -1},
}
COEFF_SYMBOL = {variable: next(s for s, e in powers.items() if not e)
                for variable, powers in VARIABLE_POWER.items()}
# (symbol, exponent) per expansion variable: the variable is symbol**exponent.
VARIABLE_SYMBOL = {variable: next((s, e) for s, e in powers.items() if e)
                   for variable, powers in VARIABLE_POWER.items()}


def require_int(name: str, value) -> None:
    """Refuse an order or index that is not an int (a bool is not), at the call."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_regime_order(regime: str, order) -> None:
    """Refuse an unknown regime, then an order that is not a non-negative int."""
    if regime not in VARIABLES:
        raise ValueError(f"unknown regime {regime!r}")
    require_int("order", order)
    if order < 0:
        raise ValueError("order must be non-negative")


def operand_order(variable: str, order: int, m_power: int = 0, g_power: int = 0) -> int:
    """Order an operand needs for its product with M**m_power * g**g_power
    to be exact through `order`; never below 0."""
    powers = VARIABLE_POWER[variable]
    return max(order - powers[SYM_M] * m_power - powers[SYM_G] * g_power, 0)


def expansion_value(variable: str, m_value: Fraction, gamma_value: Fraction) -> Fraction:
    """Value of the expansion variable at rational M and absorption values."""
    symbol, e = VARIABLE_SYMBOL[variable]
    return {SYM_M: m_value, SYM_G: gamma_value}[symbol] ** e


_LATEX_SYMBOL = {SYM_M: "M", SYM_G: r"\gamma"}


class VariableMismatchError(ValueError):
    """Operands carry different symbols or expansion variables."""


class SeriesOrderError(ValueError):
    """A coefficient beyond the guaranteed truncation order was requested."""


class PoleError(ZeroDivisionError):
    """Numeric evaluation hit a zero of a retained denominator."""

    def __init__(self, symbol: str, value: Fraction, factored: str):
        self.symbol = symbol
        self.value = value
        self.factored = factored
        super().__init__(
            f"denominator {factored} vanishes at {symbol} = {value}")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


_setattr = object.__setattr__


class _Immutable:
    """Refuses to rebind or delete an attribute; constructors fill the slots
    with `_setattr`, and each subclass's `__reduce__` rebuilds its copies and
    pickles through a constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _IntegerForm(_Immutable):
    """The one fraction-free form of Polynomial and RationalFunction, and
    their one set of operators.

    The value is N / (D * prod (x - r)**m) in `symbol`: N the integers
    `_num` (ascending, no trailing zeros, () for zero), D the positive
    integer `_content` and `_roots` the sorted pairs (r, m) of the
    denominator's integer roots, always () for a Polynomial.  The form is
    reduced: N vanishes at no listed root and shares no integer factor with
    D, so equal values have equal fields.

    An int or Fraction operand is a constant in the other operand's symbol.
    A Polynomial takes no RationalFunction operand, so a mixed operation
    falls through to the RationalFunction side and returns a
    RationalFunction.  A zero takes the other operand's symbol; two non-zero
    operands with different symbols raise VariableMismatchError.  A
    constant hashes as its Fraction, so it finds the int or Fraction it
    equals in a dict.
    """

    __slots__ = ("symbol", "_num", "_content", "_roots")

    @classmethod
    def _new(cls, symbol: str, num: tuple[int, ...], content: int,
             roots: tuple[tuple[int, int], ...] = ()):
        """A `cls` from fields already in canonical form."""
        return object.__new__(cls)._fill(symbol, num, content, roots)

    def _fill(self, symbol, num, content, roots):
        """The one place the fields are written."""
        _setattr(self, "symbol", symbol)
        _setattr(self, "_num", num)
        _setattr(self, "_content", content)
        _setattr(self, "_roots", roots)
        return self

    def __reduce__(self):  # rebuilt from the canonical fields, no root search
        return self._new, (self.symbol, self._num, self._content, self._roots)

    @classmethod
    def constant(cls, symbol: str, value):
        v = _as_fraction(value)
        return cls._new(symbol, (v.numerator,) if v else (), v.denominator)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def _operand(self, other):
        """`other` as an operand of this class, or None for a type it does
        not take."""
        if isinstance(other, (int, Fraction)):
            return self.constant(self.symbol, other)
        return other if isinstance(other, (type(self), Polynomial)) else None

    def _symbol_with(self, o) -> str:
        """The symbol of a result with the operand `o`: a zero takes the
        other operand's, and two non-zero operands must share theirs."""
        if not self._num:
            return o.symbol
        if o._num and o.symbol != self.symbol:
            raise VariableMismatchError(
                f"cannot mix symbols {self.symbol!r} and {o.symbol!r}")
        return self.symbol

    def _scaled(self, p: int, q: int):
        """Product with the non-zero exact scalar p/q, q > 0."""
        num = tuple(c * p for c in self._num)
        content = self._content * q
        g = int_gcd(content, *num)
        if g > 1:
            num = tuple(c // g for c in num)
            content //= g
        return self._new(self.symbol, num, content, self._roots)

    def _inverse(self) -> RationalFunction:
        """1 / self, for `/` and negative powers: self's numerator must split."""
        if not self._num:
            raise ZeroDivisionError("division by zero")
        content = int_gcd(*self._num)
        if self._num[-1] < 0:
            content = -content
        roots, rest = _split_integer_roots(tuple(c // content for c in self._num))
        if len(rest) > 1:
            raise ValueError(f"denominator factor {_poly_text(rest, self.symbol)} has no "
                             "integer root; denominators must split over the integers")
        return RationalFunction._new(self.symbol, *_canonical(
            tuple(c * self._content for c in _expand_roots(self._roots)), content,
            sorted(roots.items())))

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        symbol = self._symbol_with(o)
        if not o._num:
            return self
        if not self._num:
            return self._new(symbol, o._num, o._content, o._roots)
        d1, d2 = self._content, o._content
        g = int_gcd(d1, d2)
        n1 = tuple(c * (d2 // g) for c in self._num) if d2 != g else self._num
        n2 = tuple(c * (d1 // g) for c in o._num) if d1 != g else o._num
        own1, own2 = dict(self._roots), dict(o._roots)
        roots = {**own1, **own2}
        for r in roots:
            m1, m2 = own1.get(r, 0), own2.get(r, 0)
            if m1 < m2:
                n1 = _times_root(n1, r, m2 - m1)
                roots[r] = m2
            elif m2 < m1:
                n2 = _times_root(n2, r, m1 - m2)
                roots[r] = m1
        return self._new(symbol, *_canonical(
            _iadd(n1, n2), d1 // g * d2, sorted(roots.items())))

    def __neg__(self):
        return self._new(self.symbol, tuple(-c for c in self._num), self._content,
                         self._roots)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self._num:
                return self.constant(self.symbol, 0)
            return self._scaled(other.numerator, other.denominator)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        symbol = self._symbol_with(o)
        if self._num and len(o._num) == 1 and not o._roots:
            return self._scaled(o._num[0], o._content)
        roots = dict(self._roots)
        for r, m in o._roots:
            roots[r] = roots.get(r, 0) + m
        return self._new(symbol, *_canonical(
            _imul(self._num, o._num), self._content * o._content,
            sorted(roots.items())))

    def __pow__(self, n: int):
        """n-th power; each class has its own rule for a negative n."""
        if n < 0:
            return self._negative_power(-n)
        if n == 0:
            return self.constant(self.symbol, 1)
        return self._new(self.symbol, _ipow(self._num, n), self._content**n,
                         tuple((r, m * n) for r, m in self._roots))

    def evaluate(self, value) -> Fraction:
        v = _as_fraction(value)
        d = self._content
        for r, m in self._roots:
            d *= (v - r) ** m
        if d == 0:
            raise PoleError(self.symbol, v, self.factored_denominator())
        return _evaluate(self._num, v) / d

    def factored_denominator(self) -> str:
        """The monic denominator, factored."""
        return _factored_text(self._roots, 1, self.symbol)

    def __eq__(self, other) -> bool:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return (self._num == o._num and self._content == o._content
                and self._roots == o._roots and (not self._num or self.symbol == o.symbol))

    def __hash__(self) -> int:
        if len(self._num) <= 1 and not self._roots:
            return hash(Fraction(self._num[0] if self._num else 0, self._content))
        return hash((self.symbol, self._num, self._content, self._roots))


class Polynomial(_IntegerForm):
    """Dense univariate polynomial with exact rational coefficients: the
    integer form without denominator roots, `_num` over `_content`;
    `coeffs` derives the Fractions.  Instances are immutable."""

    __slots__ = ()

    def __new__(cls, symbol: str, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        content = lcm(1, *(c.denominator for c in cs))
        num = [c.numerator * (content // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        return cls._new(symbol, *_canonical(tuple(num), content, ()))

    # The shared operators are bound in each class, where the layer tracer
    # (bench/layertrace.py) looks them up to time them per class.
    __add__ = __radd__ = _IntegerForm.__add__
    __sub__ = _IntegerForm.__sub__
    __rsub__ = _IntegerForm.__rsub__
    __neg__ = _IntegerForm.__neg__
    __mul__ = __rmul__ = _IntegerForm.__mul__
    __pow__ = _IntegerForm.__pow__

    @classmethod
    def from_roots(cls, symbol: str, roots: Iterable[int]) -> Polynomial:
        """The monic product of (symbol - r) over the integer roots r."""
        return cls._new(symbol, _expand_roots((r, 1) for r in roots), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._content) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree -1."""
        return len(self._num) - 1

    @property
    def leading(self) -> Fraction:
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._num[k] if 0 <= k < len(self._num) else 0, self._content)

    def _negative_power(self, n: int):
        raise ValueError("negative power of a polynomial")

    def __divmod__(self, other) -> tuple[Polynomial, Polynomial]:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        symbol = self._symbol_with(o)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, divisor = list(self.coeffs), o.coeffs
        qdeg = len(rem) - len(divisor)
        if qdeg < 0:
            return Polynomial(symbol), self
        quot = [Fraction(0)] * (qdeg + 1)
        lead = divisor[-1]
        for k in range(qdeg, -1, -1):
            c = rem[k + o.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(divisor):
                    rem[k + j] -= c * b
        return Polynomial(symbol, quot), Polynomial(symbol, rem)

    def __mod__(self, other) -> Polynomial:
        return divmod(self, other)[1]

    def monic(self) -> Polynomial:
        return self._new(self.symbol, *_canonical(
            self._num, self._num[-1] if self._num else 1, ()))

    def __repr__(self) -> str:
        return f"Polynomial({self.symbol!r}, {list(self.coeffs)})"

    def __str__(self) -> str:
        return _poly_text(self.coeffs, self.symbol)

    def latex(self) -> str:
        return _poly_text(self.coeffs, _LATEX_SYMBOL.get(self.symbol, self.symbol),
                          latex=True)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _fraction_text(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


def _poly_text(coeffs: tuple, symbol: str, latex: bool = False) -> str:
    """Descending display of ascending int or Fraction coefficients."""
    if not coeffs:
        return "0"
    pieces = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = _fraction_text(mag)
        else:
            if latex:
                power = symbol if k == 1 else f"{symbol}^{{{k}}}"
            else:
                power = symbol if k == 1 else f"{symbol}^{k}"
            body = power if mag == 1 else f"{_fraction_text(mag)}{power}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += sign + body
    return text


# Integer polynomials: ascending coefficient tuples without trailing zeros,
# () being zero.  They carry the fields of Polynomial and RationalFunction.

_ONE = (1,)


def _imul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two integer polynomials."""
    if not a or not b:
        return ()
    if len(b) == 1:
        b0 = b[0]
        return a if b0 == 1 else tuple(c * b0 for c in a)
    if len(a) == 1:
        return _imul(b, a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _ipow(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    result = _ONE
    while n:
        if n & 1:
            result = _imul(result, a)
        a = _imul(a, a)
        n >>= 1
    return result


def _iadd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _times_root(a: tuple[int, ...], r: int, times: int) -> tuple[int, ...]:
    """a * (x - r)**times."""
    if r == 0:
        return (0,) * times + a
    for _ in range(times):
        a = (-r * a[0], *[p - r * c for p, c in zip(a, a[1:])], a[-1])
    return a


def _divide_root(a: tuple[int, ...], r: int, times: int) -> tuple[tuple[int, ...], int]:
    """Divide the non-zero a by (x - r) while that is exact, at most `times`
    times, by synthetic division; returns the quotient and the count."""
    done = 0
    while done < times and len(a) > 1:
        if r == 0:
            if a[0]:
                break
            a = a[1:]
        else:
            q = [0] * (len(a) - 1)
            acc = a[-1]
            for k in range(len(a) - 2, -1, -1):
                q[k] = acc
                acc = a[k] + acc * r
            if acc:
                break
            a = tuple(q)
        done += 1
    return a, done


def _expand_roots(roots: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The monic product of (x - r)**m."""
    p = _ONE
    for r, m in roots:
        p = _times_root(p, r, m)
    return p


def _has_sign_change(cs: Iterable[int]) -> bool:
    signs = [c > 0 for c in cs if c]
    return any(s != t for s, t in zip(signs, signs[1:]))


def _split_integer_roots(cs: tuple[int, ...]) -> tuple[dict[int, int], tuple[int, ...]]:
    """Factor a non-zero integer polynomial as prod (x - r)**m times a rest
    without integer roots; returns ({r: m}, rest).

    Candidate roots are the divisors of the trailing coefficient up to
    Fujiwara's root bound, on the sides where Descartes' rule of signs
    allows a root, so a large constant term costs at most its square root.
    """
    roots: dict[int, int] = {}
    zeros = 0
    while not cs[zeros]:
        zeros += 1
    if zeros:
        roots[0] = zeros
        cs = cs[zeros:]
    if len(cs) == 1:
        return roots, cs
    signs = [s for s in (1, -1) if _has_sign_change(c * s**k for k, c in enumerate(cs))]
    if not signs:
        return roots, cs
    # Fujiwara: every root has modulus at most 2 max_k |a_(n-k) / a_n|^(1/k).
    # A ratio below 2^bits has its k-th root below 2^ceil(bits / k).
    n, lead, a0 = len(cs) - 1, abs(cs[-1]), abs(cs[0])
    bound = 0
    for k in range(1, n + 1):
        bits = (-(-abs(cs[n - k]) // lead)).bit_length()
        bound = max(bound, 2 << -(-bits // k))
    divisors = set()
    for d in range(1, min(bound, isqrt(a0)) + 1):
        if not a0 % d:
            divisors.add(d)
            if a0 // d <= bound:
                divisors.add(a0 // d)
    for d in sorted(divisors):
        for sign in signs:
            cs, m = _divide_root(cs, sign * d, len(cs))
            if m:
                roots[sign * d] = m
    return roots, cs


def _canonical(num: tuple[int, ...], content: int,
               roots: Iterable[tuple[int, int]]) -> tuple:
    """Reduce num / (content * prod (x - r)**m), content non-zero, to the
    canonical fields of `_IntegerForm`; `roots` is sorted by root."""
    if not num:
        return (), 1, ()
    if content < 0:
        num, content = tuple(-c for c in num), -content
    kept = []
    for r, m in roots:
        num, done = _divide_root(num, r, m)
        if done < m:
            kept.append((r, m - done))
    g = int_gcd(content, *num)
    if g > 1:
        num = tuple(c // g for c in num)
        content //= g
    return num, content, tuple(kept)


def _quotient(num: _IntegerForm, den: _IntegerForm) -> RationalFunction:
    """num / den, the one division of the constructor and of `/`: a zero
    den raises ZeroDivisionError, and a zero num gives zero whatever den's
    factors are."""
    if num._num or not den._num:
        return den._inverse() * num
    return RationalFunction.constant(num._symbol_with(den), 0)


def _factored_text(roots: Iterable[tuple[int, int]], const: Fraction | int,
                   symbol_text: str, latex: bool = False) -> str:
    """Denominator-style display of const * prod (x - r)**m: powers of the
    symbol, then paired (M^2-a^2) factors or (1+g) factors."""

    def power_text(base: str, mult: int) -> str:
        if mult == 1:
            return base
        return f"{base}^{{{mult}}}" if latex else f"{base}^{mult}"

    factors: list[str] = []
    items = dict(roots)
    xpow = items.pop(0, 0)
    if xpow:
        factors.append(power_text(symbol_text, xpow))
    for r in sorted(items, key=lambda v: (abs(v), v)):
        m = items.get(r, 0)
        if m <= 0:
            continue
        if r < 0 and items.get(-r, 0) > 0:
            shared = min(m, items[-r])
            body = f"({symbol_text}^{{2}}-{r * r})" if latex \
                else f"({symbol_text}^2-{r * r})"
            factors.append(power_text(body, shared))
            items[r] -= shared
            items[-r] -= shared
            m = items[r]
        if m > 0:
            if r == -1:
                body = f"(1+{symbol_text})"
            elif r < 0:
                body = f"({symbol_text}+{-r})"
            else:
                body = f"({symbol_text}-{r})"
            factors.append(power_text(body, m))
            items[r] = 0
    if not factors:
        return _fraction_text(const)
    text = "".join(factors)
    if const != 1:
        text = f"{_fraction_text(const)}{text}"
    return text


class RationalFunction(_IntegerForm):
    """Reduced quotient of polynomials over one symbol, in the fraction-free
    form of `_IntegerForm`: N / (D * prod (x - r)**m) with the integer roots
    {r: m} of the denominator listed.

    `RationalFunction(num, den=1)` is `num / den`.  The denominator must
    split over the integers, as every coefficient of the three expansions
    does: a divisor's numerator with a factor that has no integer root is
    refused with a ValueError naming that factor.  A zero numerator always
    gives zero, and a zero divisor raises ZeroDivisionError.

    Sums take the larger multiplicity per root and the lcm of the contents,
    products add multiplicities; reduction is synthetic division at the
    listed roots plus one integer gcd, never a polynomial gcd.  The
    engine's coefficients, sums of terms whose roots are cell contents
    (gamma, inv-gamma) or -1 (large M), are built once over those known
    roots by `from_root_terms`: no root search, one reduction per
    coefficient.
    `num` (scaled) and `den` (monic) are derived views.  Instances are
    immutable.
    """

    __slots__ = ()

    def __init__(self, num, den=1):
        form = num if isinstance(num, _IntegerForm) else den
        if not isinstance(form, _IntegerForm):
            raise ValueError("a symbol is required for constant input")
        q = _quotient(*(x if isinstance(x, _IntegerForm) else form.constant(form.symbol, x)
                        for x in (num, den)))
        self._fill(q.symbol, q._num, q._content, q._roots)

    @classmethod
    def from_root_terms(cls, symbol: str, terms: Iterable[tuple], scale=1,
                        num_roots: Iterable[int] = (),
                        den_roots: Iterable[int] = ()) -> RationalFunction:
        """scale * prod (x - a) / prod (x - b) over num_roots a and den_roots
        b, times the sum of w * f * prod (x - a_t) / prod (x - b_t) over the
        terms (w, a_t, b_t) or (w, a_t, b_t, f); w are exact scalars, f is an
        optional non-zero integer polynomial given by its ascending
        coefficients, and every root list is of integers, repeated by
        multiplicity.

        Terms with the same denominator root list are added first.  The
        groups then go over one common denominator (per root the largest
        multiplicity among them, and the lcm of the scalar denominators),
        their integer numerators are added, and the sum is reduced once.
        Every root is known, so no root search runs."""
        groups: dict[tuple[int, ...], list] = {}
        for w, tops, bottoms, *factor in terms:
            w = _as_fraction(w)
            if w:
                groups.setdefault(tuple(bottoms), []).append(
                    (w, tops, tuple(factor[0]) if factor else _ONE))
        content = lcm(1, *(w.denominator for group in groups.values()
                           for w, _, _ in group))
        common: dict[int, int] = {}
        summed = []
        for bottoms, group in groups.items():
            bottom: dict[int, int] = {}
            for r in bottoms:
                bottom[r] = m = bottom.get(r, 0) + 1
                if m > common.get(r, 0):
                    common[r] = m
            top: tuple[int, ...] = ()
            for w, tops, factor in group:
                term = _imul(factor, (w.numerator * (content // w.denominator),))
                for a in tops:
                    term = _times_root(term, a, 1)
                top = _iadd(top, term) if top else term
            if top:
                summed.append((top, bottom))
        num: tuple[int, ...] = ()
        for top, bottom in summed:
            for r, m in common.items():
                top = _times_root(top, r, m - bottom.get(r, 0))
            num = _iadd(num, top)
        scale = _as_fraction(scale)
        if not num or not scale:
            return cls.constant(symbol, 0)
        num = tuple(c * scale.numerator for c in num)
        roots = dict(common)
        for b in den_roots:
            roots[b] = roots.get(b, 0) + 1
        for a in num_roots:
            if roots.get(a):
                roots[a] -= 1
            else:
                num = _times_root(num, a, 1)
        return cls._new(symbol, *_canonical(
            num, content * scale.denominator,
            sorted((r, m) for r, m in roots.items() if m)))

    @property
    def num(self) -> Polynomial:
        """Numerator over the monic denominator `den`."""
        return Polynomial._new(self.symbol, self._num, self._content)

    @property
    def den(self) -> Polynomial:
        """Monic denominator."""
        return Polynomial._new(self.symbol, _expand_roots(self._roots), 1)

    # Bound in this class's namespace, as in Polynomial.
    __add__ = __radd__ = _IntegerForm.__add__
    __sub__ = _IntegerForm.__sub__
    __rsub__ = _IntegerForm.__rsub__
    __neg__ = _IntegerForm.__neg__
    __mul__ = __rmul__ = _IntegerForm.__mul__
    __pow__ = _IntegerForm.__pow__
    evaluate = _IntegerForm.evaluate

    def _negative_power(self, n: int) -> RationalFunction:
        return self._inverse() ** n

    def __truediv__(self, other) -> RationalFunction:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self, o)

    def __rtruediv__(self, other) -> RationalFunction:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self)

    def integer_form(self) -> tuple[list[int], list[int]]:
        """Numerator/denominator with integer coefficients (ascending), the
        pair scaled so their contents are coprime and the denominator's
        leading coefficient is positive."""
        return list(self._num), [c * self._content for c in _expand_roots(self._roots)]

    def expand(self, variable: str, order: int) -> TruncatedSeries:
        """Laurent expansion in `variable` through `order`: at 0 when the
        variable is this symbol, at infinity when it is 1/symbol.  The
        coefficients are constants, and `min_power` is the exact leading
        power (negative for a pole at 0 or growth at infinity)."""
        e = VARIABLE_POWER[variable][self.symbol]
        if not e:
            raise VariableMismatchError(f"{variable} is not a power of {self.symbol!r}")
        if not self._num:
            return TruncatedSeries.zero(variable, order)
        num, den = self.integer_form()
        if e < 0:  # num/den = y**(deg den - deg num) rev(num)/rev(den), y = 1/x
            num, den, lead = num[::-1], den[::-1], len(den) - len(num)
        else:
            zn, zd = (next(k for k, c in enumerate(cs) if c) for cs in (num, den))
            num, den, lead = num[zn:], den[zd:], zn - zd
        out: list[Fraction] = []
        for j in range(order - lead + 1):
            acc = Fraction(num[j] if j < len(num) else 0)
            for i in range(1, min(j, len(den) - 1) + 1):
                acc -= den[i] * out[j - i]
            out.append(acc / den[0])
        return TruncatedSeries(variable, dict(enumerate(out, lead)), order, lead)

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def _text(self, latex: bool) -> str:
        num = self._num
        sign = ""
        if num and all(c <= 0 for c in num):
            num = tuple(-c for c in num)
            sign = "-"
        symbol_text = _LATEX_SYMBOL.get(self.symbol, self.symbol) if latex else self.symbol
        num_text = _poly_text(num, symbol_text, latex=latex)
        if not self._roots and self._content == 1:
            return sign + num_text
        den_text = _factored_text(self._roots, self._content, symbol_text, latex=latex)
        if latex:
            if den_text.startswith("(") and den_text.endswith(")") and \
                    den_text.count("(") == 1:
                den_text = den_text[1:-1]
            return sign + rf"\frac{{{num_text}}}{{{den_text}}}"
        if len([c for c in num if c]) > 1:
            num_text = f"({num_text})"
        return f"{sign}{num_text}/{den_text}"

    def __str__(self) -> str:
        return self._text(latex=False)

    def latex(self) -> str:
        return self._text(latex=True)


def _evaluate(cs: tuple, v: Fraction) -> Fraction:
    """Horner evaluation of ascending integer coefficients."""
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * v + c
    return acc


class TruncatedSeries(_Immutable):
    """Laurent-type series in one expansion variable with exact coefficients.

    `coeffs` maps power -> RationalFunction in the complementary symbol.
    Powers up to `order` are guaranteed exact, so the lowest non-zero one is
    the exact leading power, `min_power`; with none, `min_power` is the
    larger of order + 1 and the `min_power` argument, a leading power known
    beyond the window.  A product a*b is exact through
    min(a.order + b.min_power, b.order + a.min_power).  Instances are
    immutable: `coeffs` is a read-only mapping.
    """

    __slots__ = ("variable", "coeffs", "order", "min_power")

    def __init__(self, variable: str, coeffs: Mapping[int, RationalFunction],
                 order: int, min_power: int | None = None):
        if variable not in VARIABLES:
            raise VariableMismatchError(f"unknown expansion variable {variable!r}")
        sym = COEFF_SYMBOL[variable]
        clean: dict[int, RationalFunction] = {}
        for p, c in coeffs.items():
            if isinstance(c, (int, Fraction)):
                c = RationalFunction.constant(sym, c)
            elif isinstance(c, Polynomial):
                c = RationalFunction(c)
            if c.is_zero or p > order:
                continue
            if c.symbol != sym:
                raise VariableMismatchError(
                    f"coefficients of a {variable} series live in {sym!r}")
            clean[p] = c
        _setattr(self, "variable", variable)
        _setattr(self, "coeffs", MappingProxyType(clean))
        _setattr(self, "order", order)
        floor = order + 1 if min_power is None else max(order + 1, min_power)
        _setattr(self, "min_power", min(clean, default=floor))

    def __reduce__(self):  # min_power: a zero series' known leading power
        return TruncatedSeries, (self.variable, dict(self.coeffs), self.order, self.min_power)

    @classmethod
    def zero(cls, variable: str, order: int) -> TruncatedSeries:
        return cls(variable, {}, order)

    @property
    def coefficient_symbol(self) -> str:
        return COEFF_SYMBOL[self.variable]

    def coefficient(self, power: int) -> RationalFunction:
        if power > self.order:
            raise SeriesOrderError(
                f"power {power} beyond guaranteed order {self.order}")
        return self.coeffs.get(power,
                               RationalFunction.constant(self.coefficient_symbol, 0))

    def terms(self) -> list[tuple[int, RationalFunction]]:
        return sorted(self.coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _require_same_variable(self, other: TruncatedSeries) -> None:
        if self.variable != other.variable:
            raise VariableMismatchError(
                f"cannot combine {self.variable} and {other.variable} series")

    def __add__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_variable(other)
        out: dict[int, RationalFunction] = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out[p] + c if p in out else c
        return TruncatedSeries(self.variable, out, min(self.order, other.order))

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.variable, {p: -c for p, c in self.coeffs.items()},
                               self.order)

    def __sub__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_variable(other)
        order = min(self.order + other.min_power, other.order + self.min_power)
        out: dict[int, RationalFunction] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                if p + q > order:
                    continue
                prod = a * b
                key = p + q
                out[key] = out[key] + prod if key in out else prod
        return TruncatedSeries(self.variable, out, order)

    def scale(self, factor) -> TruncatedSeries:
        """Multiply every coefficient by a scalar in the coefficient symbol."""
        return TruncatedSeries(self.variable, {p: c * factor for p, c in self.coeffs.items()},
                               self.order)

    def shift_power(self, k: int) -> TruncatedSeries:
        """Multiply by the expansion variable to the k-th power (exact)."""
        return TruncatedSeries(self.variable, {p + k: c for p, c in self.coeffs.items()},
                               self.order + k)

    def times_power(self, symbol: str, k: int) -> TruncatedSeries:
        """Multiply by symbol**k (exact): shifts the powers when the symbol
        carries the expansion variable, else scales every coefficient."""
        m_power, g_power = {SYM_M: (k, 0), SYM_G: (0, k)}[symbol]
        return TruncatedSeries.combination(
            self.variable, [(Polynomial.constant(SYM_M, 1), self)], m_power, g_power)

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise SeriesOrderError(
                f"cannot extend guarantee from {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self.variable,
                               {p: c for p, c in self.coeffs.items() if p <= order},
                               order)

    @classmethod
    def combination(cls, variable: str,
                    pairs: list[tuple[Polynomial, TruncatedSeries]],
                    m_power: int = 0, g_power: int = 0) -> TruncatedSeries:
        """M**m_power * g**g_power times the sum of p * s over pairs of a
        polynomial p in M and a series s.  Where M carries the expansion
        variable, p * s is exact through s.order - p.degree (s.order for the
        zero polynomial), else through s.order.  Each power is one
        `RationalFunction.from_root_terms` sum, so it is reduced once."""
        powers = VARIABLE_POWER[variable]
        m_step = powers[SYM_M]
        shift = m_step * m_power + powers[SYM_G] * g_power
        order = min(s.order + m_step * max(p.degree, 0) for p, s in pairs) + shift
        terms: dict[int, list] = {}
        for p, s in pairs:
            # M**d moves the powers by m_step * d, or p scales every coefficient.
            parts = ([(m_step * d + shift, Fraction(b, p._content), _ONE)
                      for d, b in enumerate(p._num) if b] if m_step
                     else [(shift, Fraction(1, p._content), p._num)] if p._num else [])
            for q, c in s.coeffs.items():
                bottoms = [r for r, m in c._roots for _ in range(m)]
                for step, w, f in parts:
                    if q + step <= order:
                        terms.setdefault(q + step, []).append(
                            (w / c._content, (), bottoms, _imul(f, c._num)))
        symbol = COEFF_SYMBOL[variable]  # its power scales every coefficient
        k = m_power if symbol == SYM_M else g_power
        return cls(variable, {j: RationalFunction.from_root_terms(
            symbol, group, num_roots=[0] * k, den_roots=[0] * -k)
            for j, group in terms.items()}, order)

    def times_m_polynomial(self, p: Polynomial) -> TruncatedSeries:
        """Multiply by a polynomial in M: scales when M is the coefficient
        symbol, else shifts by the powers 1/M**d of p, losing p.degree
        guaranteed powers (none for the zero polynomial)."""
        if p.symbol != SYM_M:
            raise VariableMismatchError("expected a polynomial in M")
        return TruncatedSeries.combination(self.variable, [(p, self)])

    def evaluate(self, m_value, gamma_value) -> Fraction:
        """Exact value of the truncated sum at rational M and absorption values."""
        m_value, gamma_value = _as_fraction(m_value), _as_fraction(gamma_value)
        x = expansion_value(self.variable, m_value, gamma_value)
        c_at = m_value if self.coefficient_symbol == SYM_M else gamma_value
        total = Fraction(0)
        for p, c in self.coeffs.items():
            total += c.evaluate(c_at) * x**p
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variable == other.variable and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {c}" for p, c in self.terms())
        return (f"TruncatedSeries({self.variable}, order={self.order}, "
                f"{{{inner}}})")


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def widest_series_cache(fn):
    """Memoize fn(*key, order) -> TruncatedSeries by key alone: the widest
    series computed answers a lower order by `truncate`, exact since every
    coefficient through an order is, and only a wider order calls fn
    again.  `cache_info()` (a truncation is a hit) and `cache_clear()`
    work as for `functools.cache`."""
    widest: dict[tuple, TruncatedSeries] = {}
    counts = [0, 0]  # hits, misses

    @wraps(fn)
    def lookup(*args):
        series = widest.get(args[:-1])
        if series is not None and series.order >= args[-1]:
            counts[0] += 1
            return series.truncate(args[-1])
        counts[1] += 1
        widest[args[:-1]] = series = fn(*args)
        return series

    def cache_clear():
        widest.clear()
        counts[:] = 0, 0

    lookup.cache_info = lambda: _CacheInfo(*counts, None, len(widest))
    lookup.cache_clear = cache_clear
    return lookup


def laurent_expand_inverse_power(p: Polynomial, k: int, order: int) -> TruncatedSeries:
    """Exact expansion of p(M) * M**(-k), k >= 0, in powers of 1/M, up to `order`."""
    if p.symbol != SYM_M:
        raise VariableMismatchError("expected a polynomial in M")
    if p.is_zero:
        raise ValueError("expected a non-zero polynomial")
    return RationalFunction(p, Polynomial(SYM_M, (0, 1)) ** k).expand(VAR_INV_M, order)
