from collections import Counter, defaultdict
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from delaymoments.partitions import (
    ContainmentError,
    Partition,
    WeightMismatchError,
    character,
    character_row,
    class_size,
    contains,
    content_product,
    dimension,
    durfee,
    enumerate_partitions,
    lr_coefficient,
    schur_product,
    skew_contents,
    skew_tableaux,
    strip_expansion,
    subpartitions,
)
from delaymoments.engine import delay_schur_moment

from oracles import brute_schur_product, frobenius_character


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                         min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True)
    return Partition(parts)


def test_partition_construction_and_text_form():
    p = Partition((3, 1, 1))
    assert p.weight == 5 and p.length == 3
    assert str(p) == "3,1,1"
    assert Partition.parse("3,1,1") == p
    assert Partition.parse("") == Partition() == Partition.parse("0")
    assert str(Partition()) == "0"
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_enumerate_partitions_reverse_lex():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@given(st.integers(min_value=0, max_value=9))
def test_enumeration_is_sorted_and_complete(m):
    ps = enumerate_partitions(m)
    assert all(p.weight == m for p in ps)
    assert [p.parts for p in ps] == sorted((p.parts for p in ps), reverse=True)
    assert len(set(ps)) == len(ps)


def test_durfee_and_contents():
    assert durfee(()) == 0
    assert durfee((2, 1)) == 1
    assert durfee((3, 3, 2)) == 2
    assert content_product((1,)) == 1
    assert content_product(()) == 1
    assert content_product((2, 1)) == -1
    assert content_product((3,)) == 2


def test_contains():
    lam = Partition((2, 2))
    assert contains((), lam)
    assert contains((2, 1), (2, 2))
    assert not contains((3,), (2, 2))
    assert not contains((2, 2, 1), (2, 2))


def test_partition_boundary():
    # Outside input is validated where it enters, with the same messages.
    entry_points = (durfee, dimension, lambda p: contains(p, (3,)),
                    lambda p: contains((), p), skew_contents,
                    lambda p: skew_contents((3, 3), p),
                    lambda p: delay_schur_moment(p, "gamma", 1))
    for bad, message in (((1, 2), "parts must be non-increasing: (1, 2)"),
                         ([0], "parts must be positive: (0,)")):
        for entry in entry_points:
            with pytest.raises(ValueError) as exc:
                entry(bad)
            assert str(exc.value) == message
    # Generated shapes are Partitions that equal and hash as their tuples.
    shapes = [*enumerate_partitions(4), *enumerate_partitions(0),
              *subpartitions((2, 1)), *schur_product((2, 1), (1,)),
              *schur_product((2, 1), ()), *character_row((2, 1)),
              *character_row(())]
    for shape in shapes:
        assert type(shape) is Partition
        parts = tuple(shape)
        assert shape == parts and hash(shape) == hash(parts)
        assert Partition(parts) == shape and shape.parts == parts
    # The cached enumeration cannot be mutated by callers.
    assert type(enumerate_partitions(4)) is tuple
    assert enumerate_partitions(4) is enumerate_partitions(4)
    p = Partition((3, 1, 1))
    assert repr(p) == "Partition([3, 1, 1])" and p.conjugate() == (3, 1, 1)
    assert p.contains((2, 1)) and not p.contains((1, 1, 1, 1))


def test_parts_must_be_integers():
    # Nothing rounds or parses a part: Partition([2.5, 1]) used to be (2, 1)
    # and delay_schur_moment([1.9], ...) the moment of shape (1).
    for bad, message in (([2.5, 1], "parts must be integers: (2.5, 1)"),
                         (["3", "1"], "parts must be integers: ('3', '1')"),
                         ((2.0,), "parts must be integers: (2.0,)"),
                         ([True, True], "parts must be integers: (True, True)")):
        with pytest.raises(ValueError) as exc:
            Partition(bad)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="parts must be integers"):
        delay_schur_moment([1.9], "gamma", 1)
    # Text is still read as integers.
    assert Partition.parse("3,1") == Partition([3, 1])


def test_cached_products_validate_raw_tuples():
    # The cached entry points see outside input too; a non-partition is
    # refused on the cache miss instead of being expanded.
    message = "parts must be non-increasing: (1, 2)"
    for entry in (lambda: schur_product((1, 2), (1,)),
                  lambda: character_row((1, 2)),
                  lambda: skew_tableaux((1, 2), ()),
                  lambda: skew_tableaux((2, 2), (1, 2)),
                  lambda: strip_expansion((1, 2), (1,))):
        with pytest.raises(ValueError) as exc:
            entry()
        assert str(exc.value) == message


def test_skew_tableaux_refuses_shapes_that_do_not_nest():
    # Equal or smaller weight is not containment; the message is the one
    # skew_contents gives for the same pair.
    for outer, inner in (((2,), (1, 1)), ((3,), (1, 1)), ((2, 1), (3,))):
        with pytest.raises(ContainmentError) as exc:
            skew_tableaux(outer, inner)
        with pytest.raises(ContainmentError) as expected:
            skew_contents(outer, inner)
        assert str(exc.value) == str(expected.value)


def test_cached_entry_points_accept_any_partition_input():
    # Lists, tuples and Partitions name the same shape and share one cache
    # entry, which the tracer reads through `cache_info`.
    forms = ([2, 1], (2, 1), Partition((2, 1)))
    for entry, args in ((schur_product, ((1,),)), (character_row, ()),
                        (skew_tableaux, ((1,),))):
        results = [entry(form, *args) for form in forms]
        assert results[0] == results[1] == results[2]
    assert schur_product([2, 1], [1]) is schur_product(Partition((2, 1)), (1,))
    assert character_row([2, 1]) is character_row((2, 1))
    assert schur_product([2, 1], [1]) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    assert character_row([2, 1]) == {(3,): 1, (1, 1, 1): -1}
    assert skew_tableaux([2, 1], [1]) == 2
    assert lr_coefficient([2, 1], [1], [3, 1]) == 1
    for entry in (schur_product, character_row):
        assert entry.cache_info().currsize >= 1


def test_subpartitions_of_21():
    subs = [p.parts for p in subpartitions((2, 1))]
    assert subs == [(2, 1), (2,), (1, 1), (1,), ()]


def test_dimension_known_values():
    for n in range(1, 7):
        assert dimension((n,)) == 1
    assert dimension((2, 1)) == 2
    assert dimension((2, 2)) == 2
    assert dimension(()) == 1
    assert dimension((5, 4, 1)) == 288


@given(st.integers(min_value=1, max_value=8))
def test_dimension_equals_character_at_identity(n):
    ones = (1,) * n
    for nu in enumerate_partitions(n):
        assert dimension(nu) == character(nu, ones)


def test_class_size_examples():
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((2,)) == 1
    assert class_size((2, 2)) == 3


@given(st.integers(min_value=0, max_value=10))
def test_class_sizes_sum_to_group_order(m):
    assert sum(class_size(b) for b in enumerate_partitions(m)) == factorial(m)


def test_character_examples():
    assert character((1, 1), (2,)) == -1
    assert character((2, 1), (3,)) == -1
    assert character((2, 2), (2, 1, 1)) == 0
    assert character((), ()) == 1
    with pytest.raises(WeightMismatchError):
        character((2,), (1,))


def test_character_against_alternant_oracle():
    for n in range(0, 6):
        for mu in enumerate_partitions(n):
            for beta in enumerate_partitions(n):
                assert character(mu, beta) == \
                    frobenius_character(mu.parts, beta.parts), (mu, beta)


def test_character_row_matches_single_characters():
    for n in range(0, 8):
        for beta in enumerate_partitions(n):
            row = character_row(beta.parts)
            for mu in enumerate_partitions(n):
                assert row.get(mu.parts, 0) == character(mu, beta)


@given(st.integers(min_value=1, max_value=7))
def test_character_orthogonality(m):
    chis = {beta.parts: character_row(beta.parts)
            for beta in enumerate_partitions(m)}
    shapes = [p.parts for p in enumerate_partitions(m)]
    for i, mu in enumerate(shapes):
        for nu in shapes[i:]:
            total = sum(class_size(beta) * chis[beta].get(mu, 0)
                        * chis[beta].get(nu, 0)
                        for beta in chis)
            assert total == (factorial(m) if mu == nu else 0)


def test_strip_expansion_against_oracles():
    # s_mu * p_beta = sum over rho of chi^rho(beta) * s_mu * s_rho, with the
    # characters from the alternant and the products from polynomials.
    nvars = 6
    for total in range(0, 7):
        for mu_weight in range(0, total + 1):
            for mu in enumerate_partitions(mu_weight):
                for beta in enumerate_partitions(total - mu_weight):
                    want: dict[tuple[int, ...], int] = defaultdict(int)
                    for rho in enumerate_partitions(total - mu_weight):
                        chi = frobenius_character(rho.parts, beta.parts)
                        for nu, c in brute_schur_product(
                                mu.parts, rho.parts, nvars).items():
                            want[nu] += chi * c
                    full = strip_expansion(mu, beta)
                    assert full == {nu: c for nu, c in want.items() if c}, (mu, beta)
                    # The Durfee-bounded expansion is the full one restricted
                    # to the bound, also below mu's own Durfee square.
                    for d in range(0, 4):
                        assert strip_expansion(mu, beta, d) == {
                            nu: c for nu, c in full.items() if durfee(nu) <= d}


def _principal_specialisation(shape, n):
    """s_shape(1^n) by the hook-content formula: the product of n + content
    over the cells divided by the product of the hook lengths (an integer
    for every integer n)."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
    contents, hooks = 1, 1
    for i, row in enumerate(shape):
        for j in range(row):
            contents *= n + j - i
            hooks *= row - j + columns[j] - i - 1
    value, rest = divmod(contents, hooks)
    assert not rest
    return value


def _assert_principal_specialisation(mu, beta, expansion):
    # p_k(1^n) = n, so s_mu * p_beta at 1^n is s_mu(1^n) * n**len(beta).  Both
    # sides are polynomials in n of degree |mu| + |beta| <= 12, so 13 points
    # make it an identity.
    for n in range(-6, 7):
        assert sum(c * _principal_specialisation(nu, n) for nu, c in expansion.items()) \
            == _principal_specialisation(mu, n) * n ** len(beta), (mu, beta, n)


def test_strip_expansion_by_principal_specialisation():
    # Beyond the range of the polynomial oracles: |mu| + |beta| from 7 to 12.
    for total in range(7, 13):
        for mu_weight in (0, 3, 5):
            for mu in enumerate_partitions(mu_weight):
                for beta in enumerate_partitions(total - mu_weight):
                    if 1 in beta:
                        # Fixed points: the large-M sum has none.
                        continue
                    full = strip_expansion(mu, beta)
                    _assert_principal_specialisation(mu, beta, full)
                    for d in range(0, 4):
                        assert strip_expansion(mu, beta, d) == {
                            nu: c for nu, c in full.items() if durfee(nu) <= d}


def test_strip_expansion_keeps_the_tallest_shape():
    # One 7-strip on a column of 5: the vertical strip reaches row 12, the
    # most rows any shape of the product can have, so every bead is used.
    mu, beta = (1,) * 5, (7,)
    full = strip_expansion(mu, beta)
    _assert_principal_specialisation(mu, beta, full)
    assert full[(1,) * 12] == 1 and full[(8, 1, 1, 1, 1)] == 1
    assert max(map(len, full)) == 12
    for d in range(0, 4):
        assert strip_expansion(mu, beta, d) == {
            nu: c for nu, c in full.items() if durfee(nu) <= d}


def test_lr_coefficient_examples():
    assert lr_coefficient((2, 1), (), (2, 1)) == 1
    assert lr_coefficient((2, 1), (), (3,)) == 0
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (1,), (3,)) == 0


def test_lr_symmetry_and_dimension_sum():
    for wa in range(0, 5):
        for wb in range(0, 9 - wa):
            if wa + wb > 8:
                continue
            for mu in enumerate_partitions(wa):
                for rho in enumerate_partitions(wb):
                    prod = schur_product(mu.parts, rho.parts)
                    flipped = schur_product(rho.parts, mu.parts)
                    assert prod == flipped
                    total = sum(c * dimension(nu) for nu, c in prod.items())
                    assert total == dimension(mu) * dimension(rho) * \
                        comb(wa + wb, wa)


def test_cached_mappings_are_read_only():
    prod = schur_product((2, 1), (2,))
    with pytest.raises(TypeError):
        prod[(4, 1)] = 5
    assert schur_product((2, 1), (2,))[(4, 1)] == 1
    row = character_row((2, 1))
    with pytest.raises(TypeError):
        row[(3,)] = 7
    assert character_row((2, 1)) == {(3,): 1, (1, 1, 1): -1}


def test_pieri_row():
    prod = schur_product((2, 1), (2,))
    assert prod == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}
