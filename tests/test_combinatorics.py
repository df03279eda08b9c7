import itertools
import pickle
import random
import re
from fractions import Fraction
from math import factorial

import pytest

from hecke_bz.combinatorics import (
    Permutation,
    _weighted_characters,
    class_size,
    class_word,
    centralizer_order,
    conjugate_partition,
    hook_dimension,
    is_partition,
    length,
    min_coset_reps,
    mn_character,
    parse_partition,
    parse_permutation,
    partitions,
    reduced_word,
    render_permutation,
    sn_multiplicities,
    standard_tableaux,
    sym_group,
    vertical_strips,
)
from hecke_bz.finite_hecke import _s_left

from routes import cycle_type


class TestPermutations:
    def test_composition_convention(self):
        v = Permutation((2, 3, 1))
        w = Permutation((2, 1, 3))
        assert v * w == (3, 2, 1)

    def test_inverse_and_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            w = Permutation(tuple(rng.sample(range(1, 6), 5)))
            assert w * w.inverse() == Permutation.identity(5)
            assert length(w.inverse()) == length(w)

    def test_reduced_word_reconstructs(self):
        for w in sym_group(4):
            word = reduced_word(w)
            assert len(word) == length(w)
            acc = Permutation.identity(4)
            for a in word:
                acc = acc * Permutation.adjacent(4, a)
            assert acc == w

    def test_sym_group_ordering(self):
        G = sym_group(4)
        assert len(G) == 24
        assert G[0] == Permutation.identity(4)
        assert length(G[-1]) == 6
        lengths = [length(w) for w in G]
        assert lengths == sorted(lengths)

    def test_sym_group_refuses_a_negative_rank(self):
        assert sym_group(0) == (Permutation(()),)
        for make in (sym_group, partitions):
            with pytest.raises(ValueError, match="negative size"):
                make(-1)

    def test_min_coset_reps(self):
        for comp in ((2, 2), (1, 3), (3, 1), (2, 1, 1)):
            n = sum(comp)
            reps = min_coset_reps(n, comp)
            expected = factorial(n)
            for c in comp:
                expected //= factorial(c)
            assert len(reps) == expected
            bounds = []
            start = 1
            for c in comp:
                bounds.append((start, start + c))
                start += c
            for u in reps:
                pos = 0
                for lo, hi in bounds:
                    seg = u[pos:pos + (hi - lo)]
                    assert list(seg) == sorted(seg)
                    pos += hi - lo

    def test_parse_render_permutation(self):
        w = Permutation((3, 1, 2))
        assert parse_permutation(render_permutation(w)) == w

    @pytest.mark.parametrize("word", [(1, 1), (0, 1), (2,)])
    def test_non_permutations_are_refused(self, word):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(word)

    def test_parse_refuses_a_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            parse_permutation("1 1")

    def test_unchecked_builders_give_permutations(self):
        # identity, adjacent, products, inverses and _s_left build their
        # words unchecked; each must be what the checked route gives
        G = sym_group(4)
        made = [Permutation.identity(4)]
        made += [Permutation.adjacent(4, a) for a in range(1, 4)]
        made += [v * w for v in G for w in G]
        made += [w.inverse() for w in G]
        made += [_s_left(a, w)[0] for a in range(1, 4) for w in G]
        for w in made:
            assert type(w) is Permutation
            assert w == Permutation(tuple(w))
        for v in G:
            for w in G:
                assert v * w == Permutation(v(w(i)) for i in range(1, 5))
            assert v * v.inverse() == Permutation.identity(4)
            for a in range(1, 4):
                assert _s_left(a, v)[0] == Permutation.adjacent(4, a) * v

    def test_sorted_order_is_word_order(self):
        assert sorted(sym_group(4)) == [
            Permutation(p) for p in itertools.permutations(range(1, 5))]

    def test_a_permutation_is_its_word(self):
        assert Permutation.__eq__ is tuple.__eq__
        assert Permutation.__hash__ is tuple.__hash__
        for w in sym_group(3):
            word = tuple(w)
            assert w == word and hash(w) == hash(word)
            assert {word: "w"}[w] == "w"
        assert repr(Permutation((2, 1))) == "Permutation((2, 1))"

    def test_pickle_round_trip(self):
        # the --threads pool sends permutations between processes
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            for w in sym_group(3):
                back = pickle.loads(pickle.dumps(w, proto))
                assert type(back) is Permutation and back == w


class TestPartitions:
    def test_counts(self):
        assert len(partitions(5)) == 7
        assert len(partitions(7)) == 15
        assert len(partitions(8)) == 22

    def test_ordering_descending_lex(self):
        ps = partitions(5)
        assert ps[0] == (5,)
        assert ps[-1] == (1, 1, 1, 1, 1)
        assert list(ps) == sorted(ps, reverse=True)

    def test_conjugate(self):
        assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
        for lam in partitions(6):
            assert conjugate_partition(conjugate_partition(lam)) == lam

    def test_is_partition(self):
        assert is_partition((3, 1))
        assert not is_partition((1, 3))
        assert not is_partition((2, 0))

    def test_parse_render(self):
        assert parse_partition("3,2,1") == (3, 2, 1)
        with pytest.raises(ValueError):
            parse_partition("1,5")

    @pytest.mark.parametrize("text", ["3,,1", "3.0,1"])
    def test_parse_rejects_a_non_integer_part(self, text):
        with pytest.raises(ValueError,
                           match=f"^not a partition: '{re.escape(text)}'$"):
            parse_partition(text)


class TestVerticalStrips:
    def test_examples(self):
        assert set(vertical_strips((2, 1), 1)) == {(2,), (1, 1)}
        assert vertical_strips((3,), 2) == []
        assert vertical_strips((2, 2), 2) == [(1, 1)]
        assert vertical_strips((2, 2), 1) == [(2, 1)]
        assert vertical_strips((1, 1, 1), 3) == [()]

    def test_strip_shape_difference(self):
        for lam in partitions(6):
            for i in range(7):
                for mu in vertical_strips(lam, i):
                    assert sum(mu) == 6 - i
                    padded = tuple(mu) + (0,) * (len(lam) - len(mu))
                    assert all(m <= l and l - m <= 1
                               for m, l in zip(padded, lam))


class TestTableauxAndCharacters:
    def test_tableau_counts_match_hook_formula(self):
        for n in range(1, 8):
            for lam in partitions(n):
                tabs = standard_tableaux(lam)
                assert len(set(tabs)) == len(tabs) == hook_dimension(lam)

    def test_content_vectors_are_standard_fillings_in_last_letter_order(self):
        for n in range(1, 8):
            for lam in partitions(n):
                keys = []
                for c in standard_tableaux(lam):
                    shape, rows = fill_by_contents(c)
                    assert shape == lam, (lam, c)
                    # the row indices of n, n-1, ..., 2
                    keys.append(tuple(reversed(rows[1:])))
                assert keys == sorted(keys), lam

    def test_dimension_sum_of_squares(self):
        for n in range(1, 7):
            assert sum(hook_dimension(lam) ** 2
                       for lam in partitions(n)) == factorial(n)

    def test_known_character_values(self):
        assert mn_character((2, 1), (1, 1, 1)) == 2
        assert mn_character((2, 1), (2, 1)) == 0
        assert mn_character((2, 1), (3,)) == -1
        assert mn_character((2, 2), (2, 2)) == 2
        assert mn_character((2, 2), (3, 1)) == -1
        assert mn_character((2, 2), (4,)) == 0
        for mu in partitions(5):
            assert mn_character((5,), mu) == 1
            assert mn_character((1, 1, 1, 1, 1), mu) == \
                (-1) ** (5 - len(mu))

    def test_character_inputs_are_checked(self):
        # a shape that is not a partition, and a cycle type with a part
        # that is not a positive int, are refused, not evaluated
        for lam, mu in [((1, 2), (3,)), ((2.0, 1), (3,)), ((2, -1), (1,))]:
            with pytest.raises(ValueError, match="not a partition"):
                mn_character(lam, mu)
        for lam, mu in [((3,), (-1, 4)), ((2, 1), (0, 3)), ((2,), (1.0, 1))]:
            with pytest.raises(ValueError, match="cycle type"):
                mn_character(lam, mu)
        # the recursion holds for the parts of mu in any order
        assert mn_character((2, 1), (1, 2)) == 0
        assert mn_character((3, 1), (1, 3)) == mn_character((3, 1), (3, 1))

    def test_list_and_tuple_inputs_agree(self):
        # the cached cores key on tuples; a list is converted first
        assert standard_tableaux([2, 1]) == standard_tableaux((2, 1))
        assert mn_character([2, 1], [3]) == mn_character((2, 1), (3,)) == -1
        assert mn_character([2, 2], (3, 1)) == -1

    def test_column_orthogonality(self):
        for n in range(2, 7):
            for mu in partitions(n):
                for nu in partitions(n):
                    s = sum(mn_character(lam, mu) * mn_character(lam, nu)
                            for lam in partitions(n))
                    assert s == (centralizer_order(mu) if mu == nu else 0)

    def test_class_data(self):
        for n in range(2, 7):
            assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)
            for mu in partitions(n):
                w = Permutation.identity(n)
                for a in class_word(mu):
                    w = w * Permutation.adjacent(n, a)
                assert cycle_type(w) == mu
                assert length(w) == len(class_word(mu))

    def test_regular_representation_multiplicities(self):
        m = 4

        def trace_fn(mu):
            return Fraction(factorial(m)) if mu == (1,) * m else Fraction(0)

        mult = sn_multiplicities(trace_fn, m)
        for lam in partitions(m):
            assert mult[lam] == hook_dimension(lam)

    @pytest.mark.parametrize("m", range(9))
    def test_weighted_characters_are_the_direct_formula(self, m):
        table = _weighted_characters(m)
        assert table is _weighted_characters(m)
        assert table == tuple(tuple(class_size(mu) * mn_character(lam, mu)
                                    for mu in partitions(m))
                              for lam in partitions(m))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_multiplicities_are_the_direct_formula(self, m):
        # any class function: (1/m!) sum |class| trace chi_lambda, in
        # partitions(m) order, Fractions, whatever the traces' scale
        rng = random.Random(m)
        traces = {mu: rng.choice([-3, 0, 1, 7, Fraction(5, 2)])
                  for mu in partitions(m)}
        mult = sn_multiplicities(traces.__getitem__, m)
        assert list(mult) == list(partitions(m))
        for lam in partitions(m):
            want = Fraction(sum(class_size(mu) * traces[mu]
                                * mn_character(lam, mu)
                                for mu in partitions(m)), factorial(m))
            assert mult[lam] == want and type(mult[lam]) is Fraction


def fill_by_contents(c):
    """Place the letters 1, 2, ... in turn in the addable corner of the
    shape filled so far whose content (column - row) is c_k; addable
    corners have distinct contents.  Returns the final shape and the row
    of each letter; fails if some letter has no such corner."""
    shape, rows = [], []
    for k, content in enumerate(c, 1):
        for r in range(len(shape) + 1):
            length = shape[r] if r < len(shape) else 0
            if (r == 0 or shape[r - 1] > length) and length - r == content:
                break
        else:
            raise AssertionError(f"letter {k} of {c} has no addable corner")
        if r == len(shape):
            shape.append(0)
        shape[r] += 1
        rows.append(r)
    return tuple(shape), rows
