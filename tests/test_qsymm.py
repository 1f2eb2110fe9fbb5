import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgenus import qsymm
from hopfgenus.core import InvariantError
from hopfgenus.qsymm import (
    GeneratorProfile,
    QSymmElement,
    format_composition,
    free_algebra_hilbert,
    lyndon_generators,
    parse_composition,
    quasi_shuffle,
)
from hopfgenus.rational import Q

compositions = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)


def M(*alpha):
    return QSymmElement.monomial(tuple(alpha))


class TestCompositions:
    def test_parse_format_roundtrip(self):
        for text in ["(2,1,3)", "(1)", "()"]:
            assert format_composition(parse_composition(text)) == text

    def test_bad_part(self):
        with pytest.raises(ValueError):
            parse_composition("(2,0)")

    @pytest.mark.parametrize("text", ["(2,a)", "(2,,3)"])
    def test_malformed_part(self, text):
        message = "composition must look like (2,1,3): %r" % text
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_composition(text)

    @pytest.mark.parametrize("alpha", [(2.5,), (2, 1.0), ("2",), (True, 2)], ids=repr)
    def test_parts_must_be_integers(self, alpha):
        message = "composition parts must be integers: %r" % (alpha,)
        with pytest.raises(ValueError, match=re.escape(message)):
            QSymmElement.monomial(alpha)


class TestQuasiShuffle:
    def test_square_of_m1(self):
        assert M(1) * M(1) == M(1, 1).scale(Q(2)) + M(2)

    def test_m2_times_m3(self):
        prod = M(2) * M(3)
        assert prod == M(2, 3) + M(3, 2) + M(5)

    def test_unit(self):
        assert QSymmElement.one() * M(2, 1) == M(2, 1)

    @given(compositions, compositions)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        x, y = QSymmElement.monomial(a), QSymmElement.monomial(b)
        assert x * y == y * x

    @given(compositions, compositions, compositions)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_associative(self, a, b, c):
        x, y, z = (QSymmElement.monomial(w) for w in (a, b, c))
        assert (x * y) * z == x * (y * z)

    @given(compositions, compositions)
    @settings(max_examples=40, deadline=None)
    def test_weight_graded(self, a, b):
        prod = QSymmElement.monomial(a) * QSymmElement.monomial(b)
        for alpha in prod.terms:
            assert sum(alpha) == sum(a) + sum(b)


_PROFILES = ["all", "odd:1", "odd:3", "set:2,3", "arith:2:3", "set:1,4,6"]


def _lyndon_by_rotations(n, profile):
    """Test-only copy of the former enumerator: every composition of n over
    the alphabet, kept when it is smaller than all its proper rotations."""
    alphabet = profile.weights_upto(n)

    def words(total):
        if total == 0:
            yield ()
            return
        for a in alphabet:
            if a <= total:
                for rest in words(total - a):
                    yield (a,) + rest

    return sorted(
        w for w in words(n) if w and all(w < w[i:] + w[:i] for i in range(1, len(w)))
    )


class TestLyndon:
    def test_small_weights_all(self):
        assert lyndon_generators(2) == [(2,)]
        assert lyndon_generators(3) == [(1, 2), (3,)]
        assert lyndon_generators(4) == [(1, 1, 2), (1, 3), (4,)]

    def test_odd_profile_weight_one_empty(self):
        assert lyndon_generators(1, GeneratorProfile.odd_from(3)) == []

    def test_counts_match_free_lie_dimensions(self):
        # Lyndon words of weight n are a basis of the free Lie algebra
        # on one generator per weight; compare with the log-series route
        lie = free_algebra_hilbert(GeneratorProfile.all_positive(), 8, "lie")
        for n in range(1, 9):
            assert len(lyndon_generators(n)) == lie[n]

    @pytest.mark.parametrize("text", _PROFILES)
    def test_matches_enumerate_and_filter(self, text):
        profile = GeneratorProfile.from_text(text)
        lie = free_algebra_hilbert(profile, 14, "lie")
        for n in range(1, 15):
            words = lyndon_generators(n, profile)
            assert words == _lyndon_by_rotations(n, profile), (text, n)
            assert len(words) == lie[n], (text, n)

    @pytest.mark.parametrize("text", _PROFILES)
    def test_polynomial_on_lyndon_equals_associative(self, text, monkeypatch):
        # Chen-Fox-Lyndon: words are nonincreasing products of Lyndon words;
        # the series takes one factor per weight, counted by the enumeration
        profile = GeneratorProfile.from_text(text)
        asked = []

        def spy(n, p):
            asked.append(n)
            return lyndon_generators(n, p)

        monkeypatch.setattr(qsymm, "lyndon_generators", spy)
        for bound in range(1, 17):
            asked.clear()
            assert free_algebra_hilbert(profile, bound, "polynomial-on-lyndon") == (
                free_algebra_hilbert(profile, bound, "associative")
            ), bound
            assert asked == list(range(1, bound + 1)), bound


class TestHilbert:
    def test_associative_all(self):
        assert free_algebra_hilbert(GeneratorProfile.all_positive(), 4) == [
            1,
            1,
            2,
            4,
            8,
        ]

    def test_associative_odd3(self):
        dims = free_algebra_hilbert(GeneratorProfile.odd_from(3), 8)
        assert dims == [1, 0, 0, 1, 0, 1, 1, 1, 2]

    def test_polynomial_on_lyndon_is_qsymm(self):
        dims = free_algebra_hilbert(
            GeneratorProfile.all_positive(), 12, "polynomial-on-lyndon"
        )
        assert dims == [1] + [2 ** (n - 1) for n in range(1, 13)]

    def test_lie_witt(self):
        dims = free_algebra_hilbert(GeneratorProfile.all_positive(), 6, "lie")
        assert dims == [0, 1, 1, 2, 3, 6, 9]

    def test_lie_integrality_is_checked(self, monkeypatch):
        log_series = qsymm._log_int_series

        def off_by_a_third(coeffs, bound):
            out = log_series(coeffs, bound)
            out[2] += Q(1, 3)
            return out

        monkeypatch.setattr(qsymm, "_log_int_series", off_by_a_third)
        with pytest.raises(InvariantError):
            free_algebra_hilbert(GeneratorProfile.all_positive(), 4, "lie")

    def test_profile_from_text(self):
        assert GeneratorProfile.from_text("odd:3").weights_upto(9) == [3, 5, 7, 9]
        assert GeneratorProfile.from_text("set:3,5").weights_upto(9) == [3, 5]
        assert GeneratorProfile.from_text("arith:2:4").weights_upto(11) == [2, 6, 10]
        with pytest.raises(ValueError):
            GeneratorProfile.from_text("junk")

    @pytest.mark.parametrize("text,weight", [("set:2,2", 2), ("set:3,5,3", 3)])
    def test_repeated_weight_is_rejected(self, text, weight):
        # letters are told apart by weight alone, so a set names each once
        with pytest.raises(ValueError, match="repeats weight %d$" % weight):
            GeneratorProfile.from_text(text)
        with pytest.raises(ValueError, match="repeats weight %d$" % weight):
            GeneratorProfile(explicit=tuple(int(w) for w in text[4:].split(",")))

    @pytest.mark.parametrize("text", ["arith:1", "arith:1:2:3", "odd:x", "set:", "set:3,,5", "set:a"])
    def test_malformed_profile_names_the_text(self, text):
        with pytest.raises(ValueError) as info:
            GeneratorProfile.from_text(text)
        assert str(info.value) == "cannot parse profile %r" % text
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("odd:2", "odd profile must start at an odd weight"),
            ("arith:0:1", "profile weights must be positive"),
            ("arith:1:0", "profile weights must be positive"),
            ("set:0", "explicit profile must be nonempty positive"),
            ("set:3,-1", "explicit profile must be nonempty positive"),
        ],
    )
    def test_out_of_range_profile_keeps_its_message(self, text, message):
        with pytest.raises(ValueError) as info:
            GeneratorProfile.from_text(text)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GeneratorProfile(explicit=()), "explicit profile must be nonempty positive"),
        (lambda: lyndon_generators(0), "weight must be positive"),
        (lambda: free_algebra_hilbert(GeneratorProfile.all_positive(), 0), "bound must be positive"),
        (lambda: free_algebra_hilbert(GeneratorProfile.all_positive(), 4, "free"), "unknown flavor 'free'"),
        (lambda: qsymm.polynomial_hilbert([2, 0], 4), "degrees must be positive"),
    ],
    ids=["empty-profile", "lyndon-weight", "hilbert-bound", "hilbert-flavor", "polynomial-degree"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
