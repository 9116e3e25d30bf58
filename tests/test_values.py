"""Value behaviour shared by the package's immutable classes: equality within
one class only, hashing, repr, refused assignment, and the constructors'
call forms."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from seaweeds import (
    NULL,
    BiComposition,
    Composition,
    ParabolicLetter,
    ParabolicWord,
    SeaweedLetter,
    SeaweedWord,
    build_meander,
    census,
    delta_decompose,
    w_sequence,
    word_stats,
)
from seaweeds.counting import CountTable, PolyFit, VerifyReport, VerifyRow, _Kind, _kind
from seaweeds.meander import ComponentCensus, MeanderGraph
from seaweeds.parabolic_words import letter_p
from seaweeds.seaweed_words import (
    SEED,
    DeltaDecomposition,
    WordStats,
    WSequence,
    _Letter,
    _Word,
    letter,
)

THE_SIXTEEN = (
    Composition, BiComposition,
    _Letter, _Word, SeaweedLetter, WordStats, WSequence, DeltaDecomposition,
    ParabolicLetter,
    MeanderGraph, ComponentCensus,
    _Kind, CountTable, PolyFit, VerifyRow, VerifyReport,
)

WORD = SeaweedWord.parse("S+0 T+1 S-2")
FIT = PolyFit(2, 1, (Fraction(20), Fraction(2)), 3, (1, 40))
ROW = VerifyRow("F_2", True, ("seaweed t=2: fit 2T+20",), (FIT,))


# the eight records that take _Value's constructor, and the two letter
# classes that call it before their checks, each with the fields of one
# instance in order
RECORDS = [
    (SeaweedLetter, ("T", -1, 2)),
    (ParabolicLetter, ("S", True, 1)),
    (WordStats, (3, 1, 1, 1, 0)),
    (WSequence, ((1, 3), 1)),
    (DeltaDecomposition, ((WORD,),)),
    (ComponentCensus, (0, 1)),
    (_Kind, ("seaweed", None, 1, ((1,), (1,)))),
    (PolyFit, (2, 1, (Fraction(20), Fraction(2)), 3, (1, 40), 0)),
    (VerifyRow, ("F_2", True, ("seaweed t=2: fit 2T+20",), (FIT,))),
    (VerifyReport, ((ROW,),)),
]


def one_of_each():
    """An instance of each value class, two for the abstract letter and word,
    each with the name of one of its fields."""
    pair = BiComposition(Composition((2, 1)), Composition((3,)))
    return [
        (Composition((2, 1)), "parts"),
        (pair, "minus"),
        (letter("S", 1, 0), "sign"),
        (WORD, "letters"),
        (word_stats(WORD), "tau_plus"),
        (w_sequence(WORD, SEED), "beta"),
        (delta_decompose(WORD, SEED), "blocks"),
        (letter_p("T", True, 1), "tilde"),
        (ParabolicWord.parse("S~0 T1"), "letters"),
        (build_meander(pair), "top_arcs"),
        (census(build_meander(pair)), "cycles"),
        (_kind("parabolic-even"), "seed"),
        (CountTable("seaweed", "brute", {(3, 2): 4}), "entries"),
        (FIT, "epsilon"),
        (ROW, "fits"),
        (VerifyReport((ROW,)), "rows"),
    ]


def twins():
    """Pairs of equal values built apart, one per hashable class."""
    return [
        (Composition((2, 1)), Composition.parse("2,1")),
        (BiComposition.parse("2,1|3"), BiComposition(Composition((2, 1)), Composition((3,)))),
        (SeaweedLetter("T", -1, 2), letter("T", -1, 2)),
        (ParabolicLetter("S", True, 0), letter_p("S", True, 0)),
        (SeaweedWord.parse("S+0 T-1"), SeaweedWord((letter("S", 1, 0), letter("T", -1, 1)))),
        (ParabolicWord.parse("S~0"), ParabolicWord((letter_p("S", True, 0),))),
        (word_stats(WORD), WordStats(3, 1, 1, 1, 0)),
        (w_sequence(WORD, SEED), w_sequence(SeaweedWord.parse("S+0 T+1 S-2"), SEED)),
        (delta_decompose(WORD, SEED), delta_decompose(SeaweedWord(WORD.letters), SEED)),
        (build_meander(BiComposition.parse("2,1|3")), build_meander(BiComposition.parse("2,1|3"))),
        (ComponentCensus(0, 1), ComponentCensus(cycles=0, paths=1)),
        (_kind("seaweed"), _Kind("seaweed", None, 1, ((1,), (1,)))),
        (FIT, PolyFit(2, 1, (Fraction(20), Fraction(2)), 3, (1, 40), None)),
        (ROW, VerifyRow("F_2", True, ("seaweed t=2: fit 2T+20",), (FIT,))),
        (VerifyReport((ROW,)), VerifyReport((ROW,))),
    ]


def test_one_instance_of_each_of_the_sixteen_classes():
    covered = {cls for value, _ in one_of_each() for cls in type(value).__mro__}
    assert set(THE_SIXTEEN) <= covered


class TestEquality:
    def test_only_within_one_class(self):
        assert SeaweedWord(()) != ParabolicWord(())
        assert ParabolicWord(()) != SeaweedWord(())
        assert Composition((1,)) != (1,)
        assert (1,) != Composition((1,))
        assert ComponentCensus(0, 1) != (0, 1)
        assert letter("S", 1, 0) != letter_p("S", False, 0)

    def test_other_classes_get_not_implemented(self):
        assert Composition((1,)).__eq__((1,)) is NotImplemented
        assert SeaweedWord(()).__eq__(ParabolicWord(())) is NotImplemented

    @pytest.mark.parametrize("a, b", twins())
    def test_equal_values_hash_equal_and_collapse_in_a_set(self, a, b):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_values_are_unequal(self):
        assert Composition((1, 2)) != Composition((2, 1))
        assert BiComposition.parse("1,2|3") != BiComposition.parse("3|1,2")
        assert letter("S", 1, 0) != letter("S", -1, 0)
        assert ComponentCensus(0, 1) != ComponentCensus(1, 0)
        assert FIT != PolyFit(2, 1, FIT.coefficients, 3, (1, 40), 0)

    def test_count_table_compares_its_entries_and_is_unhashable(self):
        table = CountTable("seaweed", "brute", {(3, 2): 4})
        assert table == CountTable("seaweed", "brute", {(3, 2): 4})
        assert table != CountTable("seaweed", "generated", {(3, 2): 4})
        assert table != CountTable("seaweed", "brute", {(3, 2): 5})
        with pytest.raises(TypeError):
            hash(CountTable("seaweed", "brute"))


class TestLetters:
    def test_seaweed_letter_equality_and_hash_ignore_text(self):
        fresh = SeaweedLetter("S", 1, 0)
        object.__setattr__(fresh, "text", "another token")
        assert fresh == letter("S", 1, 0)
        assert hash(fresh) == hash(letter("S", 1, 0)) == hash(("S", 1, 0))

    def test_factories_intern_their_letters(self):
        assert letter("S", 1, 0) is letter("S", 1, 0)
        assert letter_p("T", True, 3) is letter_p("T", True, 3)
        assert SeaweedLetter.parse("S+0") is letter("S", 1, 0)
        assert SeaweedWord.parse("S+0 S+0").letters[0] is SeaweedWord.parse("S+0").letters[0]


@pytest.mark.parametrize(
    "value, name", one_of_each(), ids=lambda x: x if isinstance(x, str) else type(x).__name__
)
class TestImmutable:
    def test_assigning_a_field_raises(self, value, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        assert getattr(value, name) is before

    def test_deleting_a_field_raises(self, value, name):
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert hasattr(value, name)

    def test_pickle_round_trip(self, value, name):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value and repr(copy) == repr(value)


class TestConstructors:
    def test_positional_and_keyword_calls(self):
        assert Composition(parts=(1, 2)) == Composition([1, 2]) == Composition((1, 2))
        assert BiComposition(plus=Composition((1,)), minus=Composition((1,))) == SEED
        assert MeanderGraph(2, frozenset({(1, 2)}), frozenset()) == MeanderGraph(
            n=2, top_arcs=frozenset({(1, 2)}), bottom_arcs=frozenset()
        )
        assert ComponentCensus(cycles=1, paths=2) == ComponentCensus(1, 2)
        assert SeaweedLetter(family="T", sign=-1, m=2) is not letter("T", -1, 2)
        assert SeaweedLetter(family="T", sign=-1, m=2) == letter("T", -1, 2)
        assert ParabolicLetter(family="S", tilde=False, m=1) == letter_p("S", False, 1)
        assert SeaweedWord() == SeaweedWord(()) == SeaweedWord(letters=())
        assert WSequence((1, 3), beta=1) == WSequence(values=(1, 3), beta=1)
        assert WordStats(3, 1, 1, 0, 1).sigma == 2
        assert DeltaDecomposition(blocks=(WORD,)).q == 0
        assert CountTable(kind="seaweed", method="brute", entries={(1, 1): 1}).count(1, 1) == 1
        assert VerifyReport(rows=(ROW,)).all_match

    def test_count_table_gets_its_own_empty_entries(self):
        a, b = CountTable("seaweed", "brute"), CountTable("seaweed", "brute")
        assert a.entries == {} and a.entries is not b.entries

    def test_poly_fit_defaults_epsilon_to_none(self):
        assert FIT.epsilon is None
        assert PolyFit(0, 0, (Fraction(2),), 1, (1, 5), 1).epsilon == 1

    def test_poly_fit_built_by_keyword_defaults_epsilon_to_none(self):
        fit = PolyFit(t=2, degree=1, coefficients=FIT.coefficients, stable_from=3, window=(1, 40))
        assert fit.epsilon is None and fit == FIT

    @pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
    def test_record_built_by_keyword_equals_the_positional_build(self, cls, args):
        by_keyword = cls(**dict(zip(cls._fields, args)))
        assert by_keyword == cls(*args) and repr(by_keyword) == repr(cls(*args))
        first, rest = cls._fields[0], dict(zip(cls._fields[1:], args[1:]))
        assert cls(args[0], **rest) == cls(*args) == cls(**rest, **{first: args[0]})

    @pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
    def test_record_refuses_a_bad_call(self, cls, args):
        first, rest = cls._fields[0], dict(zip(cls._fields[1:], args[1:]))
        with pytest.raises(TypeError, match=f"missing .*'{first}'"):
            cls(**rest)
        with pytest.raises(TypeError, match="takes"):
            cls(*args, None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*args, bogus=None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*args, **{first: args[0]})

    def test_composition_copies_its_parts_into_a_tuple(self):
        assert Composition([3, 1]).parts == (3, 1)

    def test_constructors_still_validate(self):
        with pytest.raises(ValueError, match="at least one part"):
            Composition(())
        with pytest.raises(ValueError, match="equal sums"):
            BiComposition(Composition((1,)), Composition((2,)))
        with pytest.raises(ValueError, match="sign must be"):
            SeaweedLetter("S", 0, 0)
        with pytest.raises(ValueError, match="family must be"):
            ParabolicLetter("U", False, 0)
        with pytest.raises(ValueError, match="index m must be"):
            ParabolicLetter("S", True, -1)
        with pytest.raises(ValueError, match="leaves the vertex range"):
            MeanderGraph(2, frozenset({(1, 3)}), frozenset())


class TestRepr:
    def test_letters_show_their_fields_without_text(self):
        assert repr(letter("S", 1, 0)) == "SeaweedLetter(family='S', sign=1, m=0)"
        assert repr(letter_p("T", True, 2)) == "ParabolicLetter(family='T', tilde=True, m=2)"

    def test_field_reprs(self):
        assert repr(Composition((2, 1))) == "Composition(parts=(2, 1))"
        assert repr(SEED) == (
            "BiComposition(plus=Composition(parts=(1,)), minus=Composition(parts=(1,)))"
        )
        assert repr(SeaweedWord.parse("S+0")) == (
            "SeaweedWord(letters=(SeaweedLetter(family='S', sign=1, m=0),))"
        )
        assert repr(ParabolicWord(())) == "ParabolicWord(letters=())"
        assert repr(ComponentCensus(0, 1)) == "ComponentCensus(cycles=0, paths=1)"
        assert repr(WSequence((1,), 0)) == "WSequence(values=(1,), beta=0)"
        assert repr(WordStats(1, 1, 0, 0, 0)) == (
            "WordStats(ell=1, sigma_plus=1, sigma_minus=0, tau_plus=0, tau_minus=0)"
        )
        assert repr(MeanderGraph(2, frozenset({(1, 2)}), frozenset())) == (
            "MeanderGraph(n=2, top_arcs=frozenset({(1, 2)}), bottom_arcs=frozenset())"
        )
        assert repr(_kind("parabolic-odd")) == (
            "_Kind(name='parabolic-odd', epsilon=1, unit=2, seed=((1,),))"
        )
        assert repr(CountTable("seaweed", "brute")) == (
            "CountTable(kind='seaweed', method='brute', entries={})"
        )
        assert repr(FIT) == (
            "PolyFit(t=2, degree=1, coefficients=(Fraction(20, 1), Fraction(2, 1)), "
            "stable_from=3, window=(1, 40), epsilon=None)"
        )
        assert repr(VerifyReport(())) == "VerifyReport(rows=())"
        assert repr(DeltaDecomposition(())) == "DeltaDecomposition(blocks=())"
        assert repr(VerifyRow("x", False, (), (None,))) == (
            "VerifyRow(name='x', matched=False, details=(), fits=(None,))"
        )

    def test_null_element_shows_its_name(self):
        assert repr(NULL) == "NULL"


def test_a_composition_has_the_length_and_iteration_of_its_parts():
    assert len(Composition((2, 1, 2))) == 3
    assert tuple(Composition((2, 1, 2))) == (2, 1, 2)


def test_a_product_of_words_over_the_two_alphabets_raises():
    with pytest.raises(TypeError):
        SeaweedWord.parse("S+0") * ParabolicWord.parse("S~1")
    with pytest.raises(TypeError):
        ParabolicWord.parse("S~1") * SeaweedWord.parse("S+0")
    assert SeaweedWord.parse("S+0") * SeaweedWord.parse("T-1") == SeaweedWord.parse("S+0 T-1")


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    """The package's import cost is part of every CLI call; pytest itself
    imports dataclasses, so a fresh interpreter is asked."""
    code = (
        "import seaweeds, seaweeds.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
