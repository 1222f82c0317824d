import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaldim import BudgetExceeded, TreeSequence

sequences = st.lists(st.integers(min_value=3, max_value=9), min_size=1, max_size=4).map(
    lambda vs: TreeSequence(tuple(vs))
)


def product_by_repeated_addition(factors):
    total = 1
    for f in factors:
        acc = 0
        for _ in range(f):
            acc += total
        total = acc
    return total


def test_level_size_examples():
    assert TreeSequence((5, 5)).level_size(0) == 1
    assert TreeSequence((5, 7)).level_size(2) == 35
    seq = TreeSequence((5, 13, 133))
    assert seq.level_size(3) == 8645
    assert seq.level_size(3) == product_by_repeated_addition([5, 13, 133])


def test_level_size_out_of_range():
    with pytest.raises(ValueError):
        TreeSequence((5, 5)).level_size(3)


def test_value_semantics():
    seq = TreeSequence([5, 7.0])
    assert seq.valencies == (5, 7) and all(type(v) is int for v in seq.valencies)
    assert seq == TreeSequence(valencies=(5, 7)) and seq != TreeSequence((7, 5))
    assert seq != (5, 7) and (5, 7) != seq
    assert hash(seq) == hash(((5, 7),)) == hash(TreeSequence((5, 7)))
    assert repr(seq) == "TreeSequence(valencies=(5, 7))"
    with pytest.raises(AttributeError):
        seq.valencies = (9,)


def test_valency_floor():
    with pytest.raises(ValueError, match=r"^valency 2 < 3 makes the level action trivial$"):
        TreeSequence((5, 2))


def test_vertex_index_examples():
    seq = TreeSequence((5, 5))
    assert seq.vertex_index((1, 1)) == 1
    assert seq.vertex_index((2, 3)) == 8
    # oracle: position in the full lexicographic enumeration
    assert list(seq.vertices(2)).index((2, 3)) + 1 == 8
    assert seq.vertex_index((5, 5)) == 25


def test_vertex_index_range_errors():
    seq = TreeSequence((5, 5))
    with pytest.raises(ValueError):
        seq.vertex_index((6, 1))
    with pytest.raises(ValueError):
        seq.vertex_index((1, 0))
    with pytest.raises(ValueError):
        seq.vertex_index((1, 1, 1))


def test_from_text_round_trip():
    seq = TreeSequence.from_text("5,13,133")
    assert seq.valencies == (5, 13, 133)
    assert seq.to_text() == "5,13,133"
    with pytest.raises(ValueError):
        TreeSequence.from_text("")


def test_from_text_parses_an_entry_of_the_digit_budget():
    assert TreeSequence.from_text(" " + "9" * 100_000).valencies == (10**100_000 - 1,)
    with pytest.raises(BudgetExceeded, match=r"^valency entry 2 has 100001 characters "):
        TreeSequence.from_text("5," + "9" * 100_001)


@given(sequences)
def test_level_size_recurrence(seq):
    for n in range(len(seq)):
        assert seq.level_size(n + 1) == seq.level_size(n) * seq[n]


@given(sequences, st.data())
def test_index_round_trip(seq, data):
    n = data.draw(st.integers(min_value=0, max_value=len(seq)))
    i = data.draw(st.integers(min_value=1, max_value=seq.level_size(n)))
    v = next(v for j, v in enumerate(seq.vertices(n), 1) if j == i)
    assert seq.vertex_index(v) == i
    assert len(v) == n


@given(sequences, st.data())
def test_lexicographic_order_matches_index_order(seq, data):
    n = data.draw(st.integers(min_value=1, max_value=len(seq)))
    verts = list(seq.vertices(n))
    assert verts == sorted(verts)
    indices = [seq.vertex_index(v) for v in verts]
    assert indices == list(range(1, seq.level_size(n) + 1))
