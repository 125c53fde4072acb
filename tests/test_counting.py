from rubiconv import OpCounts, count_ops
from rubiconv.counting import add_complex_muls


def test_nested_blocks_with_equal_tallies_keep_their_own_counters():
    with count_ops() as outer:
        with count_ops() as inner:
            pass
        add_complex_muls(5)
    assert outer == OpCounts(complex_muls=5, real_muls=20)
    assert inner == OpCounts()


def test_nested_block_counts_into_every_open_block():
    with count_ops() as outer:
        add_complex_muls(1, real_muls_each=3)
        with count_ops() as inner:
            add_complex_muls(2)
        add_complex_muls(4)
    assert inner == OpCounts(complex_muls=2, real_muls=8)
    assert outer == OpCounts(complex_muls=7, real_muls=27)


def test_counting_stops_when_the_block_exits():
    with count_ops() as counts:
        pass
    add_complex_muls(5)
    assert counts == OpCounts()
