import sys
import threading

import numpy as np

from conftest import random_documents
from rubiconv import FilterBank, OpCounts, PackedSignal, build_plan, convolve, count_ops
from rubiconv.counting import add_complex_muls
from rubiconv.transform import convolve_cmuls


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


def test_each_thread_counts_only_its_own_work():
    rng = np.random.default_rng(42)
    lengths = [300, 17, 1, 129, 64]
    plan = build_plan(lengths, filter_len=32, k=16)
    signal = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 6))
    bank = FilterBank(rng.standard_normal((32, 6)))
    expected = convolve_cmuls(plan.layout, 6)
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def run(i):
        start.wait()
        with count_ops() as counts:
            for _ in range(3):
                convolve(plan, signal, bank)
        results[i] = counts.complex_muls

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [3 * expected] * 4
