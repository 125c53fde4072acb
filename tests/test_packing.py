import dataclasses
import math

import numpy as np
import pytest

import rubiconv.packing
from conftest import random_doc_lengths
from rubiconv import (
    FilterBank,
    PackedSignal,
    build_ct_layout,
    build_layout,
    build_operator,
    build_plan,
    convolve,
    dft_matrix,
    oracle_convolve,
)
from rubiconv.packing import IndexMap, build_p1, build_p2, build_pre_ifft_map


def test_layout_single_doc_padding():
    layout = build_layout([5], filter_len=3, k=4)
    assert layout.padded_lengths == (8,)
    assert layout.cols_per_doc == (2,)


def test_layout_two_docs_long_filter():
    layout = build_layout([4, 8], filter_len=64, k=4)
    assert layout.padded_lengths == (8, 16)
    assert layout.cols_per_doc == (2, 4)
    assert layout.total_cols == 6
    assert layout.col_offsets == (0, 2)


def test_layout_degenerate_single_token():
    layout = build_layout([1], filter_len=1, k=1)
    assert layout.padded_lengths == (1,)
    assert layout.cols_per_doc == (1,)


@pytest.mark.parametrize(
    "doc_lengths, filter_len, k",
    [([0], 1, 1), ([3, 0], 2, 4), ([3], 0, 4), ([3], 2, 0), ([], 1, 1)],
)
def test_layout_invalid_arguments(doc_lengths, filter_len, k):
    with pytest.raises(ValueError):
        build_layout(doc_lengths, filter_len, k)


@pytest.mark.parametrize(
    "doc_lengths, filter_len", [([], 1), ([0], 1), ([3, 0], 2), ([3, -1], 2), ([3], 0), ([3], -4)]
)
def test_layout_builders_reject_the_same_inputs(doc_lengths, filter_len):
    messages = []
    for build in (build_layout, build_ct_layout):
        with pytest.raises(ValueError) as err:
            build(doc_lengths, filter_len)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_sizes_with_a_fraction_are_rejected_and_whole_ones_accepted():
    fractional = (
        lambda: build_plan([3.7, 2], 2, 4),
        lambda: build_plan([3, 2], 2.9, 4),
        lambda: build_plan([3, 2], 2, 4.5),
        lambda: build_ct_layout([3.7, 2], 2),
        lambda: build_operator([2.5, 1], np.ones(2)),
        lambda: oracle_convolve([2.5, 1], np.ones(3), np.ones(2)),
        lambda: dft_matrix(2.5),
        lambda: build_plan([float("inf")], 2),
        lambda: build_plan([float("nan")], 2),
    )
    for call in fractional:
        with pytest.raises(ValueError, match="must be a whole number"):
            call()

    # Python and numpy integers and whole floats are the sizes they name.
    layout = build_plan([np.int64(3), 2.0], np.int32(2), 4.0).layout
    assert layout == build_layout([3, 2], 2, 4)
    assert all(type(v) is int for v in (*layout.doc_lengths, layout.filter_len, layout.k))
    assert build_ct_layout([3.0, np.int16(2)], 2.0) == build_ct_layout([3, 2], 2)
    assert np.array_equal(build_operator([3.0], np.ones(2)).blocks[0], [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    assert np.array_equal(oracle_convolve([2.0, 1], np.ones(3), np.ones(2)), [1, 2, 1])
    assert np.array_equal(dft_matrix(np.int64(4)), dft_matrix(4.0))


def test_layout_invariants_random():
    # Widths 3, 1, 3, 2, 3, 3: width order, then length, then document order.
    assert build_layout([12, 3, 9, 5, 10, 9], 1, 4).col_offsets == (12, 0, 3, 1, 9, 6)
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.choice([1, 2, 4, 16, 256]))
        filter_len = int(rng.choice([1, 7, 64, 512]))
        lengths = random_doc_lengths(rng)
        layout = build_layout(lengths, filter_len, k)
        for length, padded, m in zip(lengths, layout.padded_lengths, layout.cols_per_doc):
            expected = k * -(-(length + min(length, filter_len) - 1) // k)
            assert padded == expected
            assert padded % k == 0
            assert m == padded // k >= 1
            assert padded <= 2 * length + k  # padding never more than doubles plus k
        assert layout.total_cols == sum(layout.cols_per_doc)
        assert layout.total_padded == sum(layout.padded_lengths)
        # The blocks tile [0, total_cols) exactly once, in width order, then
        # length order, and equal widths and lengths keep document order.
        owner = np.full(layout.total_cols, -1)
        for doc, (off, m) in enumerate(zip(layout.col_offsets, layout.cols_per_doc)):
            assert 0 <= off and off + m <= layout.total_cols
            assert np.all(owner[off : off + m] == -1)
            owner[off : off + m] = doc
        assert np.all(owner >= 0)
        grid_order = np.argsort(layout.col_offsets)
        keys = [(layout.cols_per_doc[i], layout.doc_lengths[i], i) for i in grid_order]
        assert keys == sorted(keys)
        assert np.array_equal(layout._grid_lengths, np.asarray(lengths)[grid_order])


def test_width_groups_tile_the_grid_and_bound_each_document():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.choice([1, 2, 4, 16, 256]))
        layout = build_layout(random_doc_lengths(rng), int(rng.choice([1, 7, 64, 512])), k)
        groups = layout.groups
        # The load maps run the layout's groups, and equality ignores them.
        assert build_p1(layout).groups is build_pre_ifft_map(layout).groups is groups
        ungrouped = dataclasses.replace(layout, groups=())
        assert layout == ungrouped and hash(layout) == hash(ungrouped)
        assert [g.width for g in groups] == sorted({g.width for g in groups})
        col = 0
        for g in groups:
            assert g.first_col == col in layout.col_offsets
            col += g.n_docs * g.width
            assert g.cols == slice(g.first_col, col)
            docs = [i for i, off in enumerate(layout.col_offsets) if g.first_col <= off < col]
            assert len(docs) == g.n_docs and {layout.cols_per_doc[i] for i in docs} == {g.width}
            lengths = [layout.doc_lengths[i] for i in docs]
            # Row-major, position t < L_i sits in row t // m; column-major
            # (the transformed grid), in column t // k.
            assert g.live_rows == max(-(-n // g.width) for n in lengths) <= k
            assert g.live_cols == max(-(-n // k) for n in lengths) <= g.width
            assert g.longest == max(lengths)
        assert col == layout.total_cols


def test_layout_monotone_in_document_length():
    for filter_len in (1, 7, 64):
        for k in (1, 4, 16):
            previous = 0
            for length in range(1, 200):
                padded = build_layout([length], filter_len, k).padded_lengths[0]
                assert padded >= previous
                previous = padded


def test_p1_row_major_single_doc():
    layout = build_layout([3], filter_len=2, k=2)  # padded 4, grid 2x2
    grid = build_p1(layout).apply(np.arange(4.0))
    assert np.array_equal(grid, np.array([[0.0, 1.0], [2.0, 3.0]]))


def test_p1_columns_never_mix_documents():
    layout = build_layout([2, 2], filter_len=1, k=2)  # one column each
    grid = build_p1(layout).apply(np.array([10.0, 11.0, 20.0, 21.0]))
    assert np.array_equal(grid[:, 0], [10.0, 11.0])
    assert np.array_equal(grid[:, 1], [20.0, 21.0])


def test_p1_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=64)
        layout = build_layout(lengths, filter_len=7, k=int(rng.choice([1, 2, 4, 16])))
        p1 = build_p1(layout)
        x = rng.standard_normal(layout.total_padded)
        back = np.empty_like(x)
        back[p1.src_flat] = p1.apply(x).ravel()
        assert np.array_equal(back, x)


def test_p1_document_disjoint_columns():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=64)
        layout = build_layout(lengths, filter_len=3, k=4)
        p1 = build_p1(layout)
        ids = np.repeat(np.arange(layout.n_docs), layout.padded_lengths)
        grid_ids = p1.apply(ids)
        for col in range(layout.total_cols):
            assert len(np.unique(grid_ids[:, col])) == 1


# Spectra are cell-major, (m_total, k): grid cell (row r, column c) is
# cells[c, r], so each document's k * m_i cells are one contiguous run.


def test_p2_column_major_flatten():
    layout = build_layout([4], filter_len=1, k=2)  # grid 2x2, no truncation
    cells = np.array([["a", "c"], ["b", "d"]], dtype=object)  # grid [[a, b], [c, d]]
    assert list(build_p2(layout).apply(cells)) == ["a", "c", "b", "d"]


def test_p2_preserves_packing_order():
    layout = build_layout([2, 2], filter_len=1, k=2)
    cells = np.array([[1.0, 2.0], [10.0, 20.0]])  # grid [[1, 10], [2, 20]]
    assert np.array_equal(build_p2(layout).apply(cells), [1.0, 2.0, 10.0, 20.0])


def test_p2_full_lengths_is_blockwise_column_major_bijection():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=40)
        layout = build_layout(lengths, filter_len=5, k=4)
        full = build_p2(layout)
        cells = rng.standard_normal((layout.total_cols, layout.k))
        unloaded = full.apply(cells)
        for off_pos, off_col, m, padded in zip(
            layout.pos_offsets, layout.col_offsets, layout.cols_per_doc, layout.padded_lengths
        ):
            block = cells[off_col : off_col + m]
            assert np.array_equal(unloaded[off_pos : off_pos + padded], block.ravel())


def test_pre_ifft_identity_for_single_column_blocks():
    layout = build_layout([4], filter_len=1, k=4)  # m_i = 1
    cells = np.arange(4.0).reshape(1, 4)
    assert np.array_equal(build_pre_ifft_map(layout).apply(cells), cells.T)


def test_pre_ifft_two_by_two_example():
    # Source grid cell (u, v) = (1, 2) 1-indexed carries f = 2, landing at (2, 1).
    layout = build_layout([3], filter_len=2, k=2)
    m = build_pre_ifft_map(layout)
    cells = np.array([[1.0, 3.0], [2.0, 4.0]])  # grid [[1, 2], [3, 4]]
    out = m.apply(cells)
    assert out[1, 0] == cells[1, 0]


def test_pre_ifft_matches_one_indexed_listing_formulas():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=5, max_len=32)
        k = int(rng.choice([1, 2, 4, 8]))
        layout = build_layout(lengths, filter_len=4, k=k)
        mapped = build_pre_ifft_map(layout)
        cells = rng.standard_normal((layout.total_cols, k))
        out = mapped.apply(cells)
        for off_col, m_i in zip(layout.col_offsets, layout.cols_per_doc):
            c_start = off_col + 1
            for u in range(1, k + 1):
                for v in range(1, m_i + 1):
                    c = c_start + v - 1
                    f = (v - 1) * k + (u - 1)
                    u_dst = f // m_i + 1
                    v_dst = f % m_i + 1
                    c_dst = c_start + v_dst - 1
                    assert out[u_dst - 1, c_dst - 1] == cells[c - 1, u - 1]


def test_pre_ifft_is_a_permutation_of_each_block():
    layout = build_layout([5, 9, 2], filter_len=4, k=4)
    mapped = build_pre_ifft_map(layout)
    assert len(np.unique(mapped.dst_flat)) == layout.k * layout.total_cols
    assert len(np.unique(mapped.src_flat)) == layout.k * layout.total_cols


def test_index_maps_in_bounds_and_write_once():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=50)
        layout = build_layout(lengths, filter_len=8, k=4)
        for index_map in (build_p1(layout), build_p2(layout), build_pre_ifft_map(layout)):
            src_size = int(np.prod(index_map.src_shape))
            dst_size = int(np.prod(index_map.dst_shape))
            assert np.all((index_map.src_flat >= 0) & (index_map.src_flat < src_size))
            assert np.all((index_map.dst_flat >= 0) & (index_map.dst_flat < dst_size))
            assert len(np.unique(index_map.dst_flat)) == len(index_map.dst_flat)


def _gather_formula(layout, name: str) -> np.ndarray:
    """Flat source element of each flat destination element of map ``name``, from its definition.

    p1 and pre_ifft fill document i's column block row-major from its run
    at starts[i]: grid[r, col_offsets[i] + c] = source[starts[i] + r * m_i + c],
    starts being pos_offsets for p1 and k * col_offsets for pre_ifft.  p2
    fills position pos_offsets[i] + j from flat cell k * col_offsets[i] + j.
    """
    k = layout.k
    if name == "p2":
        return np.concatenate([k * c + np.arange(p) for c, p in zip(layout.col_offsets, layout.padded_lengths)])
    starts = layout.pos_offsets if name == "p1" else [k * c for c in layout.col_offsets]
    grid = np.empty((k, layout.total_cols), dtype=np.int64)
    for start, col, m in zip(starts, layout.col_offsets, layout.cols_per_doc):
        grid[:, col : col + m] = start + np.arange(k * m).reshape(k, m)
    return grid.ravel()


# A load copies each run of documents that lie end to end in its source, or
# gathers a width group's documents in chunks; each case forces one way.
@pytest.mark.parametrize(
    "run_bytes, chunk_bytes", [(0, None), (1 << 62, None), (1 << 62, 1)], ids=["runs", "chunks", "one-per-chunk"]
)
def test_maps_apply_and_src_flat_match_the_gather_formulas(monkeypatch, run_bytes, chunk_bytes):
    monkeypatch.setattr(rubiconv.packing, "_LOAD_RUN_BYTES", run_bytes)
    if chunk_bytes is not None:
        monkeypatch.setattr(rubiconv.packing, "_LOAD_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(6)
    builders = {"p1": build_p1, "pre_ifft": build_pre_ifft_map, "p2": build_p2}
    for _ in range(8):
        k = int(rng.choice([1, 2, 4, 16, 64]))
        lengths = random_doc_lengths(rng, max_docs=12, max_len=3 * k + 5)
        layout = build_layout(lengths, int(rng.choice([1, 3, 64])), k)
        for name, build in builders.items():
            index_map = build(layout)
            src = _gather_formula(layout, name)
            assert np.array_equal(index_map.src_flat, src), name
            size = math.prod(index_map.src_shape)
            for tail in ((), (3,), (1, 5)):
                for dtype in (float, complex, object):
                    flat = rng.standard_normal((size,) + tail).astype(dtype)
                    if dtype is complex:
                        flat += 1j * rng.standard_normal(flat.shape)
                    values = flat.reshape(index_map.src_shape + tail)
                    expected = flat[src].reshape(index_map.dst_shape + tail)
                    out = index_map.apply(values)
                    assert out.dtype == flat.dtype and np.array_equal(out, expected), (name, tail, dtype)
                    # A column-major source holding the same values gives the same result.
                    assert np.array_equal(index_map.apply(np.asfortranarray(values)), expected)
            with pytest.raises(ValueError):
                index_map.apply(values[1:])
        # An odd D unloads the inverse's output without its zero partner: a strided view.
        cells = rng.standard_normal((layout.total_cols, k, 4))[..., :3]
        expected = cells.reshape(-1, 3)[_gather_formula(layout, "p2")]
        assert np.array_equal(build_p2(layout).apply(cells), expected)


def test_reading_src_flat_inside_apply_adds_no_apply_call(monkeypatch):
    # A tracer wraps IndexMap.apply and reads src_flat in the wrapper; that
    # read must not call apply itself, or the trace counts a map twice.
    rng = np.random.default_rng(7)
    lengths = [7, 40, 1, 19, 3, 3]
    plan = build_plan(lengths, filter_len=8, k=4)
    calls = []
    apply = IndexMap.apply

    def tracing(index_map, values):
        out = apply(index_map, values)
        calls.append(id(index_map))
        flat = values.reshape((math.prod(index_map.src_shape),) + values.shape[len(index_map.src_shape) :])
        assert np.array_equal(out.reshape((-1,) + flat.shape[1:]), flat[index_map.src_flat])
        return out

    monkeypatch.setattr(IndexMap, "apply", tracing)
    sig = PackedSignal.from_documents(plan.layout, [rng.standard_normal((n, 3)) for n in lengths])
    convolve(plan, sig, FilterBank(rng.standard_normal((8, 3))))
    assert sorted(calls) == sorted(id(getattr(plan, field)) for field in ("p1", "pre_ifft", "p2"))
