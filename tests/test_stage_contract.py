"""The stages an outside tracer hooks stay reachable.

A per-stage trace can wrap ``rubiconv.transform`` module globals and
``IndexMap.apply`` while ``build_plan`` and ``convolve`` run, and name the
spans after the plan's map fields.  If a refactor stops calling one of
these entry points, or calls it a different number of times, the trace
silently loses that stage.  This test wraps them the same way and counts
the calls.
"""

from collections import Counter

import numpy as np

import rubiconv.packing
import rubiconv.transform
from conftest import random_documents
from rubiconv import FilterBank, PackedSignal, build_plan, convolve

PLAN_HOOKS = ("dft_matrix", "build_p1", "build_p2", "build_pre_ifft_map")
CONVOLVE_HOOKS = {"transform_grid": 2, "split_dual_real": 1, "embed_filter": 1}
PLAN_MAPS = ("p1", "pre_ifft", "p2")


def test_build_plan_and_convolve_reach_every_hooked_stage(monkeypatch):
    calls = Counter()
    map_calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in PLAN_HOOKS + tuple(CONVOLVE_HOOKS):
        monkeypatch.setattr(
            rubiconv.transform, name, counted(name, getattr(rubiconv.transform, name))
        )
    apply = rubiconv.packing.IndexMap.apply

    def apply_wrapper(index_map, values, *args, **kwargs):
        map_calls.append(id(index_map))
        return apply(index_map, values, *args, **kwargs)

    monkeypatch.setattr(rubiconv.packing.IndexMap, "apply", apply_wrapper)

    rng = np.random.default_rng(30)
    lengths = [7, 40, 1, 19]
    plan = build_plan(lengths, filter_len=8, k=4)
    for name in PLAN_HOOKS:
        assert calls[name] >= 1, name

    calls.clear()
    map_calls.clear()
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 3))
    convolve(plan, sig, FilterBank(rng.standard_normal((8, 3))))
    for name, expected in CONVOLVE_HOOKS.items():
        assert calls[name] == expected, name
    by_map = Counter(map_calls)
    for field in PLAN_MAPS:
        assert by_map[id(getattr(plan, field))] == 1, field
    assert len(map_calls) == len(PLAN_MAPS)
