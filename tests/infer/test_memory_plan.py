"""Static memory plan: slab layout soundness and one slab per engine.

Every owned buffer of a compiled plan has a compile-time offset into the
engine's slab.  The layout is sound when buffers that are live at the
same step never share bytes, every offset is cache-line aligned, and
the slab covers every buffer.
"""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core.registry import MODEL_REGISTRY
from repro.infer import InferenceEngine
from repro.infer.plan import ALIGN, _AddressSpace
from repro.train.seed import seed_everything

MODEL_NAMES = sorted(MODEL_REGISTRY)


def _build(name):
    seed_everything(0)
    spec = MODEL_REGISTRY[name]
    return spec, spec.build().eval()


def _inputs(spec, batch, edge=16, points=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, len(spec.channels), edge, edge))
    if spec.uses_pointcloud:
        return (x, rng.normal(size=(batch, points, 11)))
    return (x,)


def _autograd(model, args):
    with nn.no_grad():
        return model(*[nn.Tensor(a) for a in args]).data


def _peak_live_nbytes(plan):
    return max(sum(b.nbytes for b in plan.buffers if b.first <= t <= b.last)
               for t in range(-1, len(plan.steps) + 1))


def _assert_layout_sound(plan, slab):
    assert plan.buffers, "a model forward owns at least one buffer"
    offset = np.array([b.offset for b in plan.buffers])
    end = offset + np.array([b.nbytes for b in plan.buffers])
    first = np.array([b.first for b in plan.buffers])
    last = np.array([b.last for b in plan.buffers])
    assert np.all(offset % ALIGN == 0)
    assert np.all(first <= last)
    assert end.max() <= plan.slab_nbytes <= slab.nbytes
    live_together = (first[:, None] <= last[None, :]) & \
                    (first[None, :] <= last[:, None])
    share_bytes = (offset[:, None] < end[None, :]) & \
                  (offset[None, :] < end[:, None])
    clash = live_together & share_bytes
    np.fill_diagonal(clash, False)
    assert not clash.any(), np.argwhere(clash)[:5]


class TestLayout:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_live_buffers_never_overlap(self, name, dtype):
        spec, model = _build(name)
        engine = InferenceEngine(model, dtype=dtype)
        for batch in (1, 3, 8):
            plan = engine.compile(*_inputs(spec, batch))
            _assert_layout_sound(plan, engine.slab)
            for position, step in enumerate(plan.steps):
                if step.out_buffer is not None:
                    assert step.out_buffer.first == position
                for buffer in step.scratch_buffers:
                    assert buffer.first == buffer.last == position

    def test_slab_base_is_aligned(self):
        spec, model = _build("IREDGe")
        engine = InferenceEngine(model)
        engine.run(*_inputs(spec, 2))
        assert engine.slab.ctypes.data % ALIGN == 0

    def test_stale_slab_contents_never_read(self):
        """Poisoning the slab between runs changes nothing: every buffer
        is written before it is read."""
        spec, model = _build("LMM-IR (Ours)")
        engine = InferenceEngine(model)
        args = _inputs(spec, 3)
        reference = _autograd(model, args)
        assert np.array_equal(engine.run(*args), reference)
        engine.slab.fill(0xFF)            # NaN in every float lane
        assert np.array_equal(engine.run(*args), reference)

    def test_slab_tracks_peak_live_bytes(self):
        """Reuse packs the activations: after the serving warm-up shapes
        the slab stays within 1.25x of the largest plan's peak live set."""
        spec, model = _build("LMM-IR (Ours)")
        engine = InferenceEngine(model)
        peaks = [_peak_live_nbytes(engine.compile(
                     *_inputs(spec, batch, edge=48, points=192)))
                 for batch in range(1, 9)]
        assert engine.slab.nbytes <= 1.25 * max(peaks)


class TestOneSlabPerEngine:
    def test_second_forward_allocates_nothing(self):
        """A warm forward only indexes pre-bound views: its traced peak
        (output copy, env list, kernel temporaries) is a small fraction
        of the activations living in the slab."""
        spec, model = _build("LMM-IR (Ours)")
        engine = InferenceEngine(model)
        args = _inputs(spec, 2, edge=48, points=192)
        first = engine.run(*args)
        slab = engine.slab
        assert slab.nbytes > 4 << 20
        tracemalloc.start()
        try:
            second = engine.run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert engine.slab is slab
        assert np.array_equal(first, second)

    def test_mixed_batches_reuse_one_slab(self):
        spec, model = _build("LMM-IR (Ours)")
        engine = InferenceEngine(model)
        outputs = {batch: engine.run(*_inputs(spec, batch, seed=batch))
                   for batch in (1, 3, 8)}
        slab = engine.slab
        assert slab.nbytes == max(plan.slab_nbytes
                                  for plan in engine._plans.values())
        for batch in (2, 8, 1, 5, 3, 1):
            args = _inputs(spec, batch, seed=batch)
            output = engine.run(*args)
            if batch in outputs:
                assert np.array_equal(output, outputs[batch])
            else:
                assert np.array_equal(output, _autograd(model, args))
            assert engine.slab is slab
        assert engine.plan_count == 5

    def test_growth_rebinds_earlier_plans(self):
        spec, model = _build("IREDGe")
        engine = InferenceEngine(model)
        small = _inputs(spec, 1, seed=1)
        engine.run(*small)
        before = engine.slab
        engine.run(*_inputs(spec, 8, seed=8))
        assert engine.slab is not before
        assert engine.slab.nbytes > before.nbytes
        for plan in engine._plans.values():   # the old slab is unreferenced
            for step in plan.steps:
                for view in [step.out, *step.scratch]:
                    if view is not None:
                        assert not np.shares_memory(view, before)
                        assert np.shares_memory(view, engine.slab)
        assert np.array_equal(engine.run(*small), _autograd(model, small))

    def test_refresh_keeps_the_slab(self):
        spec, model = _build("IREDGe")
        engine = InferenceEngine(model)
        args = _inputs(spec, 2)
        engine.run(*args)
        slab = engine.slab
        engine.refresh()
        assert np.array_equal(engine.run(*args), _autograd(model, args))
        assert engine.slab is slab


class TestAddressSpace:
    def test_best_fit_prefers_the_smallest_gap(self):
        space = _AddressSpace()
        a, _, b, _ = (space.allocate(n) for n in (256, 64, 128, 64))
        space.free(a, 256)
        space.free(b, 128)
        assert space.allocate(100) == b
        assert space.allocate(200) == a

    def test_ties_go_to_the_most_recently_freed_gap(self):
        space = _AddressSpace()
        a, _, b, _ = (space.allocate(128) for _ in range(4))
        space.free(b, 128)
        space.free(a, 128)
        assert space.allocate(128) == a

    def test_neighbouring_gaps_coalesce_and_the_tail_regrows(self):
        space = _AddressSpace()
        a, b, c = (space.allocate(64) for _ in range(3))
        space.free(a, 64)
        space.free(c, 64)
        space.free(b, 64)
        assert space.gaps == [[0, 3 * ALIGN, 3]]
        assert space.allocate(1000) == 0    # grows from the free tail
        assert space.end == 1024

    def test_sizes_round_up_to_the_alignment(self):
        space = _AddressSpace()
        assert [space.allocate(n) for n in (1, 65, 0)] == [0, 64, 192]
