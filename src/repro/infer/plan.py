"""Trace-to-plan compiler and the plan runtime.

``compile_plan`` lowers a :class:`~repro.infer.trace.Trace` into a flat
:class:`Plan` of kernel steps through a short pass pipeline:

1. **constant folding** — ops fed only by constants (parameter reshapes,
   BatchNorm statistic views, positional tables) are replaced by their
   traced value;
2. **BatchNorm folding** (opt-in, ``fold_bn``) — a per-channel affine
   chain of ``sub/mul/add/div``-by-constant ops following a Conv2d /
   ConvTranspose2d / Linear-matmul is folded into the producer's weights
   and bias.  This changes summation order (≈1 ulp at float64), so it is
   off in the bit-exact default and on in reduced-precision mode;
3. **epilogue fusion** (``fuse``) — a constant bias-add and/or ReLU that
   solely consumes a conv/matmul output becomes an in-place epilogue of
   that step.  Both rewrites are arithmetic-identical to the unfused op
   sequence, so they stay on in the bit-exact default;
4. **dead-code elimination** and **in-place planning** — single-consumer
   elementwise ops write into their dying input's buffer;
5. **static memory plan** — every owned buffer (cast argument, step
   output, per-step scratch) gets a fixed, 64-byte aligned offset in one
   linear address space, reused once the buffer's last reader has run.
   The engine backs all its plans with one slab sized to the largest, so
   a run only indexes pre-bound views and allocates nothing.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional

import numpy as np

from repro.infer.steps import (
    INPLACE_SAFE,
    Step,
    _structural_index,
    build_step,
)
from repro.infer.trace import InferenceUnsupportedError, Trace, TraceNode

__all__ = ["Plan", "Buffer", "compile_plan", "new_slab"]

_FOLDABLE_PRODUCERS = ("conv2d", "conv_transpose2d", "matmul")
_AFFINE_OPS = ("add", "sub", "mul", "div")

#: ops whose meta carries runtime array data the trace cannot prove
#: constant — never fold them into plan constants (and their builders
#: refuse compilation), otherwise the first batch's data would be baked
#: into every later forward
_META_SENSITIVE = ("embedding", "where", "dropout")

#: slab offsets (and the slab base) are aligned to a cache line
ALIGN = 64


def _bakes_runtime_meta(node: TraceNode) -> bool:
    if node.op in _META_SENSITIVE:
        return True
    return node.op == "getitem" and not _structural_index(node.meta["index"])


# ----------------------------------------------------------------------
# Build-time context handed to the step builders
# ----------------------------------------------------------------------
class _BuildContext:
    def __init__(self, nodes, const_of, replacements, dtype, const_fn,
                 arg_contiguous):
        self.nodes = nodes
        self.const_of = const_of
        self.replacements = replacements
        self.dtype = np.dtype(dtype)
        self._const_fn = const_fn
        self.arg_contiguous = arg_contiguous
        self.kinds: Dict[int, str] = {}    # node idx -> buffer/alias/view/...
        self.roots: Dict[int, Optional[int]] = {}
        self.consumer_count: Dict[int, int] = {}
        self.env_inputs: List[int] = []    # env slots read by current step
        self._current: Optional[TraceNode] = None

    # -- ref resolution -------------------------------------------------
    def follow(self, index: int) -> int:
        while index in self.replacements:
            index = self.replacements[index]
        return index

    def resolve_ref(self, ref):
        if ref[0] == "const":
            return ref
        index = self.follow(ref[1])
        value = self.const_of[index]
        if value is not None:
            return ("const", value)
        return ("node", index)

    def resolve(self, ref):
        """Bind a ref for a step: env slot (int) or cast constant array."""
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return self.const(payload)
        self.env_inputs.append(payload)
        return payload

    def const(self, array: np.ndarray) -> np.ndarray:
        return self._const_fn(np.asarray(array))

    def const_input(self, ref, what: str) -> np.ndarray:
        kind, payload = self.resolve_ref(ref)
        if kind != "const":
            raise InferenceUnsupportedError(f"{what} is not constant")
        return self.const(payload)

    # -- metadata -------------------------------------------------------
    def spec(self, node: TraceNode):
        return (node.shape, self.dtype)

    def shape_of(self, ref) -> tuple:
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return payload.shape
        return self.nodes[payload].shape

    def is_contiguous(self, ref) -> bool:
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return payload.flags.c_contiguous
        node = self.nodes[payload]
        if node.op == "arg":
            return self.arg_contiguous[payload]
        if node.value is not None:
            return node.value.flags.c_contiguous
        return False

    def reshape_is_view(self, ref, shape) -> bool:
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return False  # consts are folded before this matters
        node = self.nodes[payload]
        if node.op == "arg":
            return self.arg_contiguous[payload]
        traced = node.value
        if traced is None:
            return False
        reshaped = traced.reshape(shape)
        return np.shares_memory(reshaped, traced)

    # -- in-place planning ----------------------------------------------
    def root_of(self, index: int) -> Optional[int]:
        return self.roots.get(index)

    def try_inplace(self, node: TraceNode, input_pos: int) -> Optional[int]:
        if node.op not in INPLACE_SAFE:
            return None
        kind, payload = self.resolve_ref(node.inputs[input_pos])
        if kind != "node":
            return None
        index = payload
        if self.kinds.get(index) not in ("buffer", "alias"):
            return None
        if self.nodes[index].shape != node.shape:
            return None
        if self.consumer_count.get(index, 0) != 1:
            return None
        root = self.root_of(index)
        for pos, other in enumerate(node.inputs):
            if pos == input_pos:
                continue
            other_kind, other_payload = self.resolve_ref(other)
            if other_kind == "node" and self.root_of(other_payload) == root:
                return None  # overlapping read/write through another view
        return index


# ----------------------------------------------------------------------
# Fusion helpers
# ----------------------------------------------------------------------
def _channel_template(node: TraceNode):
    """(channel count, broadcast template shape) for a foldable producer."""
    if node.op == "matmul":
        return node.shape[-1], (node.shape[-1],)
    return node.shape[1], (1, node.shape[1], 1, 1)


def _per_channel_vector(const: np.ndarray, template: tuple,
                        channels: int) -> Optional[np.ndarray]:
    try:
        broadcast = np.broadcast_to(np.asarray(const, dtype=np.float64),
                                    template)
    except ValueError:
        return None
    return np.array(broadcast, dtype=np.float64).reshape(channels)


def _build_consumers(nodes, const_of, dead, ctx, out_ref):
    consumers: Dict[int, List[int]] = {}
    for i, node in enumerate(nodes):
        if node.op == "arg" or i in dead or const_of[i] is not None:
            continue
        for ref in node.inputs:
            kind, payload = ctx.resolve_ref(ref)
            if kind == "node":
                consumers.setdefault(payload, []).append(i)
    kind, payload = ctx.resolve_ref(out_ref)
    if kind == "node":
        consumers.setdefault(payload, []).append(-1)
    return consumers


def _fold_batchnorm(nodes, const_of, dead, ctx, out_ref):
    """Fold per-channel affine chains into preceding conv/linear weights."""
    consumers = _build_consumers(nodes, const_of, dead, ctx, out_ref)
    for i, node in enumerate(nodes):
        if (node.op not in _FOLDABLE_PRODUCERS or i in dead
                or const_of[i] is not None):
            continue
        weight_ref = ctx.resolve_ref(node.inputs[1])
        if weight_ref[0] != "const":
            continue
        weight = np.asarray(weight_ref[1], dtype=np.float64)
        if node.op == "matmul" and weight.ndim != 2:
            continue
        channels, template = _channel_template(node)
        scale = np.ones(channels)
        shift = np.zeros(channels)
        absorbed: List[int] = []
        cursor = i
        while True:
            chain = consumers.get(cursor, [])
            if len(chain) != 1 or chain[0] == -1:
                break
            nxt = chain[0]
            nxt_node = nodes[nxt]
            if nxt_node.op not in _AFFINE_OPS or nxt_node.shape != node.shape:
                break
            refs = [ctx.resolve_ref(ref) for ref in nxt_node.inputs]
            if refs[0] == ("node", cursor):
                other = refs[1]
            elif (refs[1] == ("node", cursor)
                  and nxt_node.op in ("add", "mul")):
                other = refs[0]
            else:
                break
            if other[0] != "const":
                break
            vector = _per_channel_vector(other[1], template, channels)
            if vector is None:
                break
            if nxt_node.op == "add":
                shift = shift + vector
            elif nxt_node.op == "sub":
                shift = shift - vector
            elif nxt_node.op == "mul":
                scale = scale * vector
                shift = shift * vector
            else:  # div
                scale = scale / vector
                shift = shift / vector
            absorbed.append(nxt)
            cursor = nxt
        if not absorbed:
            continue
        if node.op == "conv2d":
            folded = weight * scale[:, None, None, None]
        elif node.op == "conv_transpose2d":
            folded = weight * scale[None, :, None, None]
        else:
            folded = weight * scale[None, :]
        node.inputs[1] = ("const", folded)
        if node.op == "matmul":
            if np.any(shift):
                node.ep_bias.append(shift)
        else:
            if len(node.inputs) > 2:
                bias_ref = ctx.resolve_ref(node.inputs[2])
                if bias_ref[0] != "const":
                    raise InferenceUnsupportedError(
                        f"{node.op} bias is not constant")
                bias = np.asarray(bias_ref[1], dtype=np.float64)
                node.inputs[2] = ("const", bias * scale + shift)
            elif np.any(shift):
                node.inputs.append(("const", shift))
        for index in absorbed:
            dead.add(index)
            ctx.replacements[index] = i


def _fuse_epilogues(nodes, const_of, dead, ctx, out_ref):
    """Absorb sole-consumer bias adds and ReLUs into conv/matmul steps."""
    while True:
        consumers = _build_consumers(nodes, const_of, dead, ctx, out_ref)
        progress = False
        for i, node in enumerate(nodes):
            if (node.op not in _FOLDABLE_PRODUCERS or i in dead
                    or const_of[i] is not None or node.ep_relu):
                continue
            chain = consumers.get(i, [])
            if len(chain) != 1 or chain[0] == -1:
                continue
            nxt = chain[0]
            nxt_node = nodes[nxt]
            if (nxt_node.op == "relu"
                    and ctx.resolve_ref(nxt_node.inputs[0]) == ("node", i)):
                node.ep_relu = True
            elif nxt_node.op == "add" and nxt_node.shape == node.shape:
                refs = [ctx.resolve_ref(ref) for ref in nxt_node.inputs]
                if refs[0] == ("node", i) and refs[1][0] == "const":
                    const = refs[1][1]
                elif refs[1] == ("node", i) and refs[0][0] == "const":
                    const = refs[0][1]
                else:
                    continue
                if np.broadcast_shapes(const.shape, node.shape) != node.shape:
                    continue
                node.ep_bias.append(np.asarray(const, dtype=np.float64))
            else:
                continue
            dead.add(nxt)
            ctx.replacements[nxt] = i
            progress = True
        if not progress:
            return


# ----------------------------------------------------------------------
# Static memory plan
# ----------------------------------------------------------------------
class Buffer:
    """One owned buffer's place in the slab and its live interval.

    ``first``/``last`` are step positions: the buffer is written from
    step ``first`` (-1 for an argument cast) and read up to step ``last``
    (``len(steps)`` for the plan output, read by the final copy).
    Buffers whose closed intervals intersect never share slab bytes.
    """

    __slots__ = ("shape", "dtype", "nbytes", "offset", "first", "last")

    def __init__(self, spec, first: int, last: int):
        self.shape, self.dtype = tuple(spec[0]), np.dtype(spec[1])
        self.nbytes = math.prod(self.shape) * self.dtype.itemsize
        self.offset = 0
        self.first = first
        self.last = last

    def view(self, slab: np.ndarray) -> np.ndarray:
        raw = slab[self.offset:self.offset + self.nbytes]
        return raw.view(self.dtype).reshape(self.shape)


def _aligned(nbytes: int) -> int:
    return -(-max(nbytes, 1) // ALIGN) * ALIGN


class _AddressSpace:
    """Compile-time allocator over one linear byte range.

    Best fit among the free gaps, ties going to the most recently freed
    gap (cache-warm: a conv's output lands where its predecessor's
    scratch just was); with no fitting gap the range grows at the end.
    """

    def __init__(self):
        self.gaps: List[List[int]] = []   # [start, size, freed_at], by start
        self.end = 0
        self._clock = 0

    def allocate(self, nbytes: int) -> int:
        size = _aligned(nbytes)
        fits = [(gap[1], -gap[2], position)
                for position, gap in enumerate(self.gaps) if gap[1] >= size]
        if not fits:
            if self.gaps and sum(self.gaps[-1][:2]) == self.end:
                self.end = self.gaps.pop()[0]   # grow from a free tail
            offset, self.end = self.end, self.end + size
            return offset
        position = min(fits)[2]
        offset, gap, freed_at = self.gaps[position]
        if gap == size:
            del self.gaps[position]
        else:
            self.gaps[position] = [offset + size, gap - size, freed_at]
        return offset

    def free(self, offset: int, nbytes: int) -> None:
        self._clock += 1
        start, end = offset, offset + _aligned(nbytes)
        position = bisect.bisect(self.gaps, [start])
        if position < len(self.gaps) and self.gaps[position][0] == end:
            end += self.gaps.pop(position)[1]
        if position and sum(self.gaps[position - 1][:2]) == start:
            position -= 1
            start = self.gaps.pop(position)[0]
        self.gaps.insert(position, [start, end - start, self._clock])


def new_slab(nbytes: int) -> np.ndarray:
    """A ``uint8`` slab of ``nbytes`` whose base is ``ALIGN``-aligned."""
    raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:start + nbytes]


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class Plan:
    """A compiled forward: ordered kernel steps over a static slab layout.

    :meth:`bind` points the steps at a slab of at least ``slab_nbytes``;
    :meth:`run` replays them on those views and needs a bound plan.
    """

    __slots__ = ("steps", "n_nodes", "n_args", "arg_plan", "out_index",
                 "out_const", "dtype", "buffers", "slab_nbytes", "_arg_views")

    def __init__(self, steps: List[Step], n_nodes: int, n_args: int,
                 arg_plan, out_index: Optional[int],
                 out_const: Optional[np.ndarray], dtype,
                 buffers: List[Buffer], slab_nbytes: int):
        self.steps = steps
        self.n_nodes = n_nodes
        self.n_args = n_args
        self.arg_plan = arg_plan      # [(arg position, node idx, Buffer|None)]
        self.out_index = out_index
        self.out_const = out_const
        self.dtype = np.dtype(dtype)
        self.buffers = buffers        # every owned buffer, allocation order
        self.slab_nbytes = slab_nbytes
        self._arg_views: list = []

    def bind(self, slab: np.ndarray) -> None:
        """Point every step's output and scratch at its bytes in ``slab``."""
        self._arg_views = [None if cast is None else cast.view(slab)
                           for _, _, cast in self.arg_plan]
        for step in self.steps:
            step.out = (None if step.out_buffer is None
                        else step.out_buffer.view(slab))
            step.scratch = [buffer.view(slab)
                            for buffer in step.scratch_buffers]

    def run(self, args) -> np.ndarray:
        if len(args) != self.n_args:
            raise ValueError(
                f"plan compiled for {self.n_args} inputs, got {len(args)}")
        env: List[Optional[np.ndarray]] = [None] * self.n_nodes
        for (position, index, _), view in zip(self.arg_plan, self._arg_views):
            if view is None:
                env[index] = args[position]
            else:
                np.copyto(view, args[position])
                env[index] = view
        for step in self.steps:
            env[step.index] = step.run(env, step.out, step.scratch)
        if self.out_const is not None:
            return self.out_const.copy()
        return np.array(env[self.out_index], copy=True)


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
def compile_plan(trace: Trace, dtype, fold_bn: bool, fuse: bool,
                 const_fn, arg_contiguous: Dict[int, bool]) -> Plan:
    nodes = trace.nodes
    const_of: List[Optional[np.ndarray]] = [None] * len(nodes)
    dead: set = set()
    ctx = _BuildContext(nodes, const_of, {}, dtype, const_fn, arg_contiguous)

    # 1. constant folding (the traced values ARE the folded results)
    for i, node in enumerate(nodes):
        if node.op == "arg" or not node.inputs or _bakes_runtime_meta(node):
            continue
        if all(ctx.resolve_ref(ref)[0] == "const" for ref in node.inputs):
            const_of[i] = node.value

    # 2./3. graph rewrites
    if fold_bn:
        _fold_batchnorm(nodes, const_of, dead, ctx, trace.out_ref)
    if fuse:
        _fuse_epilogues(nodes, const_of, dead, ctx, trace.out_ref)

    # 4. reachability from the output
    out_kind, out_payload = ctx.resolve_ref(trace.out_ref)
    if out_kind == "const" and trace.n_args:
        # a constant output for a model WITH inputs almost certainly means
        # the forward computed something outside the traced op set (raw
        # numpy on .data); replaying it would freeze one input's answer
        raise InferenceUnsupportedError(
            "traced output does not depend on the model inputs; the "
            "forward computes outside the traced op set")
    live = set()
    if out_kind == "node":
        stack = [out_payload]
        while stack:
            index = stack.pop()
            if index in live:
                continue
            live.add(index)
            for ref in nodes[index].inputs:
                kind, payload = ctx.resolve_ref(ref)
                if kind == "node" and payload not in live:
                    stack.append(payload)

    # final consumer counts (for in-place planning)
    counts: Dict[int, int] = {}
    for i in sorted(live):
        node = nodes[i]
        if node.op == "arg":
            continue
        for ref in node.inputs:
            kind, payload = ctx.resolve_ref(ref)
            if kind == "node":
                counts[payload] = counts.get(payload, 0) + 1
    if out_kind == "node":
        counts[out_payload] = counts.get(out_payload, 0) + 1
    ctx.consumer_count = counts

    # argument binding (cast to the plan dtype when needed)
    plan_dtype = np.dtype(dtype)
    arg_plan = []
    for index in range(trace.n_args):
        node = nodes[index]
        if index not in live:
            continue
        if node.dtype != plan_dtype:
            spec = (node.shape, plan_dtype)
            ctx.kinds[index] = "buffer"
            ctx.roots[index] = index
        else:
            spec = None
            ctx.kinds[index] = "external"
            ctx.roots[index] = None
        arg_plan.append((node.meta["position"], index, spec))

    # 5. build steps in trace order
    steps: List[Step] = []
    for i, node in enumerate(nodes):
        if (i not in live or node.op == "arg" or i in dead
                or const_of[i] is not None):
            continue
        ctx.env_inputs = []
        step = build_step(i, node, ctx)
        ctx.kinds[i] = step.kind
        if step.kind == "buffer":
            ctx.roots[i] = i
        elif step.source is not None:
            ctx.roots[i] = ctx.roots.get(step.source)
        else:
            ctx.roots[i] = None
        step._reads = list(ctx.env_inputs)
        steps.append(step)

    # drop traced values so plans don't pin every intermediate
    for i, node in enumerate(nodes):
        if const_of[i] is None:
            node.value = None

    # 6. static memory plan: place each owned buffer when it is written,
    #    free it after its last read (scratch: after its own step)
    last_use: Dict[int, int] = {}
    for position, step in enumerate(steps):
        for read in step._reads:
            root = ctx.roots.get(read)
            if root is not None:
                last_use[root] = position
        del step._reads
    out_root = ctx.roots.get(out_payload) if out_kind == "node" else None
    if out_root is not None:
        last_use[out_root] = len(steps)   # read by the final copy

    space = _AddressSpace()
    buffers: List[Buffer] = []
    frees: Dict[int, List[Buffer]] = {}

    def place(spec, first: int, last: int) -> Buffer:
        buffer = Buffer(spec, first, last)
        buffer.offset = space.allocate(buffer.nbytes)
        buffers.append(buffer)
        frees.setdefault(last, []).append(buffer)
        return buffer

    def release(position: int) -> None:
        for buffer in frees.pop(position, []):
            space.free(buffer.offset, buffer.nbytes)

    for entry, (position, index, spec) in enumerate(arg_plan):
        if spec is not None:
            arg_plan[entry] = (position, index,
                               place(spec, -1, last_use.get(index, -1)))
    release(-1)
    for position, step in enumerate(steps):
        if step.out_spec is not None:
            step.out_buffer = place(step.out_spec, position,
                                    last_use.get(step.index, position))
        step.scratch_buffers = [place(spec, position, position)
                                for spec in step.scratch_specs]
        release(position)

    out_index = out_payload if out_kind == "node" else None
    out_const = out_payload if out_kind == "const" else None
    return Plan(steps, len(nodes), trace.n_args, arg_plan, out_index,
                out_const, plan_dtype, buffers, space.end)
