"""Autograd mode and the op-trace hook are per-thread state.

Serving thread workers share one model and each compiles its own plans;
a trace hook or ``no_grad`` entered by one thread must be invisible to
the others, and interleaved install/restore must never leave a stale
hook behind.  Barriers pin the interleavings, so the tests are
deterministic.
"""

import threading

import numpy as np

from repro import nn
from repro.nn import functional as F


def _hooked_op_count(calls):
    """Run one op in the calling thread; report how many times any hook
    saw it."""
    before = len(calls)
    nn.Tensor(np.ones(3)) + 1.0
    return len(calls) - before


def _grad_recorded():
    x = nn.Tensor(np.ones(3), requires_grad=True)
    return (x * 2.0).requires_grad


def _run_threads(*targets):
    errors = []

    def guard(target):
        try:
            target()
        except BaseException as error:   # surface in the main thread
            errors.append(error)

    threads = [threading.Thread(target=guard, args=(target,))
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_hook_and_no_grad_stay_in_their_thread():
    calls = []
    entered = threading.Barrier(2, timeout=10)
    checked = threading.Barrier(2, timeout=10)
    seen = {}

    def thread_a():
        previous = F.set_trace_hook(lambda *args: calls.append(args))
        try:
            with nn.no_grad():
                entered.wait()
                checked.wait()
        finally:
            F.set_trace_hook(previous)

    def thread_b():
        entered.wait()
        try:
            seen["hooked_ops"] = _hooked_op_count(calls)
            seen["grad_enabled"] = nn.is_grad_enabled()
            seen["grad_recorded"] = _grad_recorded()
        finally:
            checked.wait()

    _run_threads(thread_a, thread_b)
    assert seen == {"hooked_ops": 0, "grad_enabled": True,
                    "grad_recorded": True}
    hooked_ops = _hooked_op_count(calls)
    stale = F.set_trace_hook(None)
    assert nn.is_grad_enabled()
    assert hooked_ops == 0
    assert stale is None


def test_interleaved_install_and_restore_leave_no_stale_hook():
    """A installs, B installs, A restores, B restores: with one shared
    global, B's restore would reinstall A's hook for good."""
    calls = []
    gates = [threading.Barrier(2, timeout=10) for _ in range(3)]

    def thread_a():
        previous = F.set_trace_hook(lambda *args: calls.append("a"))
        gates[0].wait()          # A installed
        gates[1].wait()          # B installed
        F.set_trace_hook(previous)
        gates[2].wait()          # A restored

    def thread_b():
        gates[0].wait()
        previous = F.set_trace_hook(lambda *args: calls.append("b"))
        gates[1].wait()
        gates[2].wait()
        F.set_trace_hook(previous)

    _run_threads(thread_a, thread_b)
    hooked_ops = _hooked_op_count(calls)
    stale = F.set_trace_hook(None)   # clear before asserting
    assert hooked_ops == 0
    assert stale is None
