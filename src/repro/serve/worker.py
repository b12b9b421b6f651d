"""Serving workers: each owns a full private inference stack.

A worker is one :class:`~repro.core.pipeline.IRPredictor` built from a
picklable :class:`PredictorSpec` — its own compiled-plan cache, its own
inference-engine slab, its own
:class:`~repro.train.loader.PreparedCaseCache` — so workers never share
mutable hot-path state.  Two pool flavours implement one interface
(``start`` / ``submit`` / ``swap`` / ``stop``):

* :class:`ThreadWorkerPool` — in-process threads sharing the spec's
  model object (weights are read-only during serving; a hot-swap takes
  the pool's write lock, so in-flight forwards finish first).  The
  default: on the measured single-core reference box, process fan-out
  buys nothing and micro-batching is the throughput lever.
* :class:`ProcessWorkerPool` — real OS processes (``spawn`` by default,
  so the threaded parent is never forked), each with a private copy of
  the model.  The parent monitors liveness: a dead worker's in-flight
  batch is re-dispatched up to ``retries`` times, then failed loudly
  with :class:`~repro.serve.queue.WorkerDiedError` — requests never
  hang on a corpse.

Hot-swaps go through ``Module.load_state_dict``, which bumps the model's
``state_version``; the compiled inference engines notice and drop their
plans on the next forward, so a swap can never serve stale folded
weights (see ``repro.infer.engine``).
"""

from __future__ import annotations

import queue as _stdlib_queue
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import IRPredictor
from repro.faults.backoff import BackoffPolicy
from repro.faults.degrade import record as record_degradation
from repro.faults.points import fault_point, maybe_corrupt
from repro.nn.module import Module
from repro.serve.config import ServeConfig
from repro.serve.guard import IntegrityError, OutputGuard, prediction_digest
from repro.serve.health import HealthMonitor
from repro.serve.queue import (
    PredictionFailedError,
    PredictionRequest,
    ServeError,
    ServeResult,
    ServiceClosedError,
    WorkerDiedError,
    WorkerStalledError,
)
from repro.train.loader import CasePreprocessor

__all__ = ["PredictorSpec", "ThreadWorkerPool", "ProcessWorkerPool"]

#: Default cap on process-worker respawns per pool — a backstop against
#: a crash-looping spec burning CPU forever, far above any real
#: recovery.  Tunable per pool via ``ServeConfig.max_respawns``.
MAX_RESPAWNS = 8

ResultCallback = Callable[[PredictionRequest, ServeResult], None]
FailureCallback = Callable[[BaseException], None]


@dataclass
class PredictorSpec:
    """Picklable recipe for building a worker-local predictor.

    Thread workers call :meth:`build` in-process (sharing ``model``);
    process workers receive the spec over the spawn pickle and build a
    private copy.  ``kwargs`` are forwarded to
    :class:`~repro.core.pipeline.IRPredictor` (``engine``,
    ``infer_dtype``, ``prep_cache``, ``tta_samples`` ...); the prep cache
    must be given as a *size*, never a live cache object, so workers
    cannot share one.
    """

    model: Module
    preprocessor: CasePreprocessor
    name: str = "model"
    kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cache = self.kwargs.get("prep_cache")
        if cache is not None and not isinstance(cache, (bool, int)):
            raise ValueError(
                "PredictorSpec prep_cache must be a size (int/bool), not a "
                "shared cache instance — each worker owns its own cache")

    def build(self, group_size: Optional[int] = None) -> IRPredictor:
        kwargs = dict(self.kwargs)
        kwargs.setdefault("prep_cache", 64)
        if group_size is not None:
            # one micro-batch should be one forward: the scheduler's
            # max_batch, not the predictor default, bounds group size
            kwargs["group_size"] = max(
                int(kwargs.get("group_size", 0) or 0), int(group_size))
        return IRPredictor(self.model, self.preprocessor, name=self.name,
                           **kwargs)

    @classmethod
    def from_predictor(cls, predictor: IRPredictor) -> "PredictorSpec":
        """Spec reproducing an existing predictor's configuration."""
        cache = predictor.prep_cache
        return cls(
            model=predictor.model,
            preprocessor=predictor.preprocessor,
            name=predictor.name,
            kwargs={
                "tta_samples": predictor.tta_samples,
                "tta_sigma": predictor.tta_sigma,
                "tta_seed": predictor.tta_seed,
                "batched": predictor.batched,
                "group_size": predictor.group_size,
                "engine": predictor.engine_mode,
                "infer_dtype": predictor.infer_dtype,
                "prep_cache": None if cache is None else cache.maxsize,
            },
        )


class _RWLock:
    """Many concurrent readers (forwards) or one writer (hot-swap)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


def _batch_entries(predictor: IRPredictor, cases) -> list:
    """Run one micro-batch; on failure, isolate the guilty case(s).

    Returns one tagged entry per case — ``("ok", prediction, tat,
    digest)`` or ``("fail", message)``.  The digest is the prediction's
    content checksum taken *here*, next to the forward, so the integrity
    guard at fulfilment can prove the bytes survived the trip back (IPC
    pickling for process workers, the ``serve.guard`` corruption point
    in chaos runs).  The fast path is a single ``predict_many``; if that
    raises, each case is retried alone so one malformed request cannot
    poison the innocent requests coalesced with it.
    """
    try:
        # inside the try on purpose: an injected fault here degrades to
        # the per-case isolation path below instead of killing the
        # worker loop
        fault_point("serve.predict")
        return [("ok", prediction, float(tat), prediction_digest(prediction))
                for prediction, tat in predictor.predict_many(cases)]
    except Exception:
        entries = []
        for case in cases:
            try:
                prediction, tat = predictor.predict_case(case)
                entries.append(("ok", prediction, float(tat),
                                prediction_digest(prediction)))
            except Exception as error:
                entries.append(
                    ("fail", f"{type(error).__name__}: {error}"))
        return entries


def _resolve_batch(batch: List[PredictionRequest], entries: list,
                   worker: str, model_version: int,
                   on_result: Optional[ResultCallback],
                   guard: Optional[OutputGuard] = None,
                   on_failure: Optional[FailureCallback] = None) -> None:
    completed = time.perf_counter()
    for request, entry in zip(batch, entries):
        if request.ticket.done():
            continue  # a shutdown sweep beat this resolution to it
        if entry[0] == "fail":
            error: BaseException = PredictionFailedError(
                f"worker {worker} failed on {request.case!r}: {entry[1]}")
            request.ticket.fail(error)
            if on_failure is not None:
                on_failure(error)
            continue
        _, prediction, tat, digest = entry
        # the chaos corruption point sits on the fulfilment path, between
        # the worker's checksum and the guard's re-verification — exactly
        # where real transport corruption would land
        prediction = maybe_corrupt("serve.guard", prediction)
        if guard is not None:
            try:
                guard.check(
                    prediction,
                    case_shape=getattr(request.case, "shape", None),
                    digest=digest,
                    context=f"request {request.id} "
                            f"({request.case.name!r}) via {worker}")
            except IntegrityError as error:
                request.ticket.fail(error)
                if on_failure is not None:
                    on_failure(error)
                continue
        dispatched = (request.dispatched if request.dispatched is not None
                      else request.submitted)
        result = ServeResult(
            prediction=prediction,
            tat_seconds=float(tat),
            latency_seconds=completed - request.submitted,
            queue_seconds=dispatched - request.submitted,
            batch_size=len(batch),
            worker=worker,
            model_version=int(model_version),
            attempts=request.attempts + 1,
        )
        request.ticket.fulfill(result)
        if on_result is not None:
            on_result(request, result)


def _fail_batch(batch: List[PredictionRequest], error: BaseException,
                on_failure: Optional[FailureCallback] = None) -> None:
    """Fail every still-unresolved ticket in a batch.

    Shutdown and reaping can race a normal resolution (e.g. a batch
    completes while ``stop`` sweeps it); already-done tickets keep their
    first outcome rather than tripping :class:`TicketStateError`.
    """
    for request in batch:
        if not request.ticket.done():
            request.ticket.fail(error)
            if on_failure is not None:
                on_failure(error)


# ----------------------------------------------------------------------
# Thread workers
# ----------------------------------------------------------------------
class ThreadWorkerPool:
    """In-process workers: private predictor each, shared model weights.

    Threads cannot be force-killed, so the hung-worker watchdog here is
    *detection plus loud failure*: a batch outstanding past
    ``config.watchdog_s`` is failed with
    :class:`~repro.serve.queue.WorkerStalledError`, the thread is
    flagged ``unhealthy`` on the health model, and the degradation
    ledger records the stall.  If the wedged forward eventually returns,
    the recovery is recorded and the thread rejoins service (its late
    results are dropped by the tickets' done() checks).
    """

    _STOP = object()

    def __init__(self, spec: PredictorSpec, config: ServeConfig,
                 on_result: Optional[ResultCallback] = None,
                 on_failure: Optional[FailureCallback] = None,
                 guard: Optional[OutputGuard] = None,
                 health: Optional[HealthMonitor] = None):
        self.config = config
        self.on_result = on_result
        self.on_failure = on_failure
        self.guard = guard
        self.health = health
        self._predictors = [spec.build(group_size=config.max_batch)
                            for _ in range(config.workers)]
        self._tasks: "_stdlib_queue.Queue" = _stdlib_queue.Queue(
            maxsize=config.workers)
        self._threads: List[threading.Thread] = []
        self._swap_lock = _RWLock()
        # index -> (dispatch perf_counter, batch): what each thread
        # holds; the timestamp is None while the thread is still waiting
        # on the swap read-lock (owned but not yet on the watchdog clock)
        self._state_lock = threading.Lock()
        self._outstanding: Dict[
            int, Tuple[Optional[float], List[PredictionRequest]]] = {}
        self._stalled: Dict[int, float] = {}
        self._stop_event = threading.Event()
        self._watchdog: Optional[threading.Thread] = None

    @property
    def worker_count(self) -> int:
        return len(self._predictors)

    def start(self) -> None:
        for index in range(len(self._predictors)):
            if self.health is not None:
                self.health.register(f"thread-{index}")
            thread = threading.Thread(
                target=self._worker_loop, args=(index,),
                name=f"repro-serve-thread-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.config.watchdog_s is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog",
                daemon=True)
            self._watchdog.start()

    def _worker_loop(self, index: int) -> None:
        predictor = self._predictors[index]
        worker = f"thread-{index}"
        while True:
            try:
                batch = self._tasks.get(timeout=self.config.heartbeat_s)
            except _stdlib_queue.Empty:
                # idle heartbeat: the loop itself proves liveness — a
                # wedged forward stops the beats, a side thread would not
                if self.health is not None:
                    self.health.beat(worker)
                continue
            if batch is self._STOP:
                return
            with self._state_lock:
                # own the batch for shutdown accounting immediately, but
                # with no timestamp: the watchdog clock must not start
                # while the thread is queued behind a hot-swap writer —
                # swap wait is not compute time, and counting it would
                # fail innocent batches (and flag healthy threads) on a
                # slow swap, the same misattribution the process pool
                # avoids for respawns by deferring dispatch to ready
                # workers
                self._outstanding[index] = (None, batch)
            with self._swap_lock.read():
                with self._state_lock:
                    self._outstanding[index] = (time.perf_counter(), batch)
                entries = _batch_entries(
                    predictor, [request.case for request in batch])
                version = predictor.model.state_version
            with self._state_lock:
                self._outstanding.pop(index, None)
                stalled_at = self._stalled.pop(index, None)
            if stalled_at is not None:
                # the wedged forward finally returned; its tickets were
                # already failed by the watchdog, so resolution below is
                # a no-op and the thread rejoins service
                record_degradation(
                    "serve.watchdog", worker, "recovered",
                    f"stalled batch completed after "
                    f"{time.perf_counter() - stalled_at:.3f}s; "
                    f"thread back in service")
                if self.health is not None:
                    self.health.mark_recovered(worker)
            _resolve_batch(batch, entries, worker, version, self.on_result,
                           guard=self.guard, on_failure=self.on_failure)
            if self.health is not None:
                self.health.beat(worker)

    def _watchdog_loop(self) -> None:
        budget = self.config.watchdog_s
        assert budget is not None
        interval = max(min(budget / 4.0, 0.25), 0.005)
        while not self._stop_event.wait(interval):
            now = time.perf_counter()
            victims: List[Tuple[int, List[PredictionRequest], float]] = []
            with self._state_lock:
                for index, (started, batch) in self._outstanding.items():
                    if started is None:
                        continue  # still queued behind a hot-swap writer
                    age = now - started
                    if index not in self._stalled and age > budget:
                        self._stalled[index] = now
                        victims.append((index, batch, age))
            for index, batch, age in victims:
                worker = f"thread-{index}"
                record_degradation(
                    "serve.watchdog", worker, "stalled",
                    f"batch outstanding {age:.3f}s > watchdog "
                    f"{budget:g}s; thread flagged, batch failed")
                if self.health is not None:
                    self.health.mark_stalled(
                        worker, note=f"batch outstanding {age:.3f}s "
                                     f"> watchdog {budget:g}s")
                _fail_batch(batch, WorkerStalledError(
                    f"worker {worker} stalled: batch outstanding "
                    f"{age:.3f}s exceeds the {budget:g}s watchdog budget "
                    f"(thread workers cannot be killed; the batch is "
                    f"failed and the thread flagged unhealthy)"),
                    self.on_failure)

    def submit(self, batch: List[PredictionRequest]) -> None:
        """Hand a micro-batch to the next free worker (blocks for
        capacity — the scheduler's own backpressure)."""
        self._tasks.put(batch)

    def swap(self, state: Dict[str, np.ndarray],
             timeout: Optional[float] = None) -> None:
        """Load new weights once every in-flight forward has finished.

        ``load_state_dict`` bumps the model's ``state_version``; each
        worker's compiled engine drops its stale plans on its next
        forward automatically.
        """
        with self._swap_lock.write():
            models = {id(p.model): p.model for p in self._predictors}
            for model in models.values():
                model.load_state_dict(state)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the pool; every batch it still holds resolves.

        Threads cannot be killed, so shutdown totality is enforced here:
        queued-but-undispatched batches are pulled back (with every
        thread potentially wedged, nothing would ever pick them up), and
        after the join deadline any batch still held by a thread that
        did not exit is failed with
        :class:`~repro.serve.queue.ServiceClosedError`.  A wedged
        forward that eventually returns resolves against already-done
        tickets — a no-op.
        """
        self._stop_event.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout)
            self._watchdog = None
        undispatched: List[List[PredictionRequest]] = []
        while True:
            try:
                item = self._tasks.get_nowait()
            except _stdlib_queue.Empty:
                break
            if item is not self._STOP:
                undispatched.append(item)
        for _ in self._threads:
            self._tasks.put(self._STOP)
        deadline = time.perf_counter() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
        wedged = [thread for thread in self._threads if thread.is_alive()]
        self._threads = []
        for thread in wedged:
            record_degradation(
                "serve.pool", thread.name, "wedged",
                f"thread still alive {timeout:g}s after stop; "
                f"failing its in-flight tickets")
        with self._state_lock:
            held = [(index, batch) for index, (_, batch)
                    in self._outstanding.items()]
            self._outstanding.clear()
            self._stalled.clear()
        for batch in undispatched:
            _fail_batch(batch, ServiceClosedError(
                "service stopped before the batch reached a worker"))
        for index, batch in held:
            _fail_batch(batch, ServiceClosedError(
                f"service stopped while thread-{index} held the batch "
                f"and the worker did not finish within the {timeout:g}s "
                f"stop deadline"))


# ----------------------------------------------------------------------
# Process workers
# ----------------------------------------------------------------------
def _process_worker_main(worker_id: int, spec: PredictorSpec,
                         group_size: int, task_q, result_q,
                         heartbeat_s: float = 0.2) -> None:
    """Child entry point: build the private predictor, serve messages.

    Protocol (parent -> child): ``("predict", batch_id, cases)``,
    ``("swap", swap_id, state)``, ``("sleep", seconds)`` (chaos/testing
    hook: occupies the worker so liveness and watchdog handling can be
    exercised deterministically), ``("stop",)``.
    Child -> parent: ``("ready", wid)``, ``("beat", wid)`` heartbeats
    emitted by the idle poll loop (a hung compute stops them — that is
    the liveness signal, so no side thread may fake them), ``("done",
    wid, batch_id, entries, model_version)`` with one tagged entry per
    case (see :func:`_batch_entries`), ``("swapped", wid, swap_id,
    model_version)``, ``("error", wid, batch_id, text)``.
    """
    predictor = spec.build(group_size=group_size)
    result_q.put(("ready", worker_id))
    while True:
        try:
            message = task_q.get(timeout=heartbeat_s)
        except _stdlib_queue.Empty:
            result_q.put(("beat", worker_id))
            continue
        kind = message[0]
        if kind == "stop":
            return
        if kind == "sleep":
            time.sleep(float(message[1]))
            continue
        if kind == "swap":
            _, swap_id, state = message
            predictor.model.load_state_dict(state)
            result_q.put(("swapped", worker_id, swap_id,
                          predictor.model.state_version))
            continue
        _, batch_id, cases = message
        try:
            entries = _batch_entries(predictor, cases)
            result_q.put(("done", worker_id, batch_id, entries,
                          predictor.model.state_version))
        except Exception as error:  # catastrophic (pickling, queue ...)
            result_q.put(("error", worker_id, batch_id,
                          f"{type(error).__name__}: {error}"))


def _discard_queue(q) -> None:
    """Release a multiprocessing queue whose reader is gone.

    A killed worker leaves its task queue with a parent-side feeder
    thread blocked mid-``send`` (the parent holds a read end, so the
    pipe never breaks); ``cancel_join_thread`` keeps interpreter exit
    from joining that stuck feeder forever.
    """
    try:
        q.cancel_join_thread()
        q.close()
    except (OSError, ValueError):  # already torn down
        pass


class _ProcessWorker:
    """Parent-side handle on one worker process."""

    def __init__(self, worker_id: int, process, task_q):
        self.id = worker_id
        self.process = process
        self.task_q = task_q
        self.ready = threading.Event()
        # set by the watchdog just before the force-kill so the reaper
        # can tell a stall-kill from an organic death (error taxonomy)
        self.stalled = False

    @property
    def name(self) -> str:
        return f"process-{self.id}"

    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessWorkerPool:
    """OS-process workers with liveness monitoring and loud failure.

    The parent keeps at most one outstanding micro-batch per worker; a
    monitor thread collects results, detects deaths, respawns workers and
    re-dispatches (or fails) orphaned batches.
    """

    def __init__(self, spec: PredictorSpec, config: ServeConfig,
                 on_result: Optional[ResultCallback] = None,
                 on_failure: Optional[FailureCallback] = None,
                 guard: Optional[OutputGuard] = None,
                 health: Optional[HealthMonitor] = None):
        import multiprocessing

        self.config = config
        self.on_result = on_result
        self.on_failure = on_failure
        self.guard = guard
        self.health = health
        self._spec = spec
        self._ctx = multiprocessing.get_context(config.mp_context)
        self._result_q = self._ctx.Queue()
        self._lock = threading.Condition()
        self._workers: Dict[int, _ProcessWorker] = {}
        self._idle: List[int] = []
        # (ready_at, batch): re-dispatches after a worker death wait out
        # a jittered exponential backoff instead of hammering the fresh
        # worker; first-time submits are ready immediately (ready_at=0)
        self._pending: Deque[Tuple[float, List[PredictionRequest]]] = deque()
        self._backoff = BackoffPolicy(base_s=config.backoff_base_s,
                                      cap_s=config.backoff_cap_s)
        # worker_id -> (batch_id, batch, dispatch perf_counter): the
        # timestamp is what the hung-worker watchdog ages against
        self._outstanding: Dict[
            int, Tuple[int, List[PredictionRequest], float]] = {}
        self._swap_acks: Dict[int, set] = {}
        # latest hot-swapped weights; respawned workers (built from the
        # original spec) must catch up before serving anything
        self._swap_state: Optional[Dict[str, np.ndarray]] = None
        self._next_worker_id = 0
        self._next_batch_id = 0
        self._respawns = 0
        self._failed: Optional[str] = None
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 120.0) -> None:
        with self._lock:
            for _ in range(self.config.workers):
                self._spawn_locked()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-monitor",
            daemon=True)
        self._monitor.start()
        deadline = time.perf_counter() + ready_timeout
        for worker in list(self._workers.values()):
            remaining = deadline - time.perf_counter()
            if not worker.ready.wait(max(0.0, remaining)):
                raise ServeError(
                    f"worker {worker.name} did not become ready within "
                    f"{ready_timeout}s")

    def _spawn_locked(self) -> _ProcessWorker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(worker_id, self._spec, self.config.max_batch,
                  task_q, self._result_q, self.config.heartbeat_s),
            daemon=True)
        process.start()
        worker = _ProcessWorker(worker_id, process, task_q)
        if self._swap_state is not None:
            # FIFO on the task queue: the catch-up swap applies before
            # any batch this worker is handed
            task_q.put(("swap", -1, self._swap_state))
        self._workers[worker_id] = worker
        self._idle.append(worker_id)
        if self.health is not None:
            self.health.register(worker.name)
        return worker

    # ------------------------------------------------------------------
    def submit(self, batch: List[PredictionRequest]) -> None:
        """Queue a micro-batch for the next idle worker (blocks while
        every worker already holds a batch)."""
        with self._lock:
            while True:
                if self._failed is not None:
                    raise ServeError(
                        f"process worker pool failed: {self._failed}")
                if self._stopping:
                    raise ServiceClosedError("worker pool is stopping")
                if len(self._pending) < max(1, len(self._workers)):
                    break
                self._lock.wait(0.1)
            self._pending.append((0.0, batch))
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        now = time.perf_counter()
        index = 0
        deferred: List[int] = []
        while self._idle and index < len(self._pending):
            ready_at, batch = self._pending[index]
            if ready_at > now:
                index += 1  # backoff not elapsed; try the next batch
                continue
            worker_id = self._idle.pop(0)
            worker = self._workers.get(worker_id)
            if worker is None or not worker.alive():
                continue  # monitor will reap it; batch stays pending
            if not worker.ready.is_set():
                # a respawn still building its model: handing it work now
                # would start the batch's watchdog clock on init time and
                # get the replacement killed in turn — keep it idle, the
                # monitor loop redispatches once it reports ready
                deferred.append(worker_id)
                continue
            del self._pending[index]
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self._outstanding[worker_id] = (batch_id, batch,
                                            time.perf_counter())
            worker.task_q.put(
                ("predict", batch_id,
                 [request.case for request in batch]))
        self._idle.extend(deferred)

    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        import queue as stdlib_queue

        while True:
            with self._lock:
                if self._stopping and not self._outstanding \
                        and not self._pending:
                    return
            try:
                message = self._result_q.get(timeout=0.05)
            except stdlib_queue.Empty:
                message = None
            if message is not None:
                self._handle_message(message)
            self._watchdog_sweep()
            self._reap_dead()
            with self._lock:
                # flush retries whose backoff window has elapsed
                if self._pending and self._idle:
                    self._dispatch_locked()

    def _watchdog_sweep(self) -> None:
        """Force-kill workers whose batch is outstanding past the
        watchdog budget; the reaper then routes the batch through the
        normal backoff/re-dispatch/respawn path."""
        budget = self.config.watchdog_s
        if budget is None:
            return
        now = time.perf_counter()
        victims: List[Tuple[_ProcessWorker, float]] = []
        with self._lock:
            for worker_id, (_, _, dispatched_at) in \
                    list(self._outstanding.items()):
                worker = self._workers.get(worker_id)
                if worker is None or worker.stalled:
                    continue
                age = now - dispatched_at
                if age > budget:
                    worker.stalled = True
                    victims.append((worker, age))
        for worker, age in victims:
            record_degradation(
                "serve.watchdog", worker.name, "killed",
                f"batch outstanding {age:.3f}s > watchdog {budget:g}s; "
                f"force-killing the hung worker")
            if self.health is not None:
                self.health.mark_stalled(
                    worker.name,
                    note=f"batch outstanding {age:.3f}s > watchdog "
                         f"{budget:g}s; killed")
            try:
                worker.process.kill()
            except (OSError, ValueError):  # already gone
                pass

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "beat":
            if self.health is not None:
                with self._lock:
                    worker = self._workers.get(message[1])
                if worker is not None:
                    self.health.beat(worker.name)
            return
        if kind == "ready":
            with self._lock:
                worker = self._workers.get(message[1])
            if worker is not None:
                worker.ready.set()
                if self.health is not None:
                    self.health.beat(worker.name)
            return
        if kind == "swapped":
            _, worker_id, swap_id, _version = message
            with self._lock:
                self._swap_acks.setdefault(swap_id, set()).add(worker_id)
                self._lock.notify_all()
            return
        if kind in ("done", "error"):
            worker_id, batch_id = message[1], message[2]
            with self._lock:
                entry = self._outstanding.get(worker_id)
                if entry is None or entry[0] != batch_id:
                    return  # stale (pre-respawn) message
                del self._outstanding[worker_id]
                batch = entry[1]
                if worker_id in self._workers:
                    self._idle.append(worker_id)
                self._dispatch_locked()
                self._lock.notify_all()
            worker_name = f"process-{worker_id}"
            if self.health is not None:
                # a completed message is the strongest liveness proof
                self.health.beat(worker_name)
            if kind == "done":
                _resolve_batch(batch, message[3], worker_name,
                               message[4], self.on_result,
                               guard=self.guard, on_failure=self.on_failure)
            else:
                _fail_batch(batch, PredictionFailedError(
                    f"worker {worker_name} failed: {message[3]}"),
                    self.on_failure)

    def _reap_dead(self) -> None:
        to_fail: List[Tuple[List[PredictionRequest], BaseException]] = []
        with self._lock:
            dead = [worker for worker in self._workers.values()
                    if not worker.alive()]
            if not dead:
                return
            for worker in dead:
                del self._workers[worker.id]
                _discard_queue(worker.task_q)
                if worker.id in self._idle:
                    self._idle.remove(worker.id)
                if self.health is not None:
                    self.health.remove(
                        worker.name,
                        note=("killed by watchdog" if worker.stalled
                              else f"died (exitcode "
                                   f"{worker.process.exitcode})"))
                entry = self._outstanding.pop(worker.id, None)
                if entry is not None:
                    batch = entry[1]
                    for request in batch:
                        request.attempts += 1
                    if batch and batch[0].attempts > self.config.retries:
                        if worker.stalled:
                            death: ServeError = WorkerStalledError(
                                f"worker {worker.name} hung past the "
                                f"{self.config.watchdog_s:g}s watchdog, "
                                f"was force-killed, and retries are "
                                f"exhausted "
                                f"(attempts={batch[0].attempts}, "
                                f"retries={self.config.retries})")
                        else:
                            death = WorkerDiedError(
                                f"worker {worker.name} died "
                                f"(exitcode {worker.process.exitcode}) and "
                                f"retries are exhausted "
                                f"(attempts={batch[0].attempts}, "
                                f"retries={self.config.retries})")
                        to_fail.append((batch, death))
                    else:
                        # retry first, but only after a jittered backoff
                        # keyed on the request id (deterministic per
                        # request, decorrelated across requests)
                        delay = self._backoff.delay(
                            batch[0].attempts,
                            key=batch[0].id if batch else 0)
                        self._pending.appendleft(
                            (time.perf_counter() + delay, batch))
                if not self._stopping:
                    if self._respawns >= self.config.max_respawns:
                        self._failed = (
                            f"{self._respawns} worker respawns exhausted "
                            f"(crash-looping spec?)")
                        record_degradation(
                            "serve.pool", "respawn", "failed",
                            self._failed)
                    else:
                        self._respawns += 1
                        record_degradation(
                            "serve.pool", worker.name, "respawn",
                            f"{'watchdog-killed' if worker.stalled else 'exitcode ' + str(worker.process.exitcode)}; "
                            f"respawn {self._respawns}/"
                            f"{self.config.max_respawns}")
                        self._spawn_locked()
            if self._failed is not None:
                while self._pending:
                    to_fail.append((self._pending.popleft()[1],
                                    ServeError(self._failed)))
            self._dispatch_locked()
            self._lock.notify_all()
        for batch, error in to_fail:
            _fail_batch(batch, error, self.on_failure)

    # ------------------------------------------------------------------
    def swap(self, state: Dict[str, np.ndarray],
             timeout: Optional[float] = 60.0) -> None:
        """Broadcast new weights; returns once every worker acked.

        The swap message queues *behind* any outstanding batch on each
        worker's task queue, so in-flight requests complete on the old
        weights and everything dispatched afterwards runs on the new.
        """
        with self._lock:
            swap_id = self._next_batch_id
            self._next_batch_id += 1
            self._swap_state = dict(state)
            targets = {worker_id: worker
                       for worker_id, worker in self._workers.items()}
            for worker in targets.values():
                worker.task_q.put(("swap", swap_id, state))
            deadline = (None if timeout is None
                        else time.perf_counter() + timeout)
            while True:
                acked = self._swap_acks.get(swap_id, set())
                # workers that died mid-swap are respawned from the spec
                # (old weights!) — treat that as a failure, not success
                missing = [worker_id for worker_id in targets
                           if worker_id not in acked
                           and worker_id in self._workers]
                lost = [worker_id for worker_id in targets
                        if worker_id not in acked
                        and worker_id not in self._workers]
                if lost:
                    raise ServeError(
                        f"hot-swap failed: worker(s) "
                        f"{sorted(lost)} died before acking")
                if not missing:
                    break
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    raise ServeError(
                        f"hot-swap timed out after {timeout}s; workers "
                        f"{sorted(missing)} did not ack")
                self._lock.wait(0.05 if remaining is None
                                else min(0.05, remaining))
            self._swap_acks.pop(swap_id, None)

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
            orphans = [batch for _, batch in self._pending]
            self._pending.clear()
            self._lock.notify_all()
        for batch in orphans:
            _fail_batch(batch, ServiceClosedError(
                "service stopped before the request was dispatched"))
        for worker in workers:
            try:
                worker.task_q.put(("stop",))
            except (OSError, ValueError):  # queue already torn down
                pass
        deadline = time.perf_counter() + timeout
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.perf_counter()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            _discard_queue(worker.task_q)
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None
        _discard_queue(self._result_q)
        with self._lock:
            leftovers = [entry[1] for entry in self._outstanding.values()]
            self._outstanding.clear()
            self._workers.clear()
            self._idle.clear()
        for batch in leftovers:
            _fail_batch(batch, ServiceClosedError(
                "service stopped while the request was in flight"))
