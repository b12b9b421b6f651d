"""The workloads of the deck-to-map benchmark and their phases.

Every workload builds the predictor exactly as ``python -m repro.serve``
does (``build_spec``: edge 48, 192 points, prep cache 64) and serves it
with ``ServeConfig`` defaults; only the worker kind and count differ,
plus the queue capacity during a burst.  ``run.py`` sets one BLAS
thread unless the environment sets a count.

``serve_warm``
    One thread worker, six recurring hidden cases.  The working set is
    smaller than the prep cache, so prep is all hits and plans are warm:
    the cost is the serve path and the compiled forward.
``serve_cold_process2``
    Two process workers, 160 distinct requests round-robin (40 hidden
    cases, each under four names; the prep cache keys on name and
    content).  Each worker has its own 64-entry cache and sees about
    half the traffic, so a working set above 2 x 64 makes every request
    pay prep and point-cloud sampling.  Cases and maps cross ``mp.Queue``.
    Runnable by name, but not listed in ``BENCHMARK.json``: its set-up
    and spawn cost do not fit the benchmark's time budget.
``deck_to_map``
    One closed-loop client sends seeded distinct SPICE decks through
    ``ingest_text`` and ``PredictionService.predict`` (one thread
    worker); it has no loaded phase.  It is the only workload that runs
    parse, validation, classification, the golden solve, rasterisation
    and feature maps; every deck is new, so prep always misses.

Rates are fixed here rather than measured per run, so a faster program
shows as lower latency at the same offered load.  Serve phases: a light
paced phase (about 1/3 of burst capacity on a 2-CPU box), a loaded paced
phase (faster, but below the capacity at the small batch sizes paced
traffic forms, where queueing would make its p90 swing from run to run),
then a burst with the queue widened to hold it.

A run repeats short rounds of its phases until ``--seconds`` of phase
time have been measured.  Each phase of a round is one window of a few
seconds; the run's figures are taken per window, so a stretch of time in
which the shared host slows the machine spoils its own windows only.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.synthesis import make_suite
from repro.ingest import IngestError, ingest_text
from repro.pdn import PDNConfig, contest_stack, generate_pdn
from repro.serve import (
    BackpressureError,
    CircuitOpenError,
    DeadlineExceededError,
    PredictionService,
    PredictionTicket,
    ServeConfig,
    ServeError,
)
from repro.serve.__main__ import build_spec
from repro.spice import write_spice
from repro.train.loader import CasePreprocessor

MODEL = "LMM-IR (Ours)"
EDGE = 48
POINTS = 192
RESULT_TIMEOUT_S = 120.0
#: Rounds a run makes however short ``--seconds`` is.
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    worker_kind: str
    workers: int
    setups: int = 3            # set-ups per run; setup_s is their median
    hidden: int = 6            # hidden cases synthesised
    names_per_case: int = 1    # distinct request names per hidden case
    # requests per round of each serve phase
    light_hz: float = 0.0
    light_n: int = 0
    loaded_hz: float = 0.0
    loaded_n: int = 0
    burst_n: int = 0
    decks_n: int = 0           # deck_to_map: decks per round of each phase

    @property
    def decks(self) -> bool:
        return self.decks_n > 0


WORKLOADS: Dict[str, Workload] = {
    "serve_warm": Workload(
        "serve_warm", "thread", 1,
        light_hz=25.0, light_n=30, loaded_hz=30.0, loaded_n=36, burst_n=72),
    "serve_cold_process2": Workload(
        "serve_cold_process2", "process", 2, setups=1,
        hidden=40, names_per_case=4,
        light_hz=6.0, light_n=25, loaded_hz=9.0, loaded_n=25, burst_n=24),
    "deck_to_map": Workload("deck_to_map", "thread", 1, decks_n=8),
}


# ----------------------------------------------------------------------
# Inputs: a pure function of the seed
# ----------------------------------------------------------------------
@dataclass
class Deck:
    name: str
    text: str


#: Base grids a run may draw decks from.  Base ``k`` is a square die of
#: edge ``64 + 112 * ((k + 0.5) / DECK_BASES) ** 2`` um: 1.2k to 8k
#: nodes, weighted towards small dies.
DECK_BASES = 24


def _scale_currents(text: str, rng: np.random.Generator) -> str:
    """Rescale every current source by its own factor in [0.5, 1.5]."""
    lines = text.split("\n")
    for index, line in enumerate(lines):
        if line[:1] in ("I", "i"):
            head, value = line.rsplit(" ", 1)
            lines[index] = f"{head} {float(value) * rng.uniform(0.5, 1.5)!r}"
    return "\n".join(lines)


class DeckSource:
    """Distinct decks, made phase by phase in the order sent.

    A phase of ``n`` decks draws ``n`` bases evenly spread over the
    ``DECK_BASES`` die sizes, so every phase and every seed sends the same
    size mix, in the same fixed shuffled order.  Each deck rescales every
    load current of its base by its own seeded factor, so every deck
    solves to a different map.  The same seed and the same sequence of
    phase sizes give the same decks.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0xDEC])
        self.orders: Dict[int, List[int]] = {}
        self.grid_seeds = self.rng.integers(2 ** 31, size=DECK_BASES)
        self.bases: Dict[int, str] = {}
        self.made = 0

    def base(self, k: int) -> str:
        if k not in self.bases:
            edge = 64.0 + 112.0 * ((k + 0.5) / DECK_BASES) ** 2
            config = PDNConfig(stack=contest_stack(), width_um=edge,
                               height_um=edge, total_current=0.08,
                               num_pads=6, hotspots=4, tap_spacing_um=4.0,
                               seed=int(self.grid_seeds[k]))
            self.bases[k] = write_spice(
                generate_pdn(config, name=f"base{k}").netlist)
        return self.bases[k]

    def phase(self, count: int) -> list:
        """The next phase's ``count`` decks as (index, deck) pairs."""
        if count not in self.orders:
            picks = [int((j + 0.5) * DECK_BASES / count)
                     for j in range(count)]
            np.random.default_rng(0xDEC).shuffle(picks)
            self.orders[count] = picks
        decks = []
        for k in self.orders[count]:
            decks.append((self.made, Deck(f"deck-{self.seed}-{self.made}",
                                          _scale_currents(self.base(k),
                                                          self.rng))))
            self.made += 1
        return decks


@dataclass
class Inputs:
    suite: object
    cases: list                 # requests' case objects (serve workloads)
    bases: List[int]            # cases[i] has the content of hidden[bases[i]]
    decks: Optional[DeckSource] = None
    sent_cases: int = 0

    def next_cases(self, count: int) -> list:
        """The next ``count`` requests, round-robin over ``cases``."""
        first = self.sent_cases
        self.sent_cases += count
        return [((first + k) % len(self.cases),
                 self.cases[(first + k) % len(self.cases)])
                for k in range(count)]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Everything a run sends, from ``seed``; decks are made as sent."""
    suite = make_suite(num_fake=4, num_real=2, num_hidden=workload.hidden,
                       seed=seed)
    hidden = list(suite.hidden_cases)
    cases, bases = [], []
    for copy in range(workload.names_per_case):
        for index, case in enumerate(hidden):
            if workload.names_per_case > 1:
                case = dataclasses.replace(case, name=f"{case.name}~{copy}")
            cases.append(case)
            bases.append(index)
    return Inputs(suite=suite, cases=cases, bases=bases,
                  decks=DeckSource(seed) if workload.decks else None)


# ----------------------------------------------------------------------
# Set-up: model build -> prep fit -> service start -> warm-up
# ----------------------------------------------------------------------
def serve_config(workload: Workload) -> ServeConfig:
    return ServeConfig(workers=workload.workers,
                       worker_kind=workload.worker_kind)


def warm_up(service: PredictionService, cases: list) -> None:
    """Serve batches of every size 1..max_batch on every worker.

    Plans are compiled per batch shape, so once each worker has served
    each size its plan count stops growing.  A batch is formed by
    submitting ``b`` requests back to back, inside the batch window.
    """
    config = service.config
    names = [f"{config.worker_kind}-{index}" for index in range(config.workers)]
    for size in range(1, config.max_batch + 1):
        missing = set(names)
        for _ in range(8 * len(names)):
            tickets = [service.submit(cases[index % len(cases)])
                       for index in range(size)]
            for ticket in tickets:
                result = ticket.result(RESULT_TIMEOUT_S)
                if result.batch_size == size:
                    missing.discard(result.worker)
            if not missing:
                break
        else:
            raise RuntimeError(
                f"warm-up never served a batch of {size} on "
                f"{sorted(missing)}")


def set_up(workload: Workload, inputs: Inputs, prep_fit=None):
    """Build and warm one service; returns (service, spec, timings).

    ``prep_fit`` is a zero-argument callable returning the seconds spent
    in ``CasePreprocessor.fit`` so far (traced runs split the build).
    """
    fit_before = prep_fit() if prep_fit else 0.0
    start = time.perf_counter()
    spec = build_spec(MODEL, EDGE, POINTS, inputs.suite)
    built = time.perf_counter()
    service = PredictionService(spec, serve_config(workload))
    try:
        service.start()
        started = time.perf_counter()
        warm_up(service, list(inputs.suite.hidden_cases))
    except BaseException:
        service.stop(drain=False)
        raise
    warmed = time.perf_counter()
    fit = (prep_fit() - fit_before) if prep_fit else 0.0
    return service, spec, {
        "setup_s": warmed - start,
        "model_build_s": built - start - fit,
        "prep_fit_s": fit,
        "service_start_s": started - built,
        "warmup_s": warmed - started,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class CompletionClock:
    """Stamps the moment each ticket is fulfilled (after the guard).

    ``PredictionTicket.fulfill`` is the one place a guarded result
    becomes visible to its caller; an open-loop client never blocks on
    its tickets, so the stamp is taken there.
    """

    def __init__(self):
        self.stamps: Dict[int, float] = {}
        self._original = None

    def __enter__(self) -> "CompletionClock":
        original = self._original = PredictionTicket.fulfill
        stamps = self.stamps

        def fulfill(ticket, result):
            original(ticket, result)
            stamps[ticket.request_id] = time.perf_counter()

        PredictionTicket.fulfill = fulfill
        return self

    def __exit__(self, *exc_info) -> None:
        PredictionTicket.fulfill = self._original


@dataclass
class Served:
    """One request that came back with a guarded map."""

    case_index: int             # index into the phase's input list
    start: float                # due time (open loop) / deck start
    sent: float                 # submit() call (after ingest for decks)
    done: float                 # fulfilment stamp
    result: object              # ServeResult
    thread: str = ""            # client thread (closed loop)
    case: object = None         # the ingested case (decks)

    @property
    def latency(self) -> float:
        return self.done - self.start


@dataclass
class Phase:
    """One phase's outcomes, pooled over the rounds of a run; each
    round's part is one window (``windows``, ``rates``)."""

    name: str
    served: List[Served] = field(default_factory=list)
    offered: int = 0
    rejected: int = 0
    shed: int = 0
    failed: int = 0
    expired: int = 0
    errors: List[str] = field(default_factory=list)
    duration_s: float = 0.0
    rates: List[float] = field(default_factory=list)  # served/s per window
    windows: List[np.ndarray] = field(default_factory=list)  # latencies, ms

    @property
    def not_served(self) -> int:
        return self.rejected + self.shed + self.failed + self.expired

    def latencies_ms(self) -> np.ndarray:
        return np.array([s.latency for s in self.served]) * 1e3

    def absorb(self, part: "Phase") -> None:
        self.served += part.served
        self.errors += part.errors
        for counter in ("offered", "rejected", "shed", "failed", "expired",
                        "duration_s"):
            setattr(self, counter,
                    getattr(self, counter) + getattr(part, counter))
        if part.duration_s > 0 and part.served:
            self.rates.append(len(part.served) / part.duration_s)
            self.windows.append(part.latencies_ms())


def _collect(phase: Phase, pending, clock: CompletionClock) -> None:
    deadline = time.perf_counter() + RESULT_TIMEOUT_S
    for case_index, due, sent, ticket in pending:
        try:
            result = ticket.result(max(0.0, deadline - time.perf_counter()))
        except DeadlineExceededError as error:
            phase.expired += 1
            phase.errors.append(f"{type(error).__name__}: {error}")
            continue
        except (ServeError, TimeoutError) as error:
            phase.failed += 1
            phase.errors.append(f"{type(error).__name__}: {error}")
            continue
        phase.served.append(Served(case_index, due, sent,
                                   clock.stamps[ticket.request_id], result))


def _submit(phase: Phase, service, case):
    phase.offered += 1
    try:
        return service.submit(case)
    except BackpressureError:
        phase.rejected += 1
    except CircuitOpenError:
        phase.shed += 1
    return None


def paced(name: str, service, requests, rate_hz: float,
          clock: CompletionClock) -> Phase:
    """Open loop over ``requests`` ((index, case) pairs): request ``i`` is
    due at ``start + i / rate_hz`` and is timed from that due time, so a
    stall also delays later requests."""
    phase = Phase(name)
    pending = []
    gc.collect()
    start = time.perf_counter() + 0.005
    for position, (case_index, case) in enumerate(requests):
        due = start + position / rate_hz
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        ticket = _submit(phase, service, case)
        if ticket is not None:
            pending.append((case_index, due, sent, ticket))
    _collect(phase, pending, clock)
    phase.duration_s = time.perf_counter() - start
    return phase


def burst(service, requests, clock: CompletionClock) -> Phase:
    """Submit every request at once; the queue is widened to hold them
    so the burst measures service capacity, not admission."""
    phase = Phase("burst")
    capacity = service.queue.capacity
    service.queue.capacity = max(capacity, len(requests))
    gc.collect()
    try:
        pending = []
        start = time.perf_counter()
        for case_index, case in requests:
            ticket = _submit(phase, service, case)
            if ticket is not None:
                pending.append((case_index, start, time.perf_counter(),
                                ticket))
        _collect(phase, pending, clock)
    finally:
        service.queue.capacity = capacity
    if phase.served:
        phase.duration_s = max(s.done for s in phase.served) - start
    return phase


def serve_round(workload: Workload, service, inputs: Inputs,
                light_only: bool, clock: CompletionClock) -> List[Phase]:
    parts = []
    for name, rate, count in (
            ("light", workload.light_hz, workload.light_n),
            ("loaded", workload.loaded_hz, workload.loaded_n)):
        parts.append(paced(name, service, inputs.next_cases(count), rate,
                           clock))
        if light_only:
            return parts
    parts.append(burst(service, inputs.next_cases(workload.burst_n), clock))
    return parts


def deck_loop(service, decks) -> Phase:
    """Closed loop with one client over ``decks`` ((index, deck) pairs):
    ingest a deck, wait for its map, then start the next."""
    phase = Phase("light", offered=len(decks))
    gc.collect()
    start = time.perf_counter()
    for index, deck in decks:
        began = time.perf_counter()
        try:
            ingested = ingest_text(deck.text, name=deck.name)
            if ingested.case is None:
                raise IngestError(
                    f"{deck.name}: degraded to {ingested.outcome}")
            sent = time.perf_counter()
            result = service.predict(ingested.case, timeout=RESULT_TIMEOUT_S)
        except Exception as error:  # a failed deck, not a failed run
            phase.failed += 1
            phase.errors.append(f"{type(error).__name__}: {error}")
            continue
        phase.served.append(Served(index, began, sent, time.perf_counter(),
                                   result, thread=threading.current_thread()
                                   .name, case=ingested.case))
    phase.duration_s = time.perf_counter() - start
    return phase


def measure(workload: Workload, service, inputs: Inputs, seconds: float,
            between: Callable[[Phase], None],
            light_only: bool = False) -> Dict[str, Phase]:
    """Run rounds of the workload's phases until ``seconds`` of phase time
    have been measured (and at least ``MIN_ROUNDS`` rounds),
    pooling each phase over the rounds; ``light_only`` runs one round of
    the light phase only (the untraced reference of a traced run).
    ``between(part)`` runs after each phase of a round, outside the timed
    region."""
    merged: Dict[str, Phase] = {}
    measured = 0.0
    rounds = 0
    with CompletionClock() as clock:
        while (rounds < 1) if light_only else (
                rounds < MIN_ROUNDS or measured < seconds):
            parts = ([deck_loop(service,
                                inputs.decks.phase(workload.decks_n))]
                     if workload.decks
                     else serve_round(workload, service, inputs, light_only,
                                      clock))
            rounds += 1
            for part in parts:
                measured += part.duration_s
                between(part)
                merged.setdefault(part.name, Phase(part.name)).absorb(part)
    return merged


# ----------------------------------------------------------------------
# Correctness: served maps vs direct predict_case on the same weights
# ----------------------------------------------------------------------
class Parity:
    """Checks served maps bit-for-bit (float64) against
    ``IRPredictor.predict_case`` on the same weights.

    Called between timed phases.  Serve requests are compared with the
    reference of their hidden case (renamed copies share content); decks
    with ``predict_case`` on the case they were ingested into.  Checked
    maps and ingested cases are released, so the run's heap does not
    grow with the number of requests served.
    """

    def __init__(self, spec, inputs: Inputs):
        self.direct = spec.build()
        # an uncached reference: the prep cache would pin ingested cases
        self.direct.prep_cache = None
        self.inputs = inputs
        self.references: Dict[int, np.ndarray] = {}
        self.checked = 0
        self.mismatches = 0

    def check(self, phase: Phase) -> None:
        for served in phase.served:
            if served.result.prediction is None:
                continue
            if served.case is not None:
                reference, _ = self.direct.predict_case(served.case)
            else:
                base = self.inputs.bases[served.case_index]
                if base not in self.references:
                    self.references[base], _ = self.direct.predict_case(
                        self.inputs.cases[served.case_index])
                reference = self.references[base]
            self.checked += 1
            if not np.array_equal(served.result.prediction, reference):
                self.mismatches += 1
            served.result = dataclasses.replace(served.result,
                                                prediction=None)
            served.case = None


def prep_fit_clock(tracer) -> Callable[[], float]:
    """Wrap ``CasePreprocessor.fit`` on ``tracer``; returns a callable
    giving the seconds spent in it so far."""
    tracer.wrap(CasePreprocessor, "fit", "setup.prep_fit")
    return lambda: tracer.layer_self("setup.prep_fit")[1]
