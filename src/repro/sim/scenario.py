"""Declarative multi-tenant scenarios: arrival processes and tenancy.

The paper's experiments pin one workload shape — a fixed tenant set of
closed-loop streams, all present from t=0 — but the headline claim is
adaptive cache management for *dynamic* multi-DNN workloads.  This module
makes the workload axis declarative so arrival dynamics are first-class
experiment inputs:

* :class:`ArrivalProcess` — how one stream's inferences arrive: the
  closed loop of the paper, open-loop periodic dispatch, a seeded Poisson
  process, a bursty on/off pattern, a Markov-modulated Poisson process,
  a diurnal (sinusoidally modulated, optionally flash-crowd-boosted)
  Poisson process, or the replay of a captured run's exact timeline
  (see :mod:`repro.sim.trace`).
* :class:`StreamSpec` — one tenant: model, QoS class, arrival process,
  count quota, and a ``join_s``/``leave_s`` lifecycle so tenants can
  enter and leave mid-run without coordination (the asynchronous
  multiple-access regime of the conflict-avoiding-code literature).
* :class:`ScenarioSpec` — the full scenario: tenant set plus measurement
  window.  Specs serialize to canonical JSON with exact float round-trip
  (see :mod:`repro.core.serialize`), so they can key on-disk caches.

A process-wide registry maps names to curated scenarios
(:func:`register_scenario` / :func:`get_scenario` /
:func:`scenario_names`); ``python -m repro.experiments.runner
--list-scenarios`` prints it.

Every spec is a frozen dataclass: hashable, comparable, and safe to share
across threads and worker processes.  Seeded randomness (Poisson
arrivals) is derived purely from the spec, so a scenario simulates
identically under any ``--jobs`` setting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import WorkloadError

#: Serialization schema of scenario specs; bump on field changes.
#: v2: modulated arrivals (mmpp / diurnal) and trace replay — adds the
#: ``rates_hz`` / ``sojourn_s`` / ``amplitude`` / ``flash_every_s`` /
#: ``flash_width_s`` / ``flash_boost`` / ``times`` fields.
SCENARIO_SCHEMA_VERSION = 2

#: Arrival-process kinds.
CLOSED_LOOP = "closed-loop"
PERIODIC = "periodic"
POISSON = "poisson"
BURSTY = "bursty"
MMPP = "mmpp"
DIURNAL = "diurnal"
REPLAY = "replay"

_KINDS = (CLOSED_LOOP, PERIODIC, POISSON, BURSTY, MMPP, DIURNAL, REPLAY)


@dataclass(frozen=True)
class ArrivalProcess:
    """How one stream's inferences arrive.

    Attributes:
        kind: ``"closed-loop"`` (next inference dispatched the instant the
            previous completes — the paper's setup), ``"periodic"`` (open
            loop, one arrival every ``period_s``), ``"poisson"`` (open
            loop, exponential inter-arrivals at ``rate_hz``, seeded), or
            ``"bursty"`` (open loop: ``on_s`` seconds of periodic
            arrivals, then ``off_s`` seconds of silence, repeating).
        period_s: inter-arrival period (periodic / bursty).
        rate_hz: mean arrival rate (poisson).
        phase_s: offset of the first arrival after the stream joins
            (periodic / bursty; staggers otherwise-identical streams).
        on_s / off_s: burst window lengths (bursty).
        seed: Poisson / mmpp / diurnal RNG seed.  The effective seed is
            salted with the stream's index, so identical processes on
            different streams draw independent (but reproducible)
            arrival times.
        rates_hz: per-state arrival rates (mmpp; >= 2 states, each
            rate >= 0 with at least one positive).
        sojourn_s: per-state mean dwell times (mmpp; one per state,
            each > 0).  State transitions cycle through the state list
            with exponential sojourns, and arrivals inside a state are
            Poisson at that state's rate — the exponential's
            memorylessness makes discarding the arrival candidate that
            overshoots a state boundary an exact MMPP simulation.
        amplitude: diurnal modulation depth in [0, 1]: the rate swings
            sinusoidally between ``rate_hz * (1 - amplitude)`` and
            ``rate_hz * (1 + amplitude)`` over one ``period_s`` cycle.
        flash_every_s / flash_width_s / flash_boost: optional recurring
            flash crowds on the diurnal process: every ``flash_every_s``
            seconds the rate is multiplied by ``flash_boost`` for
            ``flash_width_s`` seconds (the sudden-surge regime layered
            on the slow cycle).
        times: explicit absolute arrival schedule (replay).  ``None`` on
            a replay process means the source stream was
            completion-coupled (closed loop): its realized arrival times
            were *outputs* of the simulation, so the faithful replay
            preserves the coupling instead of pinning the times.

    Open-loop arrivals are *offered* regardless of service progress: if a
    stream's previous inference is still in flight, the new arrival waits
    in the stream's FIFO and its queueing delay counts toward latency.
    """

    kind: str = CLOSED_LOOP
    period_s: Optional[float] = None
    rate_hz: Optional[float] = None
    phase_s: float = 0.0
    on_s: Optional[float] = None
    off_s: Optional[float] = None
    seed: int = 2025
    rates_hz: Optional[Tuple[float, ...]] = None
    sojourn_s: Optional[Tuple[float, ...]] = None
    amplitude: float = 0.0
    flash_every_s: Optional[float] = None
    flash_width_s: Optional[float] = None
    flash_boost: float = 1.0
    times: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise WorkloadError(
                f"unknown arrival kind {self.kind!r}; known: {_KINDS}"
            )
        if self.rates_hz is not None:
            object.__setattr__(self, "rates_hz", tuple(self.rates_hz))
        if self.sojourn_s is not None:
            object.__setattr__(self, "sojourn_s", tuple(self.sojourn_s))
        if self.times is not None:
            object.__setattr__(self, "times", tuple(self.times))
        if self.kind in (PERIODIC, BURSTY, DIURNAL):
            if self.period_s is None or self.period_s <= 0:
                raise WorkloadError(f"{self.kind} needs period_s > 0")
        if self.kind in (POISSON, DIURNAL):
            if self.rate_hz is None or self.rate_hz <= 0:
                raise WorkloadError(f"{self.kind} needs rate_hz > 0")
        if self.kind == BURSTY:
            if self.on_s is None or self.on_s <= 0:
                raise WorkloadError("bursty needs on_s > 0")
            if self.off_s is None or self.off_s < 0:
                raise WorkloadError("bursty needs off_s >= 0")
        if self.kind == MMPP:
            if self.rates_hz is None or len(self.rates_hz) < 2:
                raise WorkloadError("mmpp needs >= 2 state rates_hz")
            if any(r < 0 for r in self.rates_hz) or \
                    not any(r > 0 for r in self.rates_hz):
                raise WorkloadError(
                    "mmpp rates_hz must be >= 0 with one positive"
                )
            if self.sojourn_s is None or \
                    len(self.sojourn_s) != len(self.rates_hz):
                raise WorkloadError(
                    "mmpp needs one sojourn_s per state"
                )
            if any(s <= 0 for s in self.sojourn_s):
                raise WorkloadError("mmpp sojourn_s must be positive")
        if self.kind == DIURNAL:
            if not 0.0 <= self.amplitude <= 1.0:
                raise WorkloadError("diurnal amplitude must be in [0, 1]")
            flash = (self.flash_every_s, self.flash_width_s)
            if any(f is not None for f in flash):
                if any(f is None or f <= 0 for f in flash):
                    raise WorkloadError(
                        "diurnal flash crowds need flash_every_s > 0 "
                        "and flash_width_s > 0"
                    )
                if self.flash_boost < 1.0:
                    raise WorkloadError(
                        "diurnal flash_boost must be >= 1"
                    )
        if self.kind == REPLAY and self.times is not None:
            if any(t < 0 for t in self.times):
                raise WorkloadError("replay times cannot be negative")
            if any(b < a for a, b in zip(self.times, self.times[1:])):
                raise WorkloadError(
                    "replay times must be non-decreasing"
                )
        if self.phase_s < 0:
            raise WorkloadError("phase_s cannot be negative")

    # -- constructors --------------------------------------------------

    @classmethod
    def closed_loop(cls) -> "ArrivalProcess":
        """The paper's dispatch rule (completion-coupled arrivals)."""
        return cls(kind=CLOSED_LOOP)

    @classmethod
    def periodic(cls, period_s: float,
                 phase_s: float = 0.0) -> "ArrivalProcess":
        """Open-loop fixed-rate arrivals."""
        return cls(kind=PERIODIC, period_s=period_s, phase_s=phase_s)

    @classmethod
    def poisson(cls, rate_hz: float, seed: int = 2025) -> "ArrivalProcess":
        """Open-loop memoryless arrivals at ``rate_hz`` (seeded)."""
        return cls(kind=POISSON, rate_hz=rate_hz, seed=seed)

    @classmethod
    def bursty(cls, period_s: float, on_s: float, off_s: float,
               phase_s: float = 0.0) -> "ArrivalProcess":
        """Open-loop on/off arrivals: ``on_s`` of periodic dispatch at
        ``period_s``, then ``off_s`` of silence, repeating."""
        return cls(kind=BURSTY, period_s=period_s, on_s=on_s,
                   off_s=off_s, phase_s=phase_s)

    @classmethod
    def mmpp(cls, rates_hz: Sequence[float],
             sojourn_s: Sequence[float],
             seed: int = 2025) -> "ArrivalProcess":
        """Markov-modulated Poisson arrivals: the stream cycles through
        hidden states with exponential sojourns (mean ``sojourn_s[i]``),
        offering Poisson arrivals at ``rates_hz[i]`` while in state
        ``i`` (seeded, reproducible under any ``--jobs``)."""
        return cls(kind=MMPP, rates_hz=tuple(rates_hz),
                   sojourn_s=tuple(sojourn_s), seed=seed)

    @classmethod
    def diurnal(cls, rate_hz: float, period_s: float,
                amplitude: float = 0.5, phase_s: float = 0.0,
                flash_every_s: Optional[float] = None,
                flash_width_s: Optional[float] = None,
                flash_boost: float = 1.0,
                seed: int = 2025) -> "ArrivalProcess":
        """Diurnal / flash-crowd arrivals: a non-homogeneous Poisson
        process whose rate swings sinusoidally around ``rate_hz`` over
        a ``period_s`` cycle, optionally multiplied by ``flash_boost``
        during recurring ``flash_width_s``-wide flash-crowd windows
        (every ``flash_every_s``).  Simulated by thinning against the
        peak rate, seeded and reproducible."""
        return cls(kind=DIURNAL, rate_hz=rate_hz, period_s=period_s,
                   amplitude=amplitude, phase_s=phase_s,
                   flash_every_s=flash_every_s,
                   flash_width_s=flash_width_s,
                   flash_boost=flash_boost, seed=seed)

    @classmethod
    def replay(cls, times: Optional[Sequence[float]]
               ) -> "ArrivalProcess":
        """Replay of a captured run (see :mod:`repro.sim.trace`):
        an explicit absolute arrival schedule for open-loop source
        streams, or completion coupling (``times=None``) for
        closed-loop sources."""
        return cls(
            kind=REPLAY,
            times=None if times is None else tuple(times),
        )

    # ------------------------------------------------------------------

    @property
    def is_open_loop(self) -> bool:
        if self.kind == REPLAY:
            # A replayed closed-loop stream stays completion-coupled:
            # its recorded arrival times were outputs of the source
            # simulation, not offered load.
            return self.times is not None
        return self.kind != CLOSED_LOOP

    def arrival_times(self, stream_index: int, start_s: float,
                      end_s: float) -> Iterator[float]:
        """Absolute arrival times in ``[start_s, end_s)``.

        Pure function of ``(self, stream_index, start_s, end_s)``; the
        Poisson stream seeds a private RNG from ``(seed, stream_index)``
        via string seeding (SHA-512 based, stable across processes and
        ``PYTHONHASHSEED`` values).

        Returns a plain iterator *object* (never a generator): the
        engine's checkpoint/restore machinery pickles in-flight arrival
        chains mid-draw, and generators cannot be pickled.  Each class
        below transcribes its former generator's draw sequence exactly —
        the committed reference summaries pin the equivalence.
        """
        if self.kind == CLOSED_LOOP:
            return iter(())
        if self.kind == REPLAY:
            if self.times is None:
                return iter(())
            return _ReplayTimes(self.times, start_s, end_s)
        if self.kind == PERIODIC:
            return _PeriodicTimes(self.period_s, start_s + self.phase_s,
                                  end_s)
        if self.kind == POISSON:
            return _PoissonTimes(self.rate_hz, self.seed, stream_index,
                                 start_s, end_s)
        if self.kind == MMPP:
            return _MmppTimes(self, stream_index, start_s, end_s)
        if self.kind == DIURNAL:
            return _DiurnalTimes(self, stream_index, start_s, end_s)
        # BURSTY: periodic arrivals inside [k*(on+off), k*(on+off)+on).
        return _BurstyTimes(self, start_s, end_s)

    def _diurnal_rate(self, t: float) -> float:
        """Instantaneous arrival rate of the diurnal process at ``t``."""
        rate = self.rate_hz * (
            1.0 + self.amplitude
            * math.sin(2.0 * math.pi * (t - self.phase_s)
                       / self.period_s)
        )
        if self.flash_every_s is not None and \
                (t % self.flash_every_s) < self.flash_width_s:
            rate *= self.flash_boost
        return rate

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (exact float round-trip)."""
        return {
            "kind": self.kind,
            "period_s": self.period_s,
            "rate_hz": self.rate_hz,
            "phase_s": self.phase_s,
            "on_s": self.on_s,
            "off_s": self.off_s,
            "seed": self.seed,
            "rates_hz": (
                None if self.rates_hz is None else list(self.rates_hz)
            ),
            "sojourn_s": (
                None if self.sojourn_s is None else list(self.sojourn_s)
            ),
            "amplitude": self.amplitude,
            "flash_every_s": self.flash_every_s,
            "flash_width_s": self.flash_width_s,
            "flash_boost": self.flash_boost,
            "times": None if self.times is None else list(self.times),
        }

    #: Field names accepted by :meth:`from_dict` (the dataclass fields).
    _FIELDS = frozenset((
        "kind", "period_s", "rate_hz", "phase_s", "on_s", "off_s",
        "seed", "rates_hz", "sojourn_s", "amplitude", "flash_every_s",
        "flash_width_s", "flash_boost", "times",
    ))

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalProcess":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            WorkloadError: unknown ``kind`` or unknown field names (so a
                mistyped or future-version process fails with a clear
                message instead of a ``TypeError``/``KeyError``).
        """
        kind = data.get("kind", CLOSED_LOOP)
        if kind not in _KINDS:
            raise WorkloadError(
                f"unknown arrival kind {kind!r}; known: {_KINDS}"
            )
        unknown = sorted(set(data) - cls._FIELDS)
        if unknown:
            raise WorkloadError(
                f"unknown arrival-process fields {unknown}; "
                f"known: {sorted(cls._FIELDS)}"
            )
        return cls(**data)


class _PeriodicTimes:
    """Picklable iterator: fixed-period arrivals starting at ``phase``."""

    __slots__ = ("t", "period_s", "end_s")

    def __init__(self, period_s: float, first_s: float,
                 end_s: float) -> None:
        self.t = first_s
        self.period_s = period_s
        self.end_s = end_s

    def __iter__(self) -> "_PeriodicTimes":
        return self

    def __next__(self) -> float:
        t = self.t
        if t >= self.end_s:
            raise StopIteration
        self.t = t + self.period_s
        return t


class _ReplayTimes:
    """Picklable iterator: recorded timestamps clipped to a window."""

    __slots__ = ("times", "i", "start_s", "end_s")

    def __init__(self, times: Tuple[float, ...], start_s: float,
                 end_s: float) -> None:
        self.times = times
        self.i = 0
        self.start_s = start_s
        self.end_s = end_s

    def __iter__(self) -> "_ReplayTimes":
        return self

    def __next__(self) -> float:
        times = self.times
        while self.i < len(times):
            t = times[self.i]
            self.i += 1
            if self.start_s <= t < self.end_s:
                return t
        raise StopIteration


class _PoissonTimes:
    """Picklable iterator: seeded Poisson arrivals (private RNG carries
    the draw position, so a pickled iterator resumes the exact
    sequence)."""

    __slots__ = ("rng", "t", "rate_hz", "end_s")

    def __init__(self, rate_hz: float, seed: int, stream_index: int,
                 start_s: float, end_s: float) -> None:
        self.rng = random.Random(f"poisson:{seed}:{stream_index}")
        self.t = start_s
        self.rate_hz = rate_hz
        self.end_s = end_s

    def __iter__(self) -> "_PoissonTimes":
        return self

    def __next__(self) -> float:
        t = self.t + self.rng.expovariate(self.rate_hz)
        if t >= self.end_s:
            raise StopIteration
        self.t = t
        return t


class _MmppTimes:
    """Picklable iterator: Markov-modulated Poisson arrivals (exact via
    memorylessness: an arrival candidate overshooting the state boundary
    is discarded and redrawn at the new state's rate)."""

    __slots__ = ("proc", "rng", "state", "t", "state_end", "end_s")

    def __init__(self, proc: "ArrivalProcess", stream_index: int,
                 start_s: float, end_s: float) -> None:
        self.proc = proc
        self.rng = random.Random(f"mmpp:{proc.seed}:{stream_index}")
        self.state = 0
        self.t = start_s
        self.state_end = start_s + self.rng.expovariate(
            1.0 / proc.sojourn_s[0]
        )
        self.end_s = end_s

    def __iter__(self) -> "_MmppTimes":
        return self

    def __next__(self) -> float:
        proc = self.proc
        rng = self.rng
        while self.t < self.end_s:
            rate = proc.rates_hz[self.state]
            nxt = self.t + rng.expovariate(rate) if rate > 0 else math.inf
            if nxt >= self.state_end:
                self.t = self.state_end
                self.state = (self.state + 1) % len(proc.rates_hz)
                self.state_end = self.t + rng.expovariate(
                    1.0 / proc.sojourn_s[self.state]
                )
                continue
            if nxt >= self.end_s:
                raise StopIteration
            self.t = nxt
            return nxt
        raise StopIteration


class _DiurnalTimes:
    """Picklable iterator: diurnal / flash-crowd arrivals via
    Lewis-Shedler thinning against the process's peak rate."""

    __slots__ = ("proc", "rng", "peak", "t", "end_s")

    def __init__(self, proc: "ArrivalProcess", stream_index: int,
                 start_s: float, end_s: float) -> None:
        self.proc = proc
        self.rng = random.Random(f"diurnal:{proc.seed}:{stream_index}")
        peak = proc.rate_hz * (1.0 + proc.amplitude)
        if proc.flash_every_s is not None:
            peak *= proc.flash_boost
        self.peak = peak
        self.t = start_s
        self.end_s = end_s

    def __iter__(self) -> "_DiurnalTimes":
        return self

    def __next__(self) -> float:
        rng = self.rng
        peak = self.peak
        while True:
            t = self.t + rng.expovariate(peak)
            if t >= self.end_s:
                raise StopIteration
            self.t = t
            if rng.random() * peak <= self.proc._diurnal_rate(t):
                return t


class _BurstyTimes:
    """Picklable iterator: periodic arrivals inside the on-windows
    ``[k*(on+off), k*(on+off)+on)``."""

    __slots__ = ("proc", "t", "start_s", "end_s", "cycle")

    def __init__(self, proc: "ArrivalProcess", start_s: float,
                 end_s: float) -> None:
        self.proc = proc
        self.t = start_s + proc.phase_s
        self.start_s = start_s
        self.end_s = end_s
        self.cycle = proc.on_s + proc.off_s

    def __iter__(self) -> "_BurstyTimes":
        return self

    def __next__(self) -> float:
        proc = self.proc
        cycle = self.cycle
        while self.t < self.end_s:
            t = self.t
            offset = (t - self.start_s) % cycle if cycle > 0 else 0.0
            if offset < proc.on_s:
                self.t = t + proc.period_s
                return t
            # Skip to the start of the next on-window.  When the offset
            # lands within an ulp of the cycle boundary the increment
            # rounds to zero and the loop would spin forever
            # (fuzzer-found) — nudge one ulp instead.
            nxt = t + (cycle - offset)
            self.t = nxt if nxt > t else math.nextafter(t, math.inf)
        raise StopIteration


@dataclass(frozen=True)
class StreamSpec:
    """One tenant of a scenario.

    Attributes:
        model: Table I model abbreviation (or zoo model name).
        arrival: the stream's arrival process.
        qos_scale: per-stream latency-target multiplier (``inf`` disables
            deadlines; 0.8 / 1.0 / 1.2 are the paper's QoS-H/M/L).
        join_s: simulated time the tenant enters the system.
        leave_s: time the tenant leaves (``None`` = stays to the end).
            Departure is preemptive: an in-flight inference is aborted
            and its cores and cache pages are released immediately.
        inferences: measured count quota (count-mode scenarios).  Open-
            loop streams stop offering arrivals once the quota (plus
            warmup) is reached.
        warmup_inferences: leading inferences excluded from metrics in
            count mode (steady-state scenarios use the window instead).
    """

    model: str
    arrival: ArrivalProcess = field(default_factory=ArrivalProcess)
    qos_scale: float = math.inf
    join_s: float = 0.0
    leave_s: Optional[float] = None
    inferences: Optional[int] = None
    warmup_inferences: int = 0

    def __post_init__(self) -> None:
        if not self.model:
            raise WorkloadError("stream needs a model key")
        if self.join_s < 0:
            raise WorkloadError("join_s cannot be negative")
        if self.leave_s is not None and self.leave_s <= self.join_s:
            raise WorkloadError("leave_s must be after join_s")
        if self.inferences is not None and self.inferences <= 0:
            raise WorkloadError("inferences must be positive when set")
        if self.warmup_inferences < 0:
            raise WorkloadError("warmup cannot be negative")

    @property
    def quota(self) -> Optional[int]:
        """Total dispatch cap (measured + warmup), or ``None``."""
        if self.inferences is None:
            return None
        return self.inferences + self.warmup_inferences

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "arrival": self.arrival.to_dict(),
            "qos_scale": self.qos_scale,
            "join_s": self.join_s,
            "leave_s": self.leave_s,
            "inferences": self.inferences,
            "warmup_inferences": self.warmup_inferences,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamSpec":
        data = dict(data)
        if "arrival" not in data:
            raise WorkloadError("stream spec is missing 'arrival'")
        data["arrival"] = ArrivalProcess.from_dict(data["arrival"])
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete multi-tenant scenario.

    Attributes:
        streams: the tenant set (one :class:`StreamSpec` each).
        duration_s: steady-state measurement window end.  ``None``
            selects count mode, where every stream needs an
            ``inferences`` quota.
        warmup_s: measurement start inside the window (steady-state).
    """

    streams: Tuple[StreamSpec, ...]
    duration_s: Optional[float] = None
    warmup_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.streams:
            raise WorkloadError("scenario needs at least one stream")
        object.__setattr__(self, "streams", tuple(self.streams))
        if self.duration_s is not None:
            if self.duration_s <= 0:
                raise WorkloadError("duration must be positive")
            if not 0 <= self.warmup_s < self.duration_s:
                raise WorkloadError("warmup must precede the window end")
        else:
            for i, stream in enumerate(self.streams):
                if stream.quota is None:
                    raise WorkloadError(
                        f"stream {i} ({stream.model}): count-mode "
                        f"scenarios need an inferences quota per stream"
                    )
        for i, stream in enumerate(self.streams):
            if self.duration_s is not None and \
                    stream.join_s >= self.duration_s:
                raise WorkloadError(
                    f"stream {i} ({stream.model}): joins at "
                    f"{stream.join_s} s, after the window ends"
                )

    # ------------------------------------------------------------------

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    @property
    def model_keys(self) -> Tuple[str, ...]:
        """One model key per stream, in stream order."""
        return tuple(s.model for s in self.streams)

    @property
    def has_dynamics(self) -> bool:
        """True when the scenario needs the engine's timeline (open-loop
        arrivals or mid-run joins/leaves)."""
        return any(
            s.arrival.is_open_loop or s.join_s > 0 or s.leave_s is not None
            for s in self.streams
        )

    def scaled(self, factor: float) -> "ScenarioSpec":
        """Scale the measurement window (and tenant join/leave times) by
        ``factor``, leaving arrival processes untouched.

        This mirrors :class:`~repro.experiments.common.ExperimentScale`:
        a smaller factor shrinks the simulated window (fewer samples at
        the same offered load), keeping churn events proportionally
        placed inside it.
        """
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        if factor == 1.0:
            return self
        streams = tuple(
            replace(
                s,
                join_s=s.join_s * factor,
                leave_s=None if s.leave_s is None else s.leave_s * factor,
            )
            for s in self.streams
        )
        return ScenarioSpec(
            streams=streams,
            duration_s=(
                None if self.duration_s is None
                else self.duration_s * factor
            ),
            warmup_s=self.warmup_s * factor,
        )

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; round-trips exactly through
        :meth:`from_dict` (float reprs are exact, ``inf`` survives)."""
        return {
            "scenario_schema_version": SCENARIO_SCHEMA_VERSION,
            "streams": [s.to_dict() for s in self.streams],
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        version = data.get("scenario_schema_version")
        if version != SCENARIO_SCHEMA_VERSION:
            raise WorkloadError(
                f"unsupported scenario schema {version!r} "
                f"(expected {SCENARIO_SCHEMA_VERSION})"
            )
        return cls(
            streams=tuple(
                StreamSpec.from_dict(s) for s in data["streams"]
            ),
            duration_s=data["duration_s"],
            warmup_s=data["warmup_s"],
        )

    # ------------------------------------------------------------------

    @classmethod
    def closed_loop(cls, model_keys: Sequence[str],
                    duration_s: Optional[float] = None,
                    warmup_s: float = 0.0,
                    inferences: Optional[int] = 3,
                    warmup_inferences: int = 0,
                    qos_scale: float = math.inf) -> "ScenarioSpec":
        """The paper's workload shape as a scenario (one closed-loop
        stream per model key, all present from t=0).

        Two measurement modes:

        * **count mode** (``duration_s is None``) — every stream runs
          ``warmup_inferences + inferences`` inferences; the warmup
          ones are excluded from metrics.
        * **steady-state mode** (``duration_s`` set) — streams keep
          dispatching until the clock passes ``duration_s`` and the
          count arguments are ignored.  A fixed per-stream quota would
          let short models drain early and hand their bandwidth to the
          stragglers, biasing tail latencies down.
        """
        if duration_s is not None:
            inferences = None
            warmup_inferences = 0
        return cls(
            streams=tuple(
                StreamSpec(
                    model=key,
                    qos_scale=qos_scale,
                    inferences=inferences,
                    warmup_inferences=warmup_inferences,
                )
                for key in model_keys
            ),
            duration_s=duration_s,
            warmup_s=warmup_s,
        )


# ----------------------------------------------------------------------
# Named scenario registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Tuple[ScenarioSpec, str]] = {}


def register_scenario(name: str, spec: ScenarioSpec,
                      description: str = "") -> ScenarioSpec:
    """Register (or replace) a named scenario; returns the spec."""
    if not name:
        raise WorkloadError("scenario name cannot be empty")
    _REGISTRY[name] = (spec, description)
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a named scenario up.

    Raises:
        WorkloadError: the name is not registered.
    """
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_registry() -> Dict[str, Tuple[ScenarioSpec, str]]:
    """Snapshot of the registry: ``name -> (spec, description)``."""
    return dict(_REGISTRY)


def _register_builtins() -> None:
    """Curated scenarios covering every arrival process and churn."""
    vision = ("RS.", "MB.", "EF.", "VT.")
    suite = ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP.")

    register_scenario(
        "steady-quad",
        ScenarioSpec.closed_loop(vision, duration_s=0.4, warmup_s=0.08),
        "4 closed-loop vision tenants, steady-state window",
    )
    register_scenario(
        "steady-eight",
        ScenarioSpec.closed_loop(suite, duration_s=0.4, warmup_s=0.08),
        "all 8 benchmark models closed-loop, steady-state window",
    )
    register_scenario(
        "periodic-eight",
        ScenarioSpec(
            streams=tuple(
                StreamSpec(
                    model=key,
                    arrival=ArrivalProcess.periodic(
                        period_s=0.012, phase_s=0.0015 * i
                    ),
                )
                for i, key in enumerate(suite)
            ),
            duration_s=0.4,
            warmup_s=0.08,
        ),
        "8 open-loop periodic tenants with staggered phases",
    )
    register_scenario(
        "poisson-eight",
        ScenarioSpec(
            streams=tuple(
                StreamSpec(
                    model=key,
                    arrival=ArrivalProcess.poisson(rate_hz=80.0,
                                                   seed=2025 + i),
                )
                for i, key in enumerate(suite)
            ),
            duration_s=0.4,
            warmup_s=0.08,
        ),
        "8 seeded-Poisson tenants at 80 Hz each",
    )
    register_scenario(
        "bursty-quad",
        ScenarioSpec(
            streams=tuple(
                StreamSpec(
                    model=key,
                    arrival=ArrivalProcess.bursty(
                        period_s=0.004, on_s=0.06, off_s=0.06,
                        phase_s=0.03 * i,
                    ),
                )
                for i, key in enumerate(vision)
            ),
            duration_s=0.4,
            warmup_s=0.08,
        ),
        "4 bursty on/off tenants with interleaved bursts",
    )
    register_scenario(
        "mmpp-quad",
        ScenarioSpec(
            streams=tuple(
                StreamSpec(
                    model=key,
                    arrival=ArrivalProcess.mmpp(
                        rates_hz=(30.0, 240.0),
                        sojourn_s=(0.06, 0.02),
                        seed=2025 + i,
                    ),
                )
                for i, key in enumerate(vision)
            ),
            duration_s=0.4,
            warmup_s=0.08,
        ),
        "4 MMPP tenants alternating calm (30 Hz) and surge (240 Hz) "
        "states",
    )
    register_scenario(
        "diurnal-flash",
        ScenarioSpec(
            streams=tuple(
                StreamSpec(
                    model=key,
                    arrival=ArrivalProcess.diurnal(
                        rate_hz=70.0, period_s=0.2, amplitude=0.6,
                        phase_s=0.05 * i,
                        flash_every_s=0.13, flash_width_s=0.02,
                        flash_boost=3.0, seed=2025 + i,
                    ),
                )
                for i, key in enumerate(vision)
            ),
            duration_s=0.4,
            warmup_s=0.08,
        ),
        "4 diurnal tenants (sinusoidal rate) with recurring 3x flash "
        "crowds",
    )
    # Churn: half the tenants are permanent closed-loop residents, half
    # join and leave mid-run, overlapping so departures free pages while
    # survivors can grow into them.
    churn_streams = [
        StreamSpec(model=key) for key in vision
    ] + [
        StreamSpec(
            model=key,
            join_s=0.04 + 0.05 * i,
            leave_s=0.22 + 0.05 * i,
        )
        for i, key in enumerate(("BE.", "GN.", "WV.", "PP."))
    ]
    register_scenario(
        "churn-eight",
        ScenarioSpec(
            streams=tuple(churn_streams), duration_s=0.4, warmup_s=0.08
        ),
        "4 resident + 4 churning tenants (staggered join/leave)",
    )
    register_scenario(
        "churn-heavy",
        ScenarioSpec(
            streams=tuple(
                StreamSpec(
                    model=key,
                    join_s=0.03 * i,
                    leave_s=0.03 * i + 0.16,
                )
                for i, key in enumerate(suite)
            ),
            duration_s=0.4,
            warmup_s=0.0,
        ),
        "8 tenants all churning (rolling join/leave waves)",
    )


_register_builtins()
