"""Arrival and service-time models for the cluster lifetime simulator.

Arrivals
--------
:class:`PoissonArrivals` draws exponential interarrival gaps and job sizes
from a :class:`~repro.allocation.workload_gen.JobSizeDistribution` (the
synthetic Alibaba-like MLaaS distribution by default).
:class:`TraceArrivals` replays an explicit board-count sequence -- e.g. the
concatenation of mixes from
:func:`~repro.allocation.workload_gen.sample_job_mixes` -- with exponential
gaps, so the *size* marginal is exactly the paper's Figure-7/8 workload.

Service times
-------------
:class:`FixedServiceTime` and :class:`LogNormalServiceTime` are
distribution-driven.  :class:`FlowSimServiceTime` derives each job's
runtime from a DNN workload model: iteration time on a network profile
(measured with the flow-level simulator, or taken from the stored
Table-II fractions) multiplied by a sampled iteration count.

Seeding
-------
Every model samples exclusively from the ``numpy.random.Generator`` passed
into it -- there is no hidden global stream.  The cluster simulator derives
its generators from the config seed alone, and the experiment engine
(:mod:`repro.exp`) gives each sweep cell an explicit integer seed, so
serial, parallel, and cached runs of the same configuration are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..allocation.workload_gen import JobSizeDistribution, alibaba_like_distribution

__all__ = [
    "ArrivalModel",
    "PoissonArrivals",
    "TraceArrivals",
    "ServiceTimeModel",
    "FixedServiceTime",
    "LogNormalServiceTime",
    "FlowSimServiceTime",
    "interarrival_for_load",
]


def interarrival_for_load(
    load: float,
    cluster_boards: int,
    mean_job_boards: float,
    mean_service_time: float,
) -> float:
    """Mean interarrival gap producing a target offered load.

    Offered load is the long-run ratio of arriving work (board-seconds per
    second) to cluster capacity; ``load > 1`` keeps a backlog, which is the
    regime where allocation quality governs utilization (Figure 8's static
    full-cluster mixes correspond to the heavily backlogged limit).
    """
    if load <= 0:
        raise ValueError("load must be positive")
    return mean_job_boards * mean_service_time / (load * cluster_boards)


# ---------------------------------------------------------------- arrivals
class ArrivalModel:
    """Produces (interarrival-gap, board-count) pairs."""

    def next_arrival(self, rng: np.random.Generator) -> Optional[Tuple[float, int]]:
        raise NotImplementedError

    def mean_job_boards(self) -> float:
        raise NotImplementedError


@dataclass
class PoissonArrivals(ArrivalModel):
    """Poisson arrivals with sizes sampled from a job-size distribution."""

    mean_interarrival: float
    distribution: JobSizeDistribution = field(default_factory=alibaba_like_distribution)
    #: sizes above this are resampled (jobs that cannot run on the cluster)
    max_job_boards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValueError("mean interarrival must be positive")
        if self.max_job_boards is not None and not any(
            s <= self.max_job_boards for s in self.distribution.sizes
        ):
            raise ValueError("no job size fits under max_job_boards")

    def next_arrival(self, rng: np.random.Generator) -> Tuple[float, int]:
        gap = float(rng.exponential(self.mean_interarrival))
        while True:
            size = self.distribution.draw(rng)
            if self.max_job_boards is None or size <= self.max_job_boards:
                return gap, size

    def mean_job_boards(self) -> float:
        if self.max_job_boards is None:
            return self.distribution.mean_size()
        pairs = [
            (s, p)
            for s, p in zip(self.distribution.sizes, self.distribution.probabilities)
            if s <= self.max_job_boards
        ]
        total = sum(p for _, p in pairs)
        return sum(s * p for s, p in pairs) / total


@dataclass
class TraceArrivals(ArrivalModel):
    """Replay an explicit sequence of board counts with exponential gaps."""

    board_counts: Sequence[int]
    mean_interarrival: float
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValueError("mean interarrival must be positive")
        if not self.board_counts:
            raise ValueError("trace is empty")

    def next_arrival(self, rng: np.random.Generator) -> Optional[Tuple[float, int]]:
        if self._cursor >= len(self.board_counts):
            return None
        size = int(self.board_counts[self._cursor])
        self._cursor += 1
        return float(rng.exponential(self.mean_interarrival)), size

    def mean_job_boards(self) -> float:
        return float(np.mean(self.board_counts))


# ------------------------------------------------------------ service time
class ServiceTimeModel:
    """Samples a job's nominal full-size service time in seconds."""

    def sample(self, rng: np.random.Generator, num_boards: int) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedServiceTime(ServiceTimeModel):
    seconds: float

    def sample(self, rng: np.random.Generator, num_boards: int) -> float:
        return self.seconds

    def mean(self) -> float:
        return self.seconds


@dataclass(frozen=True)
class LogNormalServiceTime(ServiceTimeModel):
    """Heavy-tailed service times (the shape seen in MLaaS traces)."""

    median_seconds: float = 900.0
    sigma: float = 1.0

    def sample(self, rng: np.random.Generator, num_boards: int) -> float:
        return float(rng.lognormal(math.log(self.median_seconds), self.sigma))

    def mean(self) -> float:
        return self.median_seconds * math.exp(self.sigma ** 2 / 2.0)


@dataclass(frozen=True)
class FlowSimServiceTime(ServiceTimeModel):
    """Service time = DNN iteration time x sampled iteration count.

    The iteration time comes from a workload model evaluated on a
    :class:`~repro.workloads.overlap.NetworkProfile`; iteration counts are
    drawn log-uniformly from ``iteration_range``.  Use
    :meth:`from_topology` to measure the profile with the flow-level
    simulator instead of the stored Table-II fractions.
    """

    iteration_times: Tuple[float, ...]
    iteration_range: Tuple[int, int] = (2_000, 200_000)

    def __post_init__(self) -> None:
        if not self.iteration_times:
            raise ValueError("need at least one workload iteration time")
        lo, hi = self.iteration_range
        if not 1 <= lo <= hi:
            raise ValueError("invalid iteration range")

    @classmethod
    def from_profile(cls, profile, workload_names: Sequence[str] = (), **kwargs):
        """Evaluate registered DNN workloads on an existing network profile."""
        from ..workloads import WORKLOADS, get_workload

        names = list(workload_names) or sorted(WORKLOADS)
        times = tuple(get_workload(n).iteration_time(profile) for n in names)
        return cls(iteration_times=times, **kwargs)

    @classmethod
    def from_topology(
        cls,
        topo,
        workload_names: Sequence[str] = (),
        *,
        num_phases: Optional[int] = 16,
        max_paths: int = 4,
        backend: str = "flow",
        policy: Optional[str] = None,
        **kwargs,
    ):
        """Measure the topology with a network backend, then build profiles.

        ``backend`` selects the fidelity by name (``"analytic"``, ``"flow"``,
        ``"packet"``) and ``policy`` the routing policy (``"minimal"``,
        ``"ecmp"``, ``"valiant"``, ``"ugal"``).  The measurement routes
        through the shared :class:`~repro.sim.routing.RouteTable` of
        ``(topo, policy, max_paths)``, so a cluster simulation that also
        runs flow simulations on the same topology pays the route
        enumeration once.
        """
        from ..analysis.bandwidth import measure_topology
        from ..workloads.overlap import NetworkProfile

        summary = measure_topology(
            topo, num_phases=num_phases, max_paths=max_paths, backend=backend,
            policy=policy,
        )
        profile = NetworkProfile.from_measurements(
            topo.name,
            topo.meta.get("family", "hammingmesh"),
            alltoall_fraction=summary.alltoall_fraction,
            allreduce_fraction=summary.allreduce_fraction,
        )
        return cls.from_profile(profile, workload_names, **kwargs)

    def sample(self, rng: np.random.Generator, num_boards: int) -> float:
        iteration = self.iteration_times[int(rng.integers(len(self.iteration_times)))]
        lo, hi = self.iteration_range
        iterations = math.exp(float(rng.uniform(math.log(lo), math.log(hi))))
        return iteration * iterations

    def mean(self) -> float:
        lo, hi = self.iteration_range
        if lo == hi:
            mean_iters = float(lo)
        else:
            # mean of exp(U[ln lo, ln hi])
            mean_iters = (hi - lo) / (math.log(hi) - math.log(lo))
        return float(np.mean(self.iteration_times)) * mean_iters
