"""Series generators for every evaluation figure of the paper.

Each ``figNN_*`` function returns plain Python/NumPy data structures (the
series a plot of that figure would show); the benchmark harness prints them
and EXPERIMENTS.md records the comparison against the published figures.

Since the experiment-engine refactor every generator is a thin wrapper
around :mod:`repro.exp`: a *grid declaration* (the sweep's cells as pure
data), a run through the engine (serial by default; process-parallel with
``workers=N``/``REPRO_EXP_WORKERS``; content-cached when a cache is
configured), and a *post-processing* step reassembling the figure
structure from the cell results.  The cell kernels are module-level
functions below, addressable by import path from worker processes; each
receives an explicit integer seed, so parallel and serial runs are
bit-identical.

Figures covered: 7 (job-size CDF), 8 (allocation utilization), 9 (upper
fat-tree-level traffic), 10 (utilization under failures), 11 (alltoall
bandwidth vs message size), 12 (permutation bandwidth distribution),
13/17 (allreduce bandwidth vs message size, large/small clusters),
15 (relative cost savings for the DNN workloads), 16 (edge-disjoint
Hamiltonian cycles), and the Section V-B iteration-time table.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..allocation import (
    AllocatorOptions,
    BoardGrid,
    GreedyAllocator,
    JobTrace,
    alibaba_like_distribution,
    sample_job_mixes,
    upper_level_fraction,
    utilization_under_failures_by_order,
)
from ..collectives.cost_models import allreduce_bus_bandwidth
from ..collectives.hamiltonian import disjoint_hamiltonian_cycles
from ..exp import Grid, RunReport, Runner, cell, register_sweep, run_grid
from ..workloads import NetworkProfile, get_workload
from ..workloads.overlap import PORT_BYTES_PER_S
from .bandwidth import measure_cluster_cell, measure_permutation_fractions
from .clusters import cluster_configs

__all__ = [
    "DEFAULT_FRACTIONS",
    "network_profiles",
    "fig7_jobsize_cdf",
    "fig8_utilization",
    "fig9_upper_traffic",
    "fig10_failures",
    "fig11_alltoall_sweep",
    "fig12_permutation",
    "fig13_allreduce_sweep",
    "fig15_cost_savings",
    "fig16_hamiltonian_cycles",
    "dnn_iteration_times",
    "ROUTING_POLICY_TOPOS",
    "ROUTING_POLICIES",
    "routing_policy_sweep",
]


#: Measured bandwidth fractions of the small-cluster configurations
#: (flow-level simulator, 48 sampled phases, 8 paths).  Used as the default
#: network profiles for the workload figures so that they do not need to
#: re-run the flow simulations; refreshed values can be passed explicitly.
DEFAULT_FRACTIONS: Dict[str, Dict[str, float]] = {
    "ft_nonblocking": {"alltoall": 0.89, "allreduce": 1.00, "diameter": 4},
    "ft_tapered50": {"alltoall": 0.48, "allreduce": 1.00, "diameter": 4},
    "ft_tapered75": {"alltoall": 0.24, "allreduce": 1.00, "diameter": 4},
    "dragonfly": {"alltoall": 0.93, "allreduce": 1.00, "diameter": 3},
    "hyperx": {"alltoall": 1.00, "allreduce": 1.00, "diameter": 4},
    "hx2mesh": {"alltoall": 0.25, "allreduce": 1.00, "diameter": 4},
    "hx4mesh": {"alltoall": 0.13, "allreduce": 1.00, "diameter": 8},
    "torus": {"alltoall": 0.058, "allreduce": 1.00, "diameter": 32},
}


def _profile_dict(profile: NetworkProfile) -> Dict[str, object]:
    """Serialise a profile into cell parameters (rebuilt in the worker)."""
    return dataclasses.asdict(profile)


def network_profiles(
    cluster: str = "small",
    *,
    measured: Optional[Dict[str, Dict[str, float]]] = None,
    measure: bool = False,
    num_phases: Optional[int] = 48,
    max_paths: int = 8,
    backend: str = "flow",
    seed: int = 1,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, NetworkProfile]:
    """Network profiles for every topology of the chosen cluster.

    By default the stored :data:`DEFAULT_FRACTIONS` are used; with
    ``measure=True`` the selected network backend is run instead (the
    default flow-level fidelity is slow for the large cluster).  The
    measurements sweep one engine cell per topology -- the same cells
    Table II runs, so a combined figure/table run measures each topology
    once.
    """
    configs = cluster_configs(cluster)
    fractions = dict(DEFAULT_FRACTIONS)
    if measured:
        fractions.update(measured)
    if measure:
        grid = measurement_grid(
            cluster=cluster,
            num_phases=num_phases,
            max_paths=max_paths,
            seed=seed,
            backend=backend,
        )
        report = run_grid(grid, runner=runner, workers=workers)
        measured_now = {
            c.scenario.tags["key"]: {
                "alltoall": c.value["alltoall_fraction"],
                "allreduce": c.value["allreduce_fraction"],
            }
            for c in report
        }
        fractions.update(measured_now)
    profiles: Dict[str, NetworkProfile] = {}
    for config in configs:
        entry = fractions.get(config.key, {"alltoall": 0.5, "allreduce": 1.0})
        profiles[config.key] = NetworkProfile.from_measurements(
            config.label,
            config.family,
            alltoall_fraction=entry["alltoall"],
            allreduce_fraction=entry["allreduce"],
            diameter=config.analytic_diameter,
        )
    return profiles


def measurement_grid(
    *,
    cluster: str = "small",
    num_phases: Optional[int] = 48,
    max_paths: int = 8,
    seed: int = 1,
    backend: str = "flow",
    skip_keys: Sequence[str] = (),
) -> Grid:
    """One :func:`measure_cluster_cell` per topology of a cluster.

    Chunked by topology: all measurements of one topology execute in one
    worker process, where the shared route table is already warm.
    """
    keys = [c.key for c in cluster_configs(cluster) if c.key not in set(skip_keys)]
    grid = Grid(
        measure_cluster_cell,
        common={
            "cluster": cluster,
            "num_phases": num_phases,
            "max_paths": max_paths,
            "seed": seed,
            "backend": backend,
        },
        chunk=lambda p: f"{p['cluster']}/{p['key']}",
    )
    grid.cross("key", keys)
    return grid


# ------------------------------------------------------------------- Figure 7
@cell(version=1)
def fig7_cell(*, cluster_boards: int, num_mixes: int, seed: int):
    """Original and sampled board-weighted job-size CDFs (one cell)."""
    dist = alibaba_like_distribution()
    original = dist.board_weighted_cdf()
    mixes = sample_job_mixes(cluster_boards, num_mixes, seed=seed)
    sizes = np.array([job.num_boards for mix in mixes for job in mix])
    boards = sizes.astype(float)
    order = np.argsort(sizes)
    cum = np.cumsum(boards[order]) / boards.sum()
    sampled: List[List[float]] = []
    last_size = None
    for s, c in zip(sizes[order], cum):
        if last_size is not None and s == last_size:
            sampled[-1] = [int(s), float(c)]
        else:
            sampled.append([int(s), float(c)])
        last_size = s
    return {
        "original": [[int(s), float(c)] for s, c in original],
        "sampled": sampled,
    }


def fig7_grid(*, cluster_boards: int = 4096, num_mixes: int = 200, seed: int = 0) -> Grid:
    return Grid(
        fig7_cell,
        common={"cluster_boards": cluster_boards, "num_mixes": num_mixes, "seed": seed},
    )


def _fig7_post(report: RunReport) -> Dict[str, List[Tuple[int, float]]]:
    data = report.values()[0]
    return {
        key: [(int(s), float(c)) for s, c in points] for key, points in data.items()
    }


def fig7_jobsize_cdf(
    cluster_boards: int = 4096,
    num_mixes: int = 200,
    seed: int = 0,
    *,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Job-size CDFs: the original distribution and the sampled job mixes."""
    grid = fig7_grid(cluster_boards=cluster_boards, num_mixes=num_mixes, seed=seed)
    return _fig7_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------------- Figure 8
FIG8_PRESETS = [
    ("greedy", False),
    ("greedy+transpose", False),
    ("greedy+transpose+aspect", False),
    ("greedy+transpose+aspect+locality", False),
    ("greedy+transpose+aspect", True),
    ("greedy+transpose+aspect+locality", True),
]

FIG8_CLUSTERS = {
    "Small 16x16 Hx2Mesh": (16, 16),
    "Small 8x8 Hx4Mesh": (8, 8),
    "Large 64x64 Hx2Mesh": (64, 64),
    "Large 32x32 Hx4Mesh": (32, 32),
}


def _shared_mixes(param_list) -> List[List[JobTrace]]:
    """The job mixes of each fig8/fig9 cell, drawn once per ``(x*y, num_traces, seed)``.

    Every preset of a cluster draws the same mixes (same explicit seed), as
    in the paper: presets differ only in the allocator's decisions.
    """
    drawn: Dict[Tuple[int, int, int], List[JobTrace]] = {}
    out = []
    for p in param_list:
        boards = p["x"] * p["y"]
        key = (boards, p["num_traces"], p["seed"])
        if key not in drawn:
            drawn[key] = sample_job_mixes(boards, key[1], seed=key[2], max_job_boards=boards)
        out.append(drawn[key])
    return out


@cell(version=1, batch="repro.analysis.figures:fig8_batch")
def fig8_cell(*, x: int, y: int, preset: str, sort: bool, num_traces: int, seed: int):
    """Utilization of one (cluster, preset) pair over the sampled mixes."""
    params = dict(x=x, y=y, preset=preset, sort=sort, num_traces=num_traces, seed=seed)
    return fig8_batch([params])[0]


def fig8_batch(param_list) -> List[List[float]]:
    """Batch companion of :func:`fig8_cell`: the cells share their mix draws."""
    out = []
    for p, mixes in zip(param_list, _shared_mixes(param_list)):
        options = AllocatorOptions.named(p["preset"])
        utils: List[float] = []
        for mix in mixes:
            allocator = GreedyAllocator(BoardGrid(p["x"], p["y"]), options)
            trace = mix.sorted_by_size() if p["sort"] else mix
            utils.append(allocator.allocate_trace(trace).utilization)
        out.append(utils)
    return out


def fig8_grid(
    *,
    clusters: Optional[Dict[str, Tuple[int, int]]] = None,
    num_traces: int = 50,
    seed: int = 0,
) -> Grid:
    chosen = dict(clusters or FIG8_CLUSTERS)
    grid = Grid(
        fig8_cell,
        common={"num_traces": num_traces, "seed": seed},
        chunk="cluster",
        drop=("cluster", "label"),
    )
    grid.cross("cluster", list(chosen))
    grid.cross(("preset", "sort"), FIG8_PRESETS)
    grid.derive(
        lambda p: {
            "x": chosen[p["cluster"]][0],
            "y": chosen[p["cluster"]][1],
            "label": p["preset"] + ("+sort" if p["sort"] else ""),
        }
    )
    return grid


def _fig8_post(report: RunReport) -> Dict[str, Dict[str, List[float]]]:
    out: Dict[str, Dict[str, List[float]]] = {}
    for c in report:
        out.setdefault(c.scenario.tags["cluster"], {})[c.scenario.tags["label"]] = c.value
    return out


def fig8_utilization(
    *,
    clusters: Optional[Dict[str, Tuple[int, int]]] = None,
    num_traces: int = 50,
    seed: int = 0,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """System utilization distributions per cluster and heuristic combination."""
    grid = fig8_grid(clusters=clusters, num_traces=num_traces, seed=seed)
    return _fig8_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------------- Figure 9
FIG9_CLUSTERS = {
    "Large 64x64 Hx2Mesh": (64, 64, 16),
    "Large 32x32 Hx4Mesh": (32, 32, 32),
}


@cell(version=1, batch="repro.analysis.figures:fig9_batch")
def fig9_cell(
    *,
    x: int,
    y: int,
    boards_per_leaf: int,
    preset: str,
    sort: bool,
    num_traces: int,
    seed: int,
):
    """Board-weighted upper-level traffic fractions of one preset."""
    params = dict(
        x=x, y=y, boards_per_leaf=boards_per_leaf, preset=preset, sort=sort,
        num_traces=num_traces, seed=seed,
    )
    return fig9_batch([params])[0]


def fig9_batch(param_list) -> List[Dict[str, float]]:
    """Batch companion of :func:`fig9_cell`: the cells share their mix draws."""
    out = []
    for p, mixes in zip(param_list, _shared_mixes(param_list)):
        boards_per_leaf = p["boards_per_leaf"]
        base = AllocatorOptions.named(p["preset"])
        options = AllocatorOptions(
            transpose=base.transpose,
            aspect_ratio=base.aspect_ratio,
            locality=base.locality,
            boards_per_leaf=boards_per_leaf,
        )
        totals = {"alltoall": 0.0, "allreduce": 0.0}
        weight = 0.0
        for mix in mixes:
            allocator = GreedyAllocator(BoardGrid(p["x"], p["y"]), options)
            trace = mix.sorted_by_size() if p["sort"] else mix
            result = allocator.allocate_trace(trace)
            for submesh in result.placed.values():
                w = submesh.num_boards
                weight += w
                for pattern in ("alltoall", "allreduce"):
                    totals[pattern] += w * upper_level_fraction(
                        submesh, boards_per_leaf=boards_per_leaf, pattern=pattern
                    )
        out.append({k: (v / weight if weight else 0.0) for k, v in totals.items()})
    return out


def fig9_grid(
    *,
    clusters: Optional[Dict[str, Tuple[int, int, int]]] = None,
    num_traces: int = 20,
    seed: int = 0,
) -> Grid:
    chosen = dict(clusters or FIG9_CLUSTERS)
    grid = Grid(
        fig9_cell,
        common={"num_traces": num_traces, "seed": seed},
        chunk="cluster",
        drop=("cluster", "label"),
    )
    grid.cross("cluster", list(chosen))
    grid.cross(("preset", "sort"), FIG8_PRESETS)
    grid.derive(
        lambda p: {
            "x": chosen[p["cluster"]][0],
            "y": chosen[p["cluster"]][1],
            "boards_per_leaf": chosen[p["cluster"]][2],
            "label": p["preset"] + ("+sort" if p["sort"] else ""),
        }
    )
    return grid


def _fig9_post(report: RunReport) -> Dict[str, Dict[str, Dict[str, float]]]:
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for c in report:
        out.setdefault(c.scenario.tags["cluster"], {})[c.scenario.tags["label"]] = c.value
    return out


def fig9_upper_traffic(
    *,
    clusters: Optional[Dict[str, Tuple[int, int, int]]] = None,
    num_traces: int = 20,
    seed: int = 0,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Mean fraction of traffic crossing the upper fat-tree levels.

    Returns ``{cluster: {preset: {"alltoall": f, "allreduce": f}}}``; the
    fraction is averaged over jobs weighted by their board count.
    """
    grid = fig9_grid(clusters=clusters, num_traces=num_traces, seed=seed)
    return _fig9_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------------ Figure 10
FIG10_CLUSTERS = {
    "Hx2Small": ((16, 16), (0, 10, 20, 30, 40)),
    "Hx4Small": ((8, 8), (0, 10, 20, 30, 40)),
    "Hx2Large": ((64, 64), (0, 25, 50, 75, 100)),
    "Hx4Large": ((32, 32), (0, 25, 50, 75, 100)),
}


@cell(version=1, batch="repro.analysis.figures:fig10_batch")
def fig10_cell(
    *,
    x: int,
    y: int,
    counts: Sequence[int],
    sort_jobs: bool,
    num_trials: int,
    seed: int,
):
    """Median utilization vs failed-board count for one (cluster, mode)."""
    params = dict(
        x=x, y=y, counts=counts, sort_jobs=sort_jobs, num_trials=num_trials, seed=seed
    )
    return fig10_batch([params])[0]


def fig10_batch(param_list) -> List[List[list]]:
    """Batch companion of :func:`fig10_cell`.

    The sorted and unsorted cells of one cluster share each trial's failed
    boards and job mix (:func:`utilization_under_failures_by_order`).
    """
    groups: Dict[tuple, List[int]] = {}
    for i, p in enumerate(param_list):
        key = (p["x"], p["y"], tuple(p["counts"]), p["num_trials"], p["seed"])
        groups.setdefault(key, []).append(i)
    out: List[List[list]] = [[] for _ in param_list]
    for (x, y, counts, num_trials, seed), members in groups.items():
        modes = [bool(param_list[i]["sort_jobs"]) for i in members]
        by_mode = utilization_under_failures_by_order(
            x, y, counts, modes, num_trials=num_trials, seed=seed
        )
        for i, mode in zip(members, modes):
            out[i] = [[r.num_failed, r.median] for r in by_mode[mode]]
    return out


def fig10_grid(*, clusters=None, num_trials: int = 10, seed: int = 0) -> Grid:
    chosen = dict(clusters or FIG10_CLUSTERS)
    grid = Grid(
        fig10_cell,
        common={"num_trials": num_trials, "seed": seed},
        chunk="cluster",
        drop=("cluster", "label"),
    )
    grid.cross("cluster", list(chosen))
    grid.cross(("sort_jobs", "label"), [(False, "unsorted"), (True, "sorted")])
    grid.derive(
        lambda p: {
            "x": chosen[p["cluster"]][0][0],
            "y": chosen[p["cluster"]][0][1],
            "counts": list(chosen[p["cluster"]][1]),
        }
    )
    return grid


def _fig10_post(report: RunReport) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
    for c in report:
        series = [(int(n), float(u)) for n, u in c.value]
        out.setdefault(c.scenario.tags["cluster"], {})[c.scenario.tags["label"]] = series
    return out


def fig10_failures(
    *,
    clusters=None,
    num_trials: int = 10,
    seed: int = 0,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """Median utilization of working boards vs number of failed boards."""
    grid = fig10_grid(clusters=clusters, num_trials=num_trials, seed=seed)
    return _fig10_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------------ Figure 11
DEFAULT_MESSAGE_SIZES = tuple(2 ** k for k in range(10, 25, 2))  # 1 KiB .. 16 MiB


@cell(version=1)
def fig11_cell(*, alpha: float, alltoall_bandwidth: float, message_sizes: Sequence[int]):
    """Effective alltoall bandwidth fraction per message size (one topology).

    The balanced-shift alltoall runs ``P - 1`` phases of one block each, so
    the effective per-process bandwidth is
    ``block / (alpha + block / measured_alltoall_bandwidth)`` -- the
    measured large-message fraction is the asymptote, small blocks are
    latency-bound.
    """
    series = []
    for size in message_sizes:
        phase_time = alpha + size / alltoall_bandwidth
        effective = size / phase_time
        series.append([int(size), effective / (4 * PORT_BYTES_PER_S)])
    return series


def fig11_grid(
    *,
    cluster: str = "small",
    message_sizes: Sequence[int] = DEFAULT_MESSAGE_SIZES,
    profiles: Optional[Dict[str, NetworkProfile]] = None,
) -> Grid:
    configs = {c.key: c for c in cluster_configs(cluster)}
    chosen = profiles or network_profiles(cluster)
    grid = Grid(
        fig11_cell,
        common={"message_sizes": [int(s) for s in message_sizes]},
        drop=("key", "label"),
    )
    grid.cross("key", list(chosen))
    grid.derive(
        lambda p: {
            "alpha": chosen[p["key"]].alpha,
            "alltoall_bandwidth": chosen[p["key"]].alltoall_bandwidth,
            "label": configs[p["key"]].label,
        }
    )
    return grid


def _fig11_post(report: RunReport) -> Dict[str, List[Tuple[int, float]]]:
    return {
        c.scenario.tags["label"]: [(int(s), float(f)) for s, f in c.value]
        for c in report
    }


def fig11_alltoall_sweep(
    cluster: str = "small",
    *,
    message_sizes: Sequence[int] = DEFAULT_MESSAGE_SIZES,
    profiles: Optional[Dict[str, NetworkProfile]] = None,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Alltoall effective bandwidth (fraction of injection) vs message size.

    ``message_sizes`` are per-peer block sizes (as in the paper's
    microbenchmark); see :func:`fig11_cell` for the model.
    """
    grid = fig11_grid(cluster=cluster, message_sizes=message_sizes, profiles=profiles)
    return _fig11_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------------ Figure 12
@cell(version=1)
def fig12_cell(
    *,
    cluster: str,
    key: str,
    num_permutations: int,
    max_paths: int,
    seed: int,
    backend: str,
    policy: str = "minimal",
):
    """Per-accelerator permutation bandwidth fractions of one topology."""
    config = {c.key: c for c in cluster_configs(cluster)}[key]
    topo = config.build()
    dist = measure_permutation_fractions(
        topo,
        num_permutations=num_permutations,
        max_paths=max_paths,
        seed=seed,
        backend=backend,
        policy=policy,
    )
    return [float(v) for v in dist]


def fig12_grid(
    *,
    cluster: str = "small",
    num_permutations: int = 2,
    max_paths: int = 8,
    skip_keys: Sequence[str] = (),
    seed: int = 0,
    backend: str = "flow",
    policy: str = "minimal",
) -> Grid:
    configs = {c.key: c for c in cluster_configs(cluster)}
    keys = [k for k in configs if k not in set(skip_keys)]
    grid = Grid(
        fig12_cell,
        common={
            "cluster": cluster,
            "num_permutations": num_permutations,
            "max_paths": max_paths,
            "seed": seed,
            "backend": backend,
            "policy": policy,
        },
        chunk=lambda p: f"{p['cluster']}/{p['key']}",
        drop=("label",),
    )
    grid.cross("key", keys)
    grid.derive(lambda p: {"label": configs[p["key"]].label})
    return grid


def _fig12_post(report: RunReport) -> Dict[str, Dict[str, object]]:
    results: Dict[str, Dict[str, object]] = {}
    reference_ratio = None
    configs_by_cluster: Dict[str, Dict[str, object]] = {}
    for c in report:
        cluster = c.scenario.params["cluster"]
        key = c.scenario.params["key"]
        if cluster not in configs_by_cluster:
            configs_by_cluster[cluster] = {cc.key: cc for cc in cluster_configs(cluster)}
        config = configs_by_cluster[cluster][key]
        dist = np.asarray(c.value, dtype=float)
        mean = float(dist.mean())
        cost_per_bw = config.cost.total_millions / max(mean, 1e-9)
        if key == "ft_nonblocking":
            reference_ratio = cost_per_bw
        results[config.label] = {
            "distribution": dist,
            "mean_fraction": mean,
            "cost_per_bandwidth": cost_per_bw,
        }
    if reference_ratio:
        for entry in results.values():
            entry["relative_cost_per_bandwidth"] = (
                entry["cost_per_bandwidth"] / reference_ratio
            )
    return results


def fig12_permutation(
    cluster: str = "small",
    *,
    num_permutations: int = 2,
    max_paths: int = 8,
    skip_keys: Sequence[str] = (),
    seed: int = 0,
    backend: str = "flow",
    policy: str = "minimal",
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, object]]:
    """Per-accelerator bandwidth distribution under random permutation traffic.

    Returns, per topology: the raw distribution (fractions of injection),
    its mean, and the cost per average bandwidth relative to the nonblocking
    fat tree.
    """
    grid = fig12_grid(
        cluster=cluster,
        num_permutations=num_permutations,
        max_paths=max_paths,
        skip_keys=skip_keys,
        seed=seed,
        backend=backend,
        policy=policy,
    )
    return _fig12_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------- Figures 13 / 17
ALLREDUCE_SWEEP_SIZES = tuple(2 ** k for k in range(14, 33, 2))  # 16 KiB .. 4 GiB


@cell(version=1)
def fig13_cell(
    *,
    p: int,
    alpha: float,
    allreduce_busbw: float,
    algorithms: Sequence[str],
    message_sizes: Sequence[int],
):
    """Allreduce bus bandwidth vs message size for one topology's algorithms."""
    beta = 1.0 / (allreduce_busbw * 2.0)  # seconds per byte per NIC
    return {
        alg: [
            [int(size), allreduce_bus_bandwidth(alg, p, size, alpha, beta)]
            for size in message_sizes
        ]
        for alg in algorithms
    }


def fig13_grid(
    *,
    cluster: str = "large",
    message_sizes: Sequence[int] = ALLREDUCE_SWEEP_SIZES,
    algorithms: Sequence[str] = ("rings", "torus"),
    profiles: Optional[Dict[str, NetworkProfile]] = None,
) -> Grid:
    configs = {c.key: c for c in cluster_configs(cluster)}
    chosen = profiles or network_profiles(cluster)
    grid_algorithms = list(algorithms)
    grid = Grid(
        fig13_cell,
        common={"message_sizes": [int(s) for s in message_sizes]},
        drop=("key", "label"),
    )
    grid.cross("key", list(chosen))

    def _derive(p):
        config = configs[p["key"]]
        profile = chosen[p["key"]]
        if config.family in ("hammingmesh", "torus", "hyperx"):
            algs = grid_algorithms
        else:
            algs = ["bidirectional-ring"]
        return {
            "p": config.num_accelerators,
            "alpha": profile.alpha,
            "allreduce_busbw": profile.allreduce_busbw,
            "algorithms": algs,
            "label": config.label,
        }

    grid.derive(_derive)
    return grid


def _fig13_post(report: RunReport) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    return {
        c.scenario.tags["label"]: {
            alg: [(int(s), float(bw)) for s, bw in points]
            for alg, points in c.value.items()
        }
        for c in report
    }


def fig13_allreduce_sweep(
    cluster: str = "large",
    *,
    message_sizes: Sequence[int] = ALLREDUCE_SWEEP_SIZES,
    algorithms: Sequence[str] = ("rings", "torus"),
    profiles: Optional[Dict[str, NetworkProfile]] = None,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """Full-system allreduce bus bandwidth vs message size (Figures 13/17).

    On the grid topologies both the dual-ring ("rings") and the 2D-torus
    ("torus") algorithms are evaluated; the switched topologies use the
    standard per-plane ring.  Bandwidths are bytes/s per accelerator.
    """
    grid = fig13_grid(
        cluster=cluster,
        message_sizes=message_sizes,
        algorithms=algorithms,
        profiles=profiles,
    )
    return _fig13_post(run_grid(grid, runner=runner, workers=workers))


def fig17_allreduce_sweep(**kwargs):
    """Small-cluster variant of the allreduce sweep (Figure 17).

    Every keyword (``message_sizes``, ``algorithms``, ``profiles``,
    ``runner``, ``workers``, ...) is passed straight through to
    :func:`fig13_allreduce_sweep`; only the default cluster differs.
    """
    kwargs.setdefault("cluster", "small")
    return fig13_allreduce_sweep(**kwargs)


# ------------------------------------------------------------------ Figure 15
FIG15_WORKLOADS = ["resnet152", "gpt3", "gpt3_moe", "cosmoflow", "dlrm"]
FIG15_BASELINES = [
    "ft_nonblocking",
    "ft_tapered50",
    "ft_tapered75",
    "dragonfly",
    "hyperx",
    "torus",
]


@cell(version=1)
def fig15_cell(*, workload: str, hx_profile: dict, hx_cost: float, baselines: list):
    """Relative cost savings of one HxMesh for one workload.

    ``baselines`` is a list of ``{"label", "cost", "profile"}`` records;
    the saving over topology X is ``(cost_X / cost_Hx) *
    (exposed_comm_X / exposed_comm_Hx)``.
    """
    wl = get_workload(workload)
    hx_time = wl.iteration_time(NetworkProfile(**hx_profile))
    hx_overhead = max(hx_time - wl.compute_time, 1e-9)
    out = {}
    for base in baselines:
        base_time = wl.iteration_time(NetworkProfile(**base["profile"]))
        base_overhead = max(base_time - wl.compute_time, 1e-9)
        out[base["label"]] = (base["cost"] / hx_cost) * (base_overhead / hx_overhead)
    return out


def fig15_grid(
    *,
    cluster: str = "small",
    profiles: Optional[Dict[str, NetworkProfile]] = None,
    workload_names: Sequence[str] = tuple(FIG15_WORKLOADS),
    hx_keys: Sequence[str] = ("hx2mesh", "hx4mesh"),
) -> Grid:
    configs = {c.key: c for c in cluster_configs(cluster)}
    chosen = profiles or network_profiles(cluster)
    baselines = [
        {
            "label": configs[key].label,
            "cost": configs[key].cost.total_millions,
            "profile": _profile_dict(chosen[key]),
        }
        for key in FIG15_BASELINES
    ]
    grid = Grid(fig15_cell, common={"baselines": baselines}, drop=("hx_key", "hx_label"))
    grid.cross("hx_key", list(hx_keys))
    grid.cross("workload", list(workload_names))
    grid.derive(
        lambda p: {
            "hx_profile": _profile_dict(chosen[p["hx_key"]]),
            "hx_cost": configs[p["hx_key"]].cost.total_millions,
            "hx_label": configs[p["hx_key"]].label,
        }
    )
    return grid


def _fig15_post(report: RunReport) -> Dict[str, Dict[str, Dict[str, float]]]:
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for c in report:
        hx_label = c.scenario.tags["hx_label"]
        workload = get_workload(c.scenario.tags["workload"])
        out.setdefault(hx_label, {})[workload.name] = {
            label: float(v) for label, v in c.value.items()
        }
    return out


def fig15_cost_savings(
    *,
    cluster: str = "small",
    profiles: Optional[Dict[str, NetworkProfile]] = None,
    workload_names: Sequence[str] = tuple(FIG15_WORKLOADS),
    hx_keys: Sequence[str] = ("hx2mesh", "hx4mesh"),
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Relative cost savings of HxMesh vs the other topologies (Figure 15).

    Following the paper, the saving of an HxMesh over topology X for a given
    workload is ``(cost_X / cost_Hx) * (exposed_comm_X / exposed_comm_Hx)``:
    the network-cost ratio corrected by the ratio of communication overheads.
    Returns ``{hx_label: {workload: {baseline_label: saving}}}``.
    """
    grid = fig15_grid(
        cluster=cluster,
        profiles=profiles,
        workload_names=workload_names,
        hx_keys=hx_keys,
    )
    return _fig15_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------------ Figure 16
@cell(version=1)
def fig16_cell(*, rows: int, cols: int):
    """The edge-disjoint Hamiltonian cycle pair of one torus shape."""
    red, green = disjoint_hamiltonian_cycles(rows, cols)
    return [
        [[int(r), int(c)] for r, c in red],
        [[int(r), int(c)] for r, c in green],
    ]


def fig16_grid(
    *, shapes: Sequence[Tuple[int, int]] = ((4, 4), (8, 4), (9, 3), (16, 8))
) -> Grid:
    grid = Grid(fig16_cell)
    grid.cross(("rows", "cols"), [tuple(s) for s in shapes])
    return grid


def _fig16_post(report: RunReport):
    out = {}
    for c in report:
        shape = (c.scenario.params["rows"], c.scenario.params["cols"])
        red, green = c.value
        out[shape] = (
            [tuple(point) for point in red],
            [tuple(point) for point in green],
        )
    return out


def fig16_hamiltonian_cycles(
    shapes: Sequence[Tuple[int, int]] = ((4, 4), (8, 4), (9, 3), (16, 8)),
    *,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[Tuple[int, int], Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
    """The example edge-disjoint Hamiltonian cycle pairs of Figure 16."""
    return _fig16_post(run_grid(fig16_grid(shapes=shapes), runner=runner, workers=workers))


# --------------------------------------------------------- Section V-B table
@cell(version=1)
def iteration_time_cell(*, workload: str, profiles: dict):
    """Per-topology iteration times (seconds) of one DNN workload."""
    wl = get_workload(workload)
    return {
        label: wl.iteration_time(NetworkProfile(**profile))
        for label, profile in profiles.items()
    }


def dnn_iteration_times_grid(
    *,
    cluster: str = "small",
    profiles: Optional[Dict[str, NetworkProfile]] = None,
    workload_names: Sequence[str] = tuple(FIG15_WORKLOADS),
) -> Grid:
    configs = cluster_configs(cluster)
    chosen = profiles or network_profiles(cluster)
    labelled = {
        config.label: _profile_dict(chosen[config.key])
        for config in configs
        if config.key in chosen
    }
    grid = Grid(iteration_time_cell, common={"profiles": labelled})
    grid.cross("workload", list(workload_names))
    return grid


def _dnn_iteration_times_post(report: RunReport) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for c in report:
        workload = get_workload(c.scenario.tags["workload"])
        out[workload.name] = {label: float(t) for label, t in c.value.items()}
    return out


def dnn_iteration_times(
    *,
    cluster: str = "small",
    profiles: Optional[Dict[str, NetworkProfile]] = None,
    workload_names: Sequence[str] = tuple(FIG15_WORKLOADS),
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-topology iteration times (seconds) of the Section V-B workloads."""
    grid = dnn_iteration_times_grid(
        cluster=cluster, profiles=profiles, workload_names=workload_names
    )
    return _dnn_iteration_times_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------- routing-policy study
#: Small per-family instances for the routing-policy study.  The HxMesh is
#: *tapered* (radix-4 trees at 2:1) so its global networks are the scarce
#: resource the Section IV-C minimal-vs-non-minimal discussion is about.
ROUTING_POLICY_TOPOS: Dict[str, str] = {
    "hx4mesh_tapered": "4x4 boards of 4x4, radix-4 trees, 50% tapered",
    "hx2mesh": "4x4 boards of 2x2",
    "torus": "16x16 accelerators",
    "dragonfly": "8 groups x 8 routers x 4 accelerators",
    "hyperx": "8x8 switches x 2 accelerators",
    "fattree_tapered": "256 accelerators, 75% tapered",
}

ROUTING_POLICIES: Tuple[str, ...] = ("minimal", "ecmp", "valiant", "ugal")


#: Built study topologies, memoized per key: the grid chunks its cells by
#: topo_key so all four policy cells of one topology run in one worker, and
#: sharing the topology *object* is what lets `route_table_for`'s weak-keyed
#: memo (and the generic provider's BFS state) carry over between them.
_POLICY_TOPO_MEMO: Dict[str, object] = {}


def _routing_policy_topo(topo_key: str):
    from ..core import build_hammingmesh
    from ..topology import build_dragonfly, build_fat_tree, build_hyperx2d, build_torus2d

    builders = {
        "hx4mesh_tapered": lambda: build_hammingmesh(4, 4, 4, 4, radix=4, global_taper=0.5),
        "hx2mesh": lambda: build_hammingmesh(2, 2, 4, 4),
        "torus": lambda: build_torus2d(8, 8),
        "dragonfly": lambda: build_dragonfly(
            8, routers_per_group=8, endpoints_per_router=4, global_links_per_router=4
        ),
        "hyperx": lambda: build_hyperx2d(8, 8, terminals=2),
        "fattree_tapered": lambda: build_fat_tree(256, taper=0.25),
    }
    try:
        builder = builders[topo_key]
    except KeyError:
        raise ValueError(
            f"unknown routing-policy study topology {topo_key!r}; "
            f"available: {sorted(builders)}"
        ) from None
    topo = _POLICY_TOPO_MEMO.get(topo_key)
    if topo is None:
        topo = _POLICY_TOPO_MEMO[topo_key] = builder()
    return topo


@cell(version=1)
def routing_policy_cell(
    *,
    topo_key: str,
    policy: str,
    max_paths: int = 8,
    num_random: int = 2,
    seed: int = 0,
) -> dict:
    """Worst-case adversarial and random permutation throughput of one
    ``(topology, policy)`` point.

    ``adversarial_*`` is measured on the family's structural worst case
    (:func:`repro.sim.traffic.adversarial_permutation`; fractions over the
    participating destinations, since the HammingMesh adversary is a
    hot-region job that leaves the rest of the machine idle).
    ``random_mean`` is the usual Figure-12-style average over ``num_random``
    random permutations.  The policy name is an ordinary cell parameter, so
    it enters the scenario content hash like any other axis.
    """
    import numpy as np

    from ..sim import adversarial_permutation, get_backend

    topo = _routing_policy_topo(topo_key)
    model = get_backend("flow", topo, max_paths=max_paths, policy=policy)
    adv = adversarial_permutation(topo)
    dsts = np.fromiter((f.dst for f in adv), dtype=np.int64, count=len(adv))
    adv_fractions = model.permutation_sample(adv)[dsts]
    random_fractions = model.permutation_fractions(
        num_permutations=num_random, seed=seed
    )
    return {
        "adversarial_worst": float(adv_fractions.min()),
        "adversarial_mean": float(adv_fractions.mean()),
        "random_mean": float(random_fractions.mean()),
        "adversarial_flows": int(len(adv)),
    }


def routing_policy_grid(
    *,
    topo_keys: Sequence[str] = tuple(ROUTING_POLICY_TOPOS),
    policies: Sequence[str] = ROUTING_POLICIES,
    max_paths: int = 8,
    num_random: int = 2,
    seed: int = 0,
) -> Grid:
    grid = Grid(
        routing_policy_cell,
        common={"max_paths": max_paths, "num_random": num_random, "seed": seed},
        # Chunk by topology so one worker reuses the memoized route tables
        # of all four policies on the same instance.
        chunk=lambda p: p["topo_key"],
    )
    grid.cross("topo_key", list(topo_keys))
    grid.cross("policy", list(policies))
    return grid


def _routing_policy_post(report: RunReport) -> Dict[str, Dict[str, Dict[str, float]]]:
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for c in report:
        params = c.scenario.params
        results.setdefault(params["topo_key"], {})[params["policy"]] = c.value
    return results


def routing_policy_sweep(
    *,
    topo_keys: Sequence[str] = tuple(ROUTING_POLICY_TOPOS),
    policies: Sequence[str] = ROUTING_POLICIES,
    max_paths: int = 8,
    num_random: int = 2,
    seed: int = 0,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Worst-case permutation throughput per routing policy per family.

    Returns ``{topo_key: {policy: {adversarial_worst, adversarial_mean,
    random_mean, adversarial_flows}}}`` — the paper-style study behind the
    Section IV-C minimal-vs-non-minimal discussion: UGAL restores the
    bandwidth minimal routing loses on the structural worst cases
    (recorded in ``BENCH_routing_policies.json``).
    """
    grid = routing_policy_grid(
        topo_keys=topo_keys,
        policies=policies,
        max_paths=max_paths,
        num_random=num_random,
        seed=seed,
    )
    return _routing_policy_post(run_grid(grid, runner=runner, workers=workers))


# ------------------------------------------------------------- named sweeps
register_sweep(
    "fig7",
    build=fig7_grid,
    post=_fig7_post,
    description="Figure 7: job-size CDF of the sampled workload",
    artifact="fig07_jobsize_cdf",
)
register_sweep(
    "fig8",
    build=fig8_grid,
    post=_fig8_post,
    description="Figure 8: allocator utilization per heuristic preset",
    artifact="fig08_utilization",
)
register_sweep(
    "fig9",
    build=fig9_grid,
    post=_fig9_post,
    description="Figure 9: traffic crossing the upper fat-tree levels",
    artifact="fig09_upper_traffic",
)
register_sweep(
    "fig10",
    build=fig10_grid,
    post=_fig10_post,
    description="Figure 10: utilization under board failures",
    artifact="fig10_failures",
)
register_sweep(
    "fig11",
    build=fig11_grid,
    post=_fig11_post,
    description="Figure 11: alltoall bandwidth vs message size",
    artifact="fig11_alltoall",
)
register_sweep(
    "fig12",
    build=fig12_grid,
    post=_fig12_post,
    description="Figure 12: permutation bandwidth distributions",
    artifact="fig12_permutation",
)
register_sweep(
    "fig13",
    build=fig13_grid,
    post=_fig13_post,
    description="Figure 13: large-cluster allreduce bandwidth sweep",
    artifact="fig13_allreduce_large",
)
register_sweep(
    "fig17",
    build=lambda **kw: fig13_grid(**{"cluster": "small", **kw}),
    post=_fig13_post,
    description="Figure 17: small-cluster allreduce bandwidth sweep",
    artifact="fig17_allreduce_small",
)
register_sweep(
    "fig15",
    build=fig15_grid,
    post=_fig15_post,
    description="Figure 15: relative cost savings of HxMesh",
    artifact="fig15_cost_savings",
)
register_sweep(
    "fig16",
    build=fig16_grid,
    post=_fig16_post,
    description="Figure 16: edge-disjoint Hamiltonian cycle pairs",
    artifact="fig16_hamiltonian",
)
register_sweep(
    "sectionVB",
    build=dnn_iteration_times_grid,
    post=_dnn_iteration_times_post,
    description="Section V-B: DNN iteration times per topology",
    artifact="sectionVB_iteration_times",
)
register_sweep(
    "routing_policy_sweep",
    build=routing_policy_grid,
    post=_routing_policy_post,
    description="Section IV-C study: adversarial/random permutation throughput per routing policy",
    artifact="routing_policies",
)
register_sweep(
    "profiles",
    build=measurement_grid,
    post=lambda report: {
        c.scenario.tags["key"]: c.value for c in report
    },
    description="Measured alltoall/allreduce fractions per topology",
    artifact="network_profiles",
)
