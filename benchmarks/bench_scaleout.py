"""Scale-out simulation path: memory-budgeted routing + batched max-min.

The large-N contract of the simulator substrate, asserted and recorded in
``BENCH_scaleout.json``:

* **Memory budget**: a 4,096-accelerator ``Hx2Mesh(2,2,32,32)`` permutation
  sweep runs end-to-end through the experiment engine (the registered
  ``scaleout_permutation`` sweep) with the route table under a hard byte
  budget — the table's resident bytes stay at or below the budget and
  under 5% of what a dense pair index over every node pair would take,
  and the whole run's peak RSS stays below a hard process cap.  The
  committed artifact carries the dense-pair-index projection next to the
  measured resident bytes as the before/after evidence.
* **Batched solver**: stacking a fig12-style permutation sweep into one
  :meth:`~repro.sim.flowsim.FlowSimulator.maxmin_rates_batch` call is at
  least 2x faster than per-scenario solves, with bit-identical rates.
* **Parallel**: the 4,096-endpoint sweep re-runs on a 2-worker pool.
  Its single-topology chunk splits across both workers, each routing its
  own slice's pairs, and the parallel payload is bit-identical to the
  serial one.
* **Headline scale**: the 16,384-accelerator ``Hx2Mesh(2,2,64,64)`` sweep
  (whose dense pair index alone would need ~7.7 GB) runs under a 4 GB
  route-table budget.  It costs tens of seconds, so it only re-runs when
  ``REPRO_BENCH_SCALEOUT_FULL=1`` is set (the baseline-regeneration mode);
  ordinary perf-smoke runs carry the committed baseline's headline
  evidence forward unchanged.

Fresh runs are compared against the committed baseline (within 2x,
absolute wall-clock — set ``REPRO_BENCH_SKIP_BASELINE=1`` on hardware
where that is meaningless).
"""

from __future__ import annotations

import os

import pytest

from repro.exp import Runner, Scenario, run_sweep
from repro.exp.cells import flowsim_batch_cell
from repro.exp.scenario import kernel_ref
from repro.sim import clear_route_tables, live_route_tables, parse_mem_budget

from _bench_utils import bench_runner, committed_artifact, run_once

#: CI-scale budgeted sweep: 4,096 accelerators under a route-table budget
#: below what a dense pair index would take (~429 MB).
CI_TOPO = dict(a=2, b=2, x=32, y=32)
CI_BUDGET = "256M"
#: Hard cap on the whole process' peak RSS during the budgeted sweep.
CI_RSS_CAP = 2 << 30
#: Headline scale (run with REPRO_BENCH_SCALEOUT_FULL=1): 16,384
#: accelerators under the 4 GB budget of the acceptance criterion.
FULL_TOPO = dict(a=2, b=2, x=64, y=64)
FULL_BUDGET = "4G"
#: Resident route-table bytes must stay under this fraction of the dense
#: pair index's projection: the table's storage is O(routed pairs).
RESIDENT_FRACTION = 0.05
#: Worker count of the parallel pass.
PARALLEL_WORKERS = 2


def _eager_pair_index_bytes(a: int, b: int, x: int, y: int) -> int:
    """Projected bytes of a dense O(nodes^2) pair index (the "before")."""
    from repro.core import build_hammingmesh

    n = build_hammingmesh(a, b, x, y).num_nodes
    return 3 * 8 * n * n


def _budgeted_sweep(topo: dict, budget: str, num_permutations: int) -> dict:
    """Run the registered scale-out sweep under ``budget``; gather evidence."""
    clear_route_tables()
    # In-process on purpose (not bench_runner): the route table the sweep
    # builds must stay inspectable via live_route_tables() afterwards.
    run = run_sweep(
        "scaleout_permutation",
        runner=Runner(workers=1, cache=False),
        mem_budget=budget,
        num_permutations=num_permutations,
        **topo,
    )
    stats = run.report.stats()
    resident = max((t.estimated_csr_bytes() for t in live_route_tables()), default=0)
    evidence = {
        "topology": dict(topo),
        "accelerators": topo["a"] * topo["b"] * topo["x"] * topo["y"],
        "mem_budget": budget,
        "mem_budget_bytes": parse_mem_budget(budget),
        "eager_pair_index_bytes": _eager_pair_index_bytes(**topo),
        "resident_bytes": int(resident),
        "peak_rss_bytes": stats["peak_rss_bytes"],
        "wall_seconds": stats["wall_seconds"],
        "num_permutations": num_permutations,
        "mean_fraction": run.payload["mean_fraction"],
        "min_fraction": run.payload["min_fraction"],
    }
    clear_route_tables()
    return evidence


def _run_cell(kernel, **params):
    report = bench_runner().run(Scenario(kernel_ref(kernel), params))
    return report.values()[0]


def _parallel_sweep(topo: dict, budget: str, num_permutations: int, workers: int) -> dict:
    """The budgeted sweep serially, then on a ``workers`` pool; evidence.

    Both passes start from empty route tables, so every worker routes the
    pairs of its own slices, as a CLI run does.
    """
    params = dict(mem_budget=budget, num_permutations=num_permutations, **topo)
    clear_route_tables()
    serial = run_sweep(
        "scaleout_permutation", runner=Runner(workers=1, cache=False), **params
    )
    clear_route_tables()
    with Runner(workers=workers, cache=False) as runner:
        parallel = run_sweep("scaleout_permutation", runner=runner, **params)
    evidence = {
        "workers": workers,
        "num_permutations": num_permutations,
        "serial_wall_seconds": serial.report.stats()["wall_seconds"],
        "parallel_wall_seconds": parallel.report.stats()["wall_seconds"],
        "chunks": parallel.report.chunks,
        "bit_identical": serial.payload == parallel.payload,
    }
    clear_route_tables()
    return evidence


def _assert_resident_small(evidence: dict) -> None:
    """Resident bytes within the budget and under 5% of the dense index."""
    resident = evidence["resident_bytes"]
    assert resident <= evidence["mem_budget_bytes"], (
        f"resident {resident} exceeds the {evidence['mem_budget_bytes']}-byte budget"
    )
    cap = RESIDENT_FRACTION * evidence["eager_pair_index_bytes"]
    assert 0 < resident < cap, (
        f"resident {resident} bytes is not under {RESIDENT_FRACTION:.0%} of the "
        f"{evidence['eager_pair_index_bytes']}-byte dense pair index"
    )


@pytest.mark.benchmark(group="scaleout")
def test_scaleout_path(benchmark):
    """Budget + batch + headline contracts, recorded as one artifact."""
    # Read the committed baseline before run_once regenerates the artifact.
    baseline = committed_artifact("scaleout")

    def run():
        budgeted = _budgeted_sweep(CI_TOPO, CI_BUDGET, num_permutations=4)
        serial = _run_cell(flowsim_batch_cell, impl="serial")
        batched = _run_cell(flowsim_batch_cell, impl="batched")
        batch = {
            "before": serial,
            "after": batched,
            "speedup": serial["seconds"] / batched["seconds"],
        }
        parallel = _parallel_sweep(
            CI_TOPO, CI_BUDGET, num_permutations=4, workers=PARALLEL_WORKERS
        )
        headline = None
        if os.environ.get("REPRO_BENCH_SCALEOUT_FULL"):
            headline = _budgeted_sweep(FULL_TOPO, FULL_BUDGET, num_permutations=2)
        elif baseline and isinstance(baseline.get("result"), dict):
            headline = baseline["result"].get("headline")
        return {
            "budgeted": budgeted,
            "batch": batch,
            "parallel": parallel,
            "headline": headline,
        }

    data = run_once(benchmark, run, record="scaleout")
    budgeted, batch = data["budgeted"], data["batch"]
    parallel = data["parallel"]
    print(
        f"\nbudgeted sweep ({budgeted['accelerators']} accels @ {CI_BUDGET}): "
        f"resident {budgeted['resident_bytes'] / 1e6:.1f} MB "
        f"(eager projection {budgeted['eager_pair_index_bytes'] / 1e6:.0f} MB), "
        f"peak RSS {budgeted['peak_rss_bytes'] / 1e6:.0f} MB, "
        f"{budgeted['wall_seconds']:.1f}s"
    )
    print(
        f"batched max-min: serial {batch['before']['seconds'] * 1e3:.0f} ms, "
        f"batched {batch['after']['seconds'] * 1e3:.0f} ms "
        f"({batch['speedup']:.2f}x)"
    )
    print(
        f"parallel ({parallel['workers']} workers, {parallel['chunks']} chunks): "
        f"{parallel['parallel_wall_seconds']:.2f}s vs serial "
        f"{parallel['serial_wall_seconds']:.2f}s, "
        f"bit-identical={parallel['bit_identical']}"
    )

    # -- memory-budget contract ------------------------------------------
    _assert_resident_small(budgeted)
    assert budgeted["peak_rss_bytes"] is not None
    assert budgeted["peak_rss_bytes"] < CI_RSS_CAP, (
        f"peak RSS {budgeted['peak_rss_bytes'] / 1e9:.2f} GB breached the "
        f"{CI_RSS_CAP / 1e9:.0f} GB cap"
    )
    assert 0.0 < budgeted["min_fraction"] <= budgeted["mean_fraction"] <= 1.0

    # -- batched-solver contract -----------------------------------------
    # The batch solver is bit-identical to the serial one, so the means
    # must agree exactly, not approximately.
    assert batch["after"]["mean_rates"] == batch["before"]["mean_rates"]
    assert batch["speedup"] >= 2.0, (
        f"batched max-min is only {batch['speedup']:.2f}x the serial solver"
    )

    # -- parallel contract --------------------------------------------------
    assert parallel["bit_identical"], "the parallel payload diverged from the serial run"
    assert parallel["chunks"] >= 2, "single-topology sweep did not split across workers"

    # -- headline evidence ------------------------------------------------
    headline = data["headline"]
    if headline is not None:
        _assert_resident_small(headline)
        assert headline["eager_pair_index_bytes"] > headline["mem_budget_bytes"], (
            "headline config must be infeasible without the budget"
        )

    if baseline and isinstance(baseline.get("result"), dict):
        committed = baseline["result"].get("budgeted", {}).get("wall_seconds")
        if committed:
            assert budgeted["wall_seconds"] <= committed * 2.0, (
                f"budgeted sweep took {budgeted['wall_seconds']:.1f}s, more "
                f"than 2x the committed baseline {committed:.1f}s"
            )
