"""Tests for the declarative experiment engine (repro.exp)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.figures import (
    fig8_grid,
    fig8_utilization,
    fig12_grid,
    fig13_allreduce_sweep,
    fig17_allreduce_sweep,
)
from repro.exp import (
    Grid,
    ResultCache,
    Runner,
    Scenario,
    canonical_json,
    cell_seed,
    kernel_ref,
    run_grid,
    run_sweep,
    run_sweeps,
)
from repro.exp.cells import probe_cell, route_table_reuse_cell

PROBE = kernel_ref(probe_cell)

#: a deliberately tiny fig12 grid (two cheap topologies) for engine tests
FIG12_SMALL = dict(
    cluster="small",
    num_permutations=1,
    max_paths=2,
    seed=5,
    skip_keys=(
        "ft_nonblocking",
        "ft_tapered50",
        "ft_tapered75",
        "dragonfly",
        "hyperx",
        "hx2mesh",
    ),
)


class TestGrid:
    def test_cartesian_and_zipped_axes(self):
        grid = Grid(PROBE, common={"value": 0})
        grid.cross(seed=[1, 2, 3])
        grid.cross(("draws", "value"), [(1, 10), (2, 20)])
        scenarios = grid.scenarios()
        assert len(grid) == len(scenarios) == 6
        # nested-loop order: first axis outermost
        assert [s.params["seed"] for s in scenarios] == [1, 1, 2, 2, 3, 3]
        assert scenarios[0].params["draws"] == 1
        assert scenarios[1].params == {"value": 20, "seed": 1, "draws": 2}

    def test_zipped_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            Grid(PROBE).zipped(a=[1, 2], b=[1])

    def test_drop_tags_chunk_derive(self):
        grid = Grid(PROBE, chunk="group", drop=("group", "label"))
        grid.cross(seed=[1, 2])
        grid.derive(lambda p: {"group": f"g{p['seed']}", "label": f"seed-{p['seed']}"})
        scenarios = grid.scenarios()
        assert all("group" not in s.params and "label" not in s.params for s in scenarios)
        assert scenarios[0].chunk == "g1"
        assert scenarios[0].tags == {"seed": 1, "group": "g1", "label": "seed-1"}

    def test_closure_kernels_rejected(self):
        def local(**kwargs):
            return None

        with pytest.raises(ValueError):
            Grid(local)


class TestScenarioHashing:
    def test_hash_independent_of_param_order(self):
        a = Scenario(PROBE, {"value": 1, "seed": 2})
        b = Scenario(PROBE, {"seed": 2, "value": 1})
        assert a.content_hash() == b.content_hash()

    def test_hash_changes_on_param_change(self):
        a = Scenario(PROBE, {"value": 1, "seed": 2})
        b = Scenario(PROBE, {"value": 1, "seed": 3})
        assert a.content_hash() != b.content_hash()

    def test_unserialisable_params_rejected(self):
        scenario = Scenario(PROBE, {"value": object()})
        with pytest.raises(TypeError):
            scenario.content_hash()

    def test_cell_seed_stable_and_mixed(self):
        assert cell_seed("fig8", 0) == cell_seed("fig8", 0)
        assert cell_seed("fig8", 0) != cell_seed("fig8", 1)
        assert cell_seed("fig8", 0) >= 0


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        grid = Grid(PROBE, common={"draws": 3}).cross(seed=[1, 2])
        cold = run_grid(grid, workers=1, cache=tmp_path)
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        warm = run_grid(grid, workers=1, cache=tmp_path)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.values() == cold.values()

    def test_param_change_misses(self, tmp_path):
        run_grid(Grid(PROBE, common={"draws": 3, "seed": 1}), cache=tmp_path)
        changed = run_grid(Grid(PROBE, common={"draws": 4, "seed": 1}), cache=tmp_path)
        assert changed.cache_misses == 1

    def test_cache_entry_is_self_describing(self, tmp_path):
        scenario = Scenario(PROBE, {"draws": 1, "seed": 9})
        run_grid(scenario, cache=tmp_path)
        cache = ResultCache(tmp_path)
        path = cache.path_for(scenario.content_hash())
        payload = json.loads(path.read_text())
        assert payload["scenario"]["kernel"] == PROBE
        assert payload["scenario"]["params"] == {"draws": 1, "seed": 9}

    def test_noncacheable_cells_always_recompute(self, tmp_path):
        scenario = Scenario(
            kernel_ref(route_table_reuse_cell),
            {"a": 2, "b": 2, "x": 4, "y": 4, "max_paths": 2, "num_phases": 4},
        )
        assert not scenario.cacheable
        first = run_grid(scenario, cache=tmp_path)
        second = run_grid(scenario, cache=tmp_path)
        assert first.cache_misses == second.cache_misses == 1
        assert second.cache_hits == 0


class TestSerialParallelEquivalence:
    def test_fig8_grid_bit_identical(self):
        grid_params = dict(clusters={"tiny": (8, 8), "tiny2": (10, 10)}, num_traces=6, seed=3)
        serial = run_sweep("fig8", workers=1, cache=False, **grid_params)
        parallel = run_sweep("fig8", workers=3, cache=False, **grid_params)
        assert parallel.report.workers == 3
        assert canonical_json(serial.payload) == canonical_json(parallel.payload)

    def test_fig12_grid_bit_identical_and_cache_round_trip(self, tmp_path):
        serial = run_sweep("fig12", workers=1, cache=False, **FIG12_SMALL)
        parallel = run_sweep("fig12", workers=2, cache=tmp_path, **FIG12_SMALL)
        warm = run_sweep("fig12", workers=1, cache=tmp_path, **FIG12_SMALL)
        assert warm.report.cache_misses == 0
        blobs = {
            canonical_json(run.payload) for run in (serial, parallel, warm)
        }
        assert len(blobs) == 1  # serial == parallel == warm, bit for bit
        dist = serial.payload["2D torus"]["distribution"]
        assert isinstance(dist, np.ndarray) and len(dist) == 1024

    def test_run_sweeps_matches_individual_runs(self):
        fig8_params = dict(clusters={"tiny": (8, 8)}, num_traces=4, seed=1)
        runs, report = run_sweeps(
            {"fig8": fig8_params, "fig16": {"shapes": ((4, 4),)}},
            workers=1,
            cache=False,
        )
        assert len(report) == len(runs["fig8"].report) + len(runs["fig16"].report)
        single = run_sweep("fig8", workers=1, cache=False, **fig8_params)
        assert canonical_json(runs["fig8"].payload) == canonical_json(single.payload)


class TestFigureSemantics:
    def test_fig8_matches_direct_loop(self):
        """The engine-backed fig8 reproduces the original nested loops."""
        from repro.allocation import (
            AllocatorOptions,
            BoardGrid,
            GreedyAllocator,
            sample_job_mixes,
        )
        from repro.analysis.figures import FIG8_PRESETS

        x = y = 8
        data = fig8_utilization(clusters={"tiny": (x, y)}, num_traces=5, seed=2)
        mixes = sample_job_mixes(x * y, 5, seed=2, max_job_boards=x * y)
        for preset, sort in FIG8_PRESETS:
            label = preset + ("+sort" if sort else "")
            expected = []
            for mix in mixes:
                grid = BoardGrid(x, y)
                allocator = GreedyAllocator(grid, AllocatorOptions.named(preset))
                trace = mix.sorted_by_size() if sort else mix
                expected.append(allocator.allocate_trace(trace).utilization)
            assert data["tiny"][label] == pytest.approx(expected, abs=0)

    def test_allocator_figure_companions_match_per_cell_loops(self):
        """fig8/fig9/fig10 batch companions against the per-cell loops they share draws for."""
        from repro.allocation import (
            AllocatorOptions,
            BoardGrid,
            GreedyAllocator,
            sample_job_mixes,
            upper_level_fraction,
        )
        from repro.analysis.figures import (
            FIG8_PRESETS,
            fig8_batch,
            fig8_cell,
            fig9_batch,
            fig9_cell,
            fig10_batch,
            fig10_cell,
        )

        def traces(p, mixes):
            for mix in mixes:
                trace = mix.sorted_by_size() if p["sort"] else mix
                yield GreedyAllocator(BoardGrid(p["x"], p["y"]), p["options"]).allocate_trace(trace)

        def mixes_of(p):
            n = p["x"] * p["y"]
            return sample_job_mixes(n, p["num_traces"], seed=p["seed"], max_job_boards=n)

        def fig8_loop(p):
            p = {**p, "options": AllocatorOptions.named(p["preset"])}
            return [r.utilization for r in traces(p, mixes_of(p))]

        def fig9_loop(p):
            base = AllocatorOptions.named(p["preset"])
            options = AllocatorOptions(
                transpose=base.transpose, aspect_ratio=base.aspect_ratio,
                locality=base.locality, boards_per_leaf=p["boards_per_leaf"],
            )
            totals = {"alltoall": 0.0, "allreduce": 0.0}
            weight = 0.0
            for result in traces({**p, "options": options}, mixes_of(p)):
                for sm in result.placed.values():
                    weight += sm.num_boards
                    for pattern in totals:
                        totals[pattern] += sm.num_boards * upper_level_fraction(
                            sm, boards_per_leaf=p["boards_per_leaf"], pattern=pattern
                        )
            return {k: (v / weight if weight else 0.0) for k, v in totals.items()}

        def fig10_loop(p):
            options = AllocatorOptions(transpose=True, aspect_ratio=True)
            series = []
            for num_failed in p["counts"]:
                utils = []
                for trial in range(p["num_trials"]):
                    trial_seed = p["seed"] * 7919 + num_failed * 131 + trial
                    grid = BoardGrid(p["x"], p["y"])
                    if num_failed:
                        grid.fail_random(num_failed, seed=trial_seed)
                    n = grid.num_working
                    mix = sample_job_mixes(n, 1, max_job_boards=n, seed=trial_seed + 1)[0]
                    trace = mix.sorted_by_size() if p["sort_jobs"] else mix
                    utils.append(GreedyAllocator(grid, options).allocate_trace(trace).utilization)
                series.append([num_failed, float(np.median(utils))])
            return series

        shapes = [(6, 6, 0), (8, 4, 0), (6, 6, 1)]  # two clusters, two seeds
        fig8 = [
            dict(x=x, y=y, preset=preset, sort=sort, num_traces=3, seed=seed)
            for x, y, seed in shapes
            for preset, sort in FIG8_PRESETS
        ]
        fig9 = [
            dict(x=x, y=y, boards_per_leaf=leaf, preset=preset, sort=sort, num_traces=2, seed=seed)
            for x, y, seed in shapes
            for leaf in (2, 4)
            for preset, sort in FIG8_PRESETS[2:]
        ]
        fig10 = [
            dict(x=x, y=y, counts=counts, sort_jobs=sort, num_trials=3, seed=seed)
            for x, y, seed in shapes
            for counts in ([0, 3, 9], [5])
            for sort in (False, True)
        ]
        for batch, solo, loop, params in (
            (fig8_batch, fig8_cell, fig8_loop, fig8),
            (fig9_batch, fig9_cell, fig9_loop, fig9),
            (fig10_batch, fig10_cell, fig10_loop, fig10),
        ):
            expected = [loop(p) for p in params]
            assert batch(params) == expected
            assert batch(params[::-1]) == expected[::-1]
            assert [solo(**p) for p in params] == expected

    def test_fig17_kwargs_pass_through(self):
        """Regression: fig17 must forward every kwarg to the fig13 sweep."""
        sizes = (1 << 20, 1 << 24)
        series = fig17_allreduce_sweep(message_sizes=sizes, algorithms=("rings",))
        # small-cluster default: the Hx4Mesh exists (the large cluster has it
        # too, so also anchor on the small cluster's accelerator count below)
        assert "Hx4Mesh" in series
        hx = series["Hx4Mesh"]
        assert list(hx) == ["rings"]  # algorithms forwarded
        assert [s for s, _ in hx["rings"]] == list(sizes)  # sizes forwarded
        explicit = fig13_allreduce_sweep(
            "small", message_sizes=sizes, algorithms=("rings",)
        )
        assert series == explicit  # cluster default is "small", nothing else


class TestGridChunking:
    def test_chunked_cells_share_a_worker_task(self):
        grid = fig8_grid(clusters={"a": (8, 8), "b": (8, 8)}, num_traces=2, seed=0)
        report = run_grid(grid, workers=1, cache=False)
        assert report.chunks == 2  # one chunk per cluster, not per cell
        assert len(report) == 12

    def test_fig12_chunks_by_topology(self):
        grid = fig12_grid(**FIG12_SMALL)
        chunks = {s.chunk for s in grid.scenarios()}
        assert chunks == {"small/hx4mesh", "small/torus"}


class TestCacheCorruption:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        from repro import obs
        from repro.exp.grid import scenarios_of

        grid = Grid(PROBE, common={"draws": 3}).cross(seed=[1, 2])
        cold = run_grid(grid, workers=1, cache=tmp_path)
        path = ResultCache(tmp_path).path_for(scenarios_of(grid)[0].content_hash())
        path.write_text(path.read_text()[:17])   # hand-truncated entry

        corrupt = obs.counter("exp.cache_corrupt")
        before = corrupt.value
        with pytest.warns(RuntimeWarning, match="corrupted result-cache entry"):
            mixed = run_grid(grid, workers=1, cache=tmp_path)
        assert corrupt.value == before + 1
        assert mixed.cache_hits == 1 and mixed.cache_misses == 1
        assert mixed.values() == cold.values()
        assert path.with_suffix(path.suffix + ".corrupt").exists()

        warm = run_grid(grid, workers=1, cache=tmp_path)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.values() == cold.values()


class TestRunnerHardening:
    @staticmethod
    def _fragile(**params):
        from repro.exp.cells import fragile_cell

        return Scenario(kernel_ref(fragile_cell), params)

    def test_worker_crash_retried_on_fresh_pool(self, tmp_path):
        from repro import obs

        sentinel = str(tmp_path / "crash.sentinel")
        cells = [self._fragile(mode="crash", sentinel=sentinel, value=0)]
        cells += [self._fragile(mode="ok", value=i) for i in (1, 2, 3)]
        retries = obs.counter("exp.worker_retries")
        before = retries.value
        report = Runner(workers=2, cache=False, retry_backoff=0.05).run(cells)
        assert retries.value > before
        assert sorted(v["value"] for v in report.values()) == [0, 1, 2, 3]
        assert report.stats()["quarantined"] == 0

    def test_poison_cell_quarantined_others_complete(self):
        from repro import obs

        cells = [self._fragile(mode="raise", value=0)]
        cells += [self._fragile(mode="ok", value=i) for i in (1, 2, 3)]
        quarantined = obs.counter("exp.cells_quarantined")
        before = quarantined.value
        report = Runner(workers=2, cache=False, retry_backoff=0.05).run(cells)
        assert quarantined.value == before + 1
        assert report.stats()["quarantined"] == 1
        assert report.cells[0].value is None
        assert "poison cell" in report.cells[0].error
        assert sorted(c.value["value"] for c in report.cells[1:]) == [1, 2, 3]

    def test_hung_cell_times_out_and_is_quarantined(self):
        from repro import obs

        cells = [self._fragile(mode="hang", seconds=60.0, value=0)]
        cells += [self._fragile(mode="ok", value=i) for i in (1, 2)]
        timeouts = obs.counter("exp.cell_timeouts")
        before = timeouts.value
        report = Runner(
            workers=2, cache=False, cell_timeout=2.0, retry_backoff=0.05
        ).run(cells)
        assert timeouts.value > before
        assert report.cells[0].error == "timeout"
        assert sorted(c.value["value"] for c in report.cells[1:]) == [1, 2]

    def test_serial_path_still_propagates(self):
        with pytest.raises(RuntimeError, match="poison cell"):
            Runner(workers=1, cache=False).run([self._fragile(mode="raise")])


class TestWarmPoolAndChunkSplitting:
    def test_single_topology_chunk_fans_out(self):
        """Regression: a 1-topology x N-cells grid must not serialize on one
        worker — oversized chunks split into contiguous slices."""
        def build():
            grid = Grid(PROBE, common={"value": 7, "draws": 2}, chunk="value")
            grid.cross(seed=list(range(8)))
            return grid

        serial = run_grid(build(), workers=1, cache=False)
        assert serial.chunks == 1
        parallel = run_grid(build(), workers=2, cache=False)
        assert parallel.chunks >= 2
        assert parallel.values() == serial.values()

    def test_split_preserves_cell_order(self):
        grid = Grid(PROBE, common={"value": 0}, chunk="value")
        grid.cross(seed=list(range(5)))
        report = run_grid(grid, workers=2, cache=False)
        assert [c.scenario.params["seed"] for c in report.cells] == list(range(5))

    def test_pool_persists_across_runs_and_close(self):
        cells = [Scenario(PROBE, {"value": i}) for i in range(3)]
        with Runner(workers=2, cache=False) as runner:
            runner.run(cells)
            pool = runner._pool
            assert pool is not None
            runner.run(cells)
            assert runner._pool is pool  # same executor, no respawn
        assert runner._pool is None  # close() tore it down

    def test_pool_started_after_parent_routed_matches_serial(self, hx2mesh_4x4):
        """A pool started once the parent has routed (its workers inherit
        the parent's tables under fork) returns what a serial run does."""
        from repro.exp.cells import maxmin_permutation_cell
        from repro.sim import FlowSimulator, clear_route_tables, random_permutation

        clear_route_tables()
        sim = FlowSimulator(hx2mesh_4x4, max_paths=8)
        sim.maxmin_rates(random_permutation(hx2mesh_4x4.num_accelerators, seed=1))
        cells = [
            Scenario(kernel_ref(maxmin_permutation_cell), dict(a=2, b=2, x=4, y=4, seed=s))
            for s in range(4)
        ]
        serial = Runner(workers=1, cache=False).run(cells)
        with Runner(workers=2, cache=False) as runner:
            report = runner.run(cells)
        assert report.chunks >= 2
        assert report.values() == serial.values()
        clear_route_tables()


class TestCliDiff:
    def test_missing_artifact_fails_with_one_line(self, tmp_path, monkeypatch, capsys):
        from repro.exp import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the artifact was checked")

        monkeypatch.setattr(cli, "run_sweeps", no_sweep)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["diff", "profiles", "--no-cache"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert "benchmarks/artifacts/BENCH_network_profiles.json does not exist" in err

        missing = tmp_path / "BENCH_nowhere.json"
        assert cli.main(["diff", "fig7", "--no-cache", "--against", str(missing)]) == 2
        assert f"{missing} does not exist" in capsys.readouterr().err


class TestCliBadInput:
    """Bad sweep names, artifacts and worker counts stop the CLI with one
    ``error:`` line and exit status 2, before any sweep runs."""

    @pytest.fixture(autouse=True)
    def _no_sweep(self, monkeypatch):
        from repro.exp import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran on bad input")

        monkeypatch.setattr(cli, "run_sweeps", no_sweep)
        return cli

    def _fails(self, cli, capsys, argv, message):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("command", ["run", "diff"])
    def test_unknown_sweep(self, _no_sweep, capsys, command):
        self._fails(_no_sweep, capsys, [command, "nosuch", "--no-cache"], "unknown sweep 'nosuch'")

    def test_unknown_sweep_among_known_ones(self, _no_sweep, capsys):
        self._fails(_no_sweep, capsys, ["run", "fig7", "nosuch"], "unknown sweep 'nosuch'")

    def test_against_file_that_is_not_json(self, _no_sweep, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        self._fails(_no_sweep, capsys, ["diff", "fig7", "--no-cache", "--against", str(bad)],
                    f"{bad} is not a JSON artifact")

    @pytest.mark.parametrize("content", ['{"x": 1}', "[1, 2]"])
    def test_against_json_without_result(self, _no_sweep, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        self._fails(_no_sweep, capsys, ["diff", "fig7", "--no-cache", "--against", str(bad)],
                    "has no 'result' entry")

    @pytest.mark.parametrize("command", [["run", "fig7"], ["diff", "fig7"]])
    @pytest.mark.parametrize("workers", ["-3", "-1", "two"])
    def test_bad_worker_count_is_one_argparse_error(self, _no_sweep, capsys, command, workers):
        with pytest.raises(SystemExit) as exit_info:
            _no_sweep.main(command + ["--workers", workers])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"python -m repro.exp {command[0]}: error: argument --workers: "
            f"must be an integer >= 0 (0: one per CPU), got '{workers}'"
        ]

    def test_zero_workers_means_one_per_cpu(self, _no_sweep, capsys):
        assert _no_sweep.build_parser().parse_args(["run", "fig7", "--workers", "0"]).workers == 0
        with pytest.raises(SystemExit):
            _no_sweep.main(["run", "--help"])
        assert "0 means one per CPU" in " ".join(capsys.readouterr().out.split())


class TestCliRouteBudget:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budget_error_prints_one_line_and_exits_2(self, workers):
        """A mem_budget too small for the sweep stops the run with one
        line, also when its cells run on a worker pool."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.exp", "run", "scaleout_permutation",
                "--workers", workers, "--no-cache",
                "--set", "x=4", "--set", "y=4", "--set", 'mem_budget="4K"',
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: RouteTable(4x4-Hx2Mesh")
        assert lines[0].endswith("above its mem_budget of 4096 bytes")


class TestRecordingKnobs:
    @pytest.mark.parametrize("value", ["abc", "0"])
    @pytest.mark.parametrize("knob", ["REPRO_BENCH_FLOAT_DIGITS", "REPRO_BENCH_MAX_SERIES"])
    def test_malformed_knob_fails_the_import_with_one_line(self, knob, value):
        env = dict(os.environ, **{knob: value})
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.exp"], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"{knob} must be an integer >= 1, got {value!r}"]

    def test_knobs_parse_valid_values(self, monkeypatch):
        from repro._knobs import number_knob

        monkeypatch.setenv("REPRO_BENCH_MAX_SERIES", " 12 ")
        assert number_knob("REPRO_BENCH_MAX_SERIES", 256) == 12
        monkeypatch.delenv("REPRO_BENCH_MAX_SERIES")
        assert number_knob("REPRO_BENCH_MAX_SERIES", 256) == 256


class TestSwitchKnobs:
    @pytest.mark.parametrize("knob", ["REPRO_OBS", "REPRO_EXP_TRACE_MEMORY"])
    @pytest.mark.parametrize(
        "value,on", [("", False), ("0", False), (" False ", False), ("1", True), ("TRUE", True)]
    )
    def test_switches_accept_the_documented_values(self, knob, value, on, monkeypatch):
        from repro._knobs import switch_knob

        monkeypatch.setenv(knob, value)
        assert switch_knob(knob) is on

    @pytest.mark.parametrize("value", ["yes", "2", "on"])
    def test_malformed_obs_switch_fails_the_import_with_one_line(self, value):
        env = dict(os.environ, REPRO_OBS=value)
        proc = subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"REPRO_OBS must be empty, 0, 1, false or true, got {value!r}"
        ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_malformed_trace_memory_switch_fails_the_cli_with_one_line(self, workers):
        env = dict(os.environ, REPRO_EXP_TRACE_MEMORY="yes")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.exp", "run", "fig7", "--no-cache", "--workers", workers],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "REPRO_EXP_TRACE_MEMORY must be empty, 0, 1, false or true, got 'yes'"
        ]


class TestRunnerKnobs:
    @pytest.mark.parametrize(
        "knob,flags,noun",
        [
            ("REPRO_EXP_WORKERS", [], "an integer >= 1"),
            ("REPRO_EXP_CELL_TIMEOUT", ["--workers", "1"], "a number > 0"),
        ],
    )
    def test_malformed_knob_fails_the_cli_with_one_line(self, knob, flags, noun):
        env = dict(os.environ, **{knob: "abc"})
        proc = subprocess.run(
            [sys.executable, "-m", "repro.exp", "run", "fig7", "--no-cache", *flags],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"{knob} must be {noun}, got 'abc'"]

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "nan"])
    def test_workers_knob_rejects_non_positive_integers(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_WORKERS", value)
        message = f"REPRO_EXP_WORKERS must be an integer >= 1, got '{value}'"
        with pytest.raises(SystemExit, match=message):
            Runner(cache=False)

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "-inf"])
    def test_cell_timeout_knob_rejects_non_positive_seconds(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_CELL_TIMEOUT", value)
        message = f"REPRO_EXP_CELL_TIMEOUT must be a number > 0, got '{value}'"
        with pytest.raises(SystemExit, match=message):
            Runner(workers=1, cache=False)

    def test_knobs_parse_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_WORKERS", " 3 ")
        monkeypatch.setenv("REPRO_EXP_CELL_TIMEOUT", "2.5")
        runner = Runner(cache=False)
        assert (runner.workers, runner.cell_timeout) == (3, 2.5)
        monkeypatch.delenv("REPRO_EXP_WORKERS")
        monkeypatch.delenv("REPRO_EXP_CELL_TIMEOUT")
        runner = Runner(cache=False)
        assert (runner.workers, runner.cell_timeout) == (1, None)
