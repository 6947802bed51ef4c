"""Tests for warm-started delta solves and the annealing adversary search."""

import numpy as np
import pytest

import repro.obs as obs
from repro.sim import (
    Flow,
    FlowSimulator,
    adversarial_permutation,
    anneal_adversary,
    random_permutation,
    swap_destinations,
    worst_receive_fraction,
)
from repro.sim.routing import parse_mem_budget

PARITY = 1e-12


def _max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if len(a) else 0.0


def _random_moves(rng, flows, p, count):
    """A mixed sequence of perturbations: swap, retarget, demand, add, remove."""
    seq = []
    cur = list(flows)
    for _ in range(count):
        kinds = ["swap", "retarget", "demand"]
        if len(cur) < p:
            kinds.append("add")
        if len(cur) > 2:
            kinds.append("remove")
        kind = kinds[rng.integers(len(kinds))]
        if kind == "swap":
            for _ in range(32):
                i, j = (int(v) for v in rng.choice(len(cur), size=2, replace=False))
                if cur[i].src != cur[j].dst and cur[j].src != cur[i].dst:
                    cur = swap_destinations(cur, i, j)
                    break
        elif kind == "retarget":
            i = int(rng.integers(len(cur)))
            dst = int(rng.integers(p))
            if dst == cur[i].src:
                dst = (dst + 1) % p
            cur = list(cur)
            cur[i] = Flow(cur[i].src, dst, demand=cur[i].demand)
        elif kind == "demand":
            i = int(rng.integers(len(cur)))
            cur = list(cur)
            cur[i] = Flow(cur[i].src, cur[i].dst, demand=float(rng.uniform(0.5, 2.0)))
        elif kind == "add":
            src = int(rng.integers(p))
            dst = int(rng.integers(p))
            if dst == src:
                dst = (dst + 1) % p
            cur = list(cur) + [Flow(src, dst)]
        else:
            cur = list(cur)[:-1]
        seq.append(cur)
    return seq


def _solve_one(sim, state, flows, changed=None):
    """One candidate through the batched delta engine (a batch of one)."""
    [ds] = sim.maxmin_rates_delta_batch(
        state, [flows], changed=None if changed is None else [changed]
    )
    return ds


class TestDeltaParity:
    @pytest.mark.parametrize("policy", ["minimal", "ecmp"])
    def test_randomized_move_sequences_all_families(
        self, all_small_topologies, policy
    ):
        """Delta solves match a fresh cold solve after every move; the
        state advances by a cold solve of each move, as the search does."""
        warm_total = 0
        for name, topo in all_small_topologies.items():
            sim = FlowSimulator(topo, policy=policy, assign_cache=0)
            p = topo.num_accelerators
            rng = np.random.default_rng(7)
            flows = random_permutation(p, seed=3)
            state = sim.maxmin_warm_state(flows)
            assert _max_diff(
                state.result.flow_rates, sim.maxmin_rates(flows).flow_rates
            ) <= PARITY
            for cand in _random_moves(rng, flows, p, 8):
                ds = _solve_one(sim, state, cand)
                cold = sim.maxmin_rates(cand)
                assert _max_diff(ds.result.flow_rates, cold.flow_rates) <= PARITY, (
                    name,
                    policy,
                )
                warm_total += int(ds.warm)
                state = sim.maxmin_warm_state(cand)
                assert np.array_equal(state.result.flow_rates, cold.flow_rates)
        # The warm path must actually be exercised somewhere in the sweep.
        assert warm_total > 0

    def test_swap_and_changed_hint_parity(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = adversarial_permutation(hx2mesh_4x4)
        state = sim.maxmin_warm_state(flows)
        cand = swap_destinations(flows, 0, 1)
        hinted = _solve_one(sim, state, cand, changed=(0, 1))
        diffed = _solve_one(sim, state, cand)
        cold = sim.maxmin_rates(cand)
        assert _max_diff(hinted.result.flow_rates, cold.flow_rates) <= PARITY
        assert _max_diff(diffed.result.flow_rates, cold.flow_rates) <= PARITY

    def test_identity_delta_is_free(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64, assign_cache=0)
        flows = random_permutation(fat_tree_64.num_accelerators, seed=1)
        state = sim.maxmin_warm_state(flows)
        ds = _solve_one(sim, state, flows)
        assert ds.warm and ds.changed == 0
        assert ds.result is state.result

    def test_forced_fallback_is_exact(self, hx2mesh_4x4):
        """A corrupted warm state fails verification but the rates stay exact."""
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=4)
        state = sim.maxmin_warm_state(flows)
        # Inflate the recorded link loads: every candidate the warm path
        # builds on this state looks infeasible, so verification must reject
        # it no matter how far the active set expands.
        state.used += 1.0 + state.used.max()
        cand = swap_destinations(flows, 0, 3)
        before = obs.snapshot()["counters"]["flowsim.delta_fallbacks"]
        ds = _solve_one(sim, state, cand)
        after = obs.snapshot()["counters"]["flowsim.delta_fallbacks"]
        assert not ds.warm
        assert after == before + 1
        assert _max_diff(
            ds.result.flow_rates, sim.maxmin_rates(cand).flow_rates
        ) <= PARITY

    def test_ugal_always_falls_back(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, policy="ugal", assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=5)
        state = sim.maxmin_warm_state(flows)
        cand = swap_destinations(flows, 2, 9)
        ds = _solve_one(sim, state, cand)
        assert not ds.warm
        assert _max_diff(
            ds.result.flow_rates, sim.maxmin_rates(cand).flow_rates
        ) <= PARITY

    def test_rejects_self_send_in_changed(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=6)
        state = sim.maxmin_warm_state(flows)
        bad = list(flows)
        bad[0] = Flow(bad[0].src, bad[0].src)
        with pytest.raises(ValueError):
            _solve_one(sim, state, bad)

    def test_changed_index_out_of_range(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=6)
        state = sim.maxmin_warm_state(flows)
        with pytest.raises(ValueError):
            _solve_one(sim, state, flows, changed=[len(flows)])


class TestDeltaBatch:
    @pytest.mark.parametrize("policy", ["minimal", "ecmp", "valiant"])
    def test_batch_matches_cold_per_candidate(self, all_small_topologies, policy):
        for name, topo in all_small_topologies.items():
            sim = FlowSimulator(topo, policy=policy, assign_cache=0)
            p = topo.num_accelerators
            flows = adversarial_permutation(topo)
            if len(flows) < 4:
                flows = random_permutation(p, seed=8)
            state = sim.maxmin_warm_state(flows)
            rng = np.random.default_rng(11)
            moves, cands = [], []
            while len(moves) < 6:
                i, j = (int(v) for v in rng.choice(len(flows), size=2, replace=False))
                if flows[i].src != flows[j].dst and flows[j].src != flows[i].dst:
                    moves.append((i, j))
                    cands.append(swap_destinations(flows, i, j))
            solves = sim.maxmin_rates_delta_batch(state, cands, changed=moves)
            assert len(solves) == len(cands)
            for cand, ds in zip(cands, solves):
                cold = sim.maxmin_rates(cand)
                assert _max_diff(ds.result.flow_rates, cold.flow_rates) <= PARITY, (
                    name,
                    policy,
                )

    def test_empty_batch(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=9)
        state = sim.maxmin_warm_state(flows)
        assert sim.maxmin_rates_delta_batch(state, []) == []

    def test_batch_rejects_self_send(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=9)
        state = sim.maxmin_warm_state(flows)
        bad = list(flows)
        bad[3] = Flow(bad[3].src, bad[3].src)
        with pytest.raises(ValueError):
            sim.maxmin_rates_delta_batch(state, [bad], changed=[(3,)])


class TestAssignCacheKnob:
    def test_constructor_knob(self, hx2mesh_4x4):
        assert FlowSimulator(hx2mesh_4x4, assign_cache=0).assign_cache == 0
        assert FlowSimulator(hx2mesh_4x4, assign_cache=7).assign_cache == 7
        with pytest.raises(ValueError):
            FlowSimulator(hx2mesh_4x4, assign_cache=-1)

    def test_env_knob(self, hx2mesh_4x4, monkeypatch):
        monkeypatch.setenv("REPRO_ASSIGN_CACHE", "3")
        assert FlowSimulator(hx2mesh_4x4).assign_cache == 3
        monkeypatch.setenv("REPRO_ASSIGN_CACHE", "0")
        assert FlowSimulator(hx2mesh_4x4).assign_cache == 0
        for bad in ("zero", "-2", "1.5"):
            monkeypatch.setenv("REPRO_ASSIGN_CACHE", bad)
            message = f"REPRO_ASSIGN_CACHE must be an integer >= 0, got '{bad}'"
            with pytest.raises(SystemExit, match=message):
                FlowSimulator(hx2mesh_4x4)

    def test_disabled_cache_never_hits(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=10)
        before = obs.snapshot()["counters"]["flowsim.assignment_cache_hits"]
        sim.maxmin_rates(flows)
        sim.maxmin_rates(flows)
        after = obs.snapshot()["counters"]["flowsim.assignment_cache_hits"]
        assert after == before
        assert len(sim._assignments) == 0

    def test_cache_hit_counted(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=10)
        sim.maxmin_rates(flows)
        before = obs.snapshot()["counters"]["flowsim.assignment_cache_hits"]
        sim.maxmin_rates(flows)
        after = obs.snapshot()["counters"]["flowsim.assignment_cache_hits"]
        assert after == before + 1


class TestParseMemBudget:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("256m", 256 * 1024**2),
            ("4g", 4 * 1024**3),
            ("1k", 1024),
            ("2T", 2 * 1024**4),
            ("512", 512),
        ],
    )
    def test_lowercase_suffixes(self, raw, expected):
        assert parse_mem_budget(raw) == expected

    @pytest.mark.parametrize("raw", [0, -1, "0", "-4G", "0M", -0.5])
    def test_nonpositive_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_mem_budget(raw)

    def test_none_and_empty_mean_unbounded(self):
        assert parse_mem_budget(None) is None
        assert parse_mem_budget("") is None


class TestSwapDestinations:
    def test_swaps_without_mutating(self):
        flows = [Flow(0, 1), Flow(2, 3, demand=2.0)]
        out = swap_destinations(flows, 0, 1)
        assert (out[0].src, out[0].dst) == (0, 3)
        assert (out[1].src, out[1].dst) == (2, 1)
        assert out[1].demand == 2.0
        assert (flows[0].dst, flows[1].dst) == (1, 3)

    def test_rejects_same_index(self):
        with pytest.raises(ValueError):
            swap_destinations([Flow(0, 1), Flow(1, 0)], 1, 1)

    @pytest.mark.parametrize("i, j, bad", [(63, -1, -1), (0, 64, 64), (-65, 3, -65)])
    def test_rejects_out_of_range_index(self, i, j, bad):
        flows = random_permutation(64, seed=0)
        with pytest.raises(ValueError, match=rf"index {bad} is outside \[0, 64\)"):
            swap_destinations(flows, i, j)


class TestAnnealAdversary:
    def test_searched_at_least_matches_seed(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        res = anneal_adversary(sim, steps=24, batch=8, seed=0)
        assert res.best_objective <= res.seed_objective + PARITY
        assert res.steps >= 24
        assert res.warm_evals + res.cold_evals == res.steps

    def test_deterministic(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        a = anneal_adversary(sim, steps=16, batch=4, seed=42)
        b = anneal_adversary(sim, steps=16, batch=4, seed=42)
        assert a.best_objective == b.best_objective
        assert a.accepted == b.accepted
        assert [(f.src, f.dst) for f in a.best_flows] == [
            (f.src, f.dst) for f in b.best_flows
        ]

    def test_zero_steps_returns_seed(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        flows = adversarial_permutation(hx2mesh_4x4)
        res = anneal_adversary(sim, flows, steps=0)
        assert res.steps == 0 and res.accepted == 0
        assert res.best_objective == res.seed_objective
        assert [(f.src, f.dst) for f in res.best_flows] == [
            (f.src, f.dst) for f in flows
        ]

    def test_best_objective_is_reachable(self, hx2mesh_4x4):
        """The reported best objective re-solves to the same number cold."""
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        res = anneal_adversary(sim, steps=16, batch=4, seed=1)
        rates = sim.maxmin_rates(res.best_flows).flow_rates
        obj = worst_receive_fraction(hx2mesh_4x4, res.best_flows, rates)
        assert obj == pytest.approx(res.best_objective, abs=PARITY)

    def test_parameter_validation(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        with pytest.raises(ValueError):
            anneal_adversary(sim, steps=-1)
        with pytest.raises(ValueError):
            anneal_adversary(sim, steps=4, batch=0)
        with pytest.raises(ValueError):
            anneal_adversary(sim, steps=4, t_initial=0.01, t_final=0.02)

    def test_search_counters_move(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, assign_cache=0)
        before = obs.snapshot()["counters"]["search.steps"]
        anneal_adversary(sim, steps=8, batch=4, seed=2)
        after = obs.snapshot()["counters"]["search.steps"]
        assert after >= before + 8
