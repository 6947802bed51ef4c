"""Tests for the pluggable routing-policy layer (`repro.sim.policy`).

Covers: the policy registry, bit-identical minimal-policy parity on every
topology family, candidate-set structure of ECMP / Valiant / UGAL, the
adversarial traffic generator, policy threading through route tables,
both simulators, the backends and the experiment engine, and the
route-cache invalidation semantics of ``clear_route_tables``.
"""

import numpy as np
import pytest

from repro.sim import (
    EcmpPolicy,
    FlowSimulator,
    MinimalPolicy,
    PacketNetwork,
    PacketSimConfig,
    RouteTable,
    RoutingPolicy,
    UgalPolicy,
    ValiantPolicy,
    adversarial_permutation,
    available_policies,
    clear_route_tables,
    get_backend,
    get_policy,
    path_provider_for,
    random_permutation,
    route_table_for,
    valiant_paths,
)
from repro.sim.faults import DegradedPathProvider, FaultSet
from route_oracles import SurvivingPaths, pair_routes, route_block


def check_path(topo, src, dst, path):
    node = src
    for li in path:
        link = topo.link(li)
        assert link.src == node
        node = link.dst
    assert node == dst


def sample_pairs(topo, num=20, seed=0):
    rng = np.random.default_rng(seed)
    accs = list(topo.accelerators)
    pairs = []
    for _ in range(num):
        s, d = rng.choice(len(accs), size=2, replace=False)
        pairs.append((accs[int(s)], accs[int(d)]))
    return pairs


class TestPolicyRegistry:
    def test_registered_policies(self):
        assert available_policies() == ["ecmp", "minimal", "ugal", "valiant"]

    def test_get_policy_resolution(self):
        assert isinstance(get_policy(None), MinimalPolicy)
        assert isinstance(get_policy("minimal"), MinimalPolicy)
        assert isinstance(get_policy("ecmp"), EcmpPolicy)
        assert isinstance(get_policy("valiant"), ValiantPolicy)
        assert isinstance(get_policy("ugal"), UgalPolicy)
        instance = ValiantPolicy(seed=7)
        assert get_policy(instance) is instance

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            get_policy("bogus")

    def test_cache_keys_distinguish_parameterizations(self):
        assert ValiantPolicy(seed=0).cache_key() != ValiantPolicy(seed=1).cache_key()
        assert MinimalPolicy().cache_key() == get_policy(None).cache_key()
        assert UgalPolicy().selects_group and not ValiantPolicy().selects_group


class TestMinimalParity:
    def test_minimal_policy_table_matches_provider_on_all_families(
        self, all_small_topologies
    ):
        """policy="minimal" serves exactly the provider's paths with 1/k
        weights — the pre-policy behaviour, bit for bit."""
        for family, topo in all_small_topologies.items():
            provider = path_provider_for(topo)
            table = RouteTable(topo, max_paths=4, policy="minimal")
            for s, d in sample_pairs(topo, num=15, seed=3):
                expected = provider.paths(s, d, max_paths=4)
                assert table.paths(s, d) == expected, family
                weights = table.pair_weights(s, d)
                assert weights == [1.0 / len(expected)] * len(expected)

    def test_minimal_policy_rates_bit_identical_on_all_families(
        self, all_small_topologies
    ):
        for family, topo in all_small_topologies.items():
            flows = random_permutation(topo.num_accelerators, seed=5)
            default = FlowSimulator(topo, max_paths=4).maxmin_rates(flows).flow_rates
            minimal = (
                FlowSimulator(topo, max_paths=4, policy="minimal")
                .maxmin_rates(flows)
                .flow_rates
            )
            np.testing.assert_array_equal(default, minimal, err_msg=family)

    def test_default_table_is_the_minimal_policy_table(self, hx2mesh_4x4):
        clear_route_tables()
        assert route_table_for(hx2mesh_4x4, max_paths=4) is route_table_for(
            hx2mesh_4x4, max_paths=4, policy="minimal"
        )


class TestCandidateStructure:
    def test_ecmp_single_minimal_path(self, all_small_topologies):
        for family, topo in all_small_topologies.items():
            provider = path_provider_for(topo)
            table = RouteTable(topo, max_paths=4, policy="ecmp")
            for s, d in sample_pairs(topo, num=10, seed=1):
                paths = table.paths(s, d)
                assert len(paths) == 1, family
                assert paths[0] in provider.paths(s, d, max_paths=4)
                assert table.pair_weights(s, d) == [1.0]

    def test_valiant_paths_are_valid_nonminimal_detours(self, all_small_topologies):
        for family, topo in all_small_topologies.items():
            provider = path_provider_for(topo)
            for s, d in sample_pairs(topo, num=8, seed=2):
                minimal_len = min(
                    len(p) for p in provider.paths(s, d, max_paths=4)
                )
                detours = valiant_paths(provider, s, d, max_paths=4, seed=0)
                assert detours, family
                for path in detours:
                    check_path(topo, s, d, path)
                    assert len(path) >= minimal_len, family

    def test_valiant_deterministic_per_seed(self, hx2mesh_4x4):
        provider = path_provider_for(hx2mesh_4x4)
        s, d = sample_pairs(hx2mesh_4x4, num=1, seed=9)[0]
        assert valiant_paths(provider, s, d, seed=3) == valiant_paths(
            provider, s, d, seed=3
        )

    def test_ugal_stores_minimal_prefix_plus_alternates(self, hx2mesh_4x4):
        provider = path_provider_for(hx2mesh_4x4)
        table = RouteTable(hx2mesh_4x4, max_paths=8, policy="ugal")
        for s, d in sample_pairs(hx2mesh_4x4, num=10, seed=4):
            paths = table.paths(s, d)
            assert len(paths) <= 8
            first, count = table.pair_slice(s, d)
            nmin = int(
                table.pair_minimal_counts(np.array([s]), np.array([d]))[0]
            )
            assert 1 <= nmin <= (8 + 1) // 2
            minimal = provider.paths(s, d, max_paths=(8 + 1) // 2)
            assert paths[:nmin] == minimal
            weights = table.pair_weights(s, d)
            assert weights[:nmin] == [1.0 / nmin] * nmin
            assert all(w == 0.0 for w in weights[nmin:])
            for path in paths:
                check_path(hx2mesh_4x4, s, d, path)

    @pytest.mark.parametrize("policy", ["minimal", "ecmp", "valiant", "ugal"])
    def test_route_blocks_equal_pairs_one_at_a_time(self, all_small_topologies, policy):
        """A policy's block of pairs equals its scalar per-pair routes
        (``route_oracles.pair_routes``), also under faults, where detours
        through a dead intermediate raise inside a block and the oracle
        filters the dead links one pair at a time."""
        hx = all_small_topologies["hammingmesh"]
        providers = [path_provider_for(topo) for topo in all_small_topologies.values()]
        providers.append(DegradedPathProvider(hx, FaultSet.from_boards(hx, [(0, 1)])))
        pol = get_policy(policy)
        for provider in providers:
            pairs = sample_pairs(provider.topo, num=12, seed=5)
            pairs += [pairs[0], (pairs[1][0], pairs[1][0])]
            if isinstance(provider, DegradedPathProvider):
                pairs = [(s, d) for s, d in pairs if provider.connected(s, d)]
            src, dst = (np.array(side) for side in zip(*pairs))
            for max_paths in (1, 3, 4):
                got = pol.routes_block(provider, src, dst, max_paths)
                scalar = (
                    SurvivingPaths(provider)
                    if isinstance(provider, DegradedPathProvider) else provider
                )
                want = route_block(
                    [pair_routes(pol, scalar, s, d, max_paths) for s, d in pairs]
                )
                for field in ("counts", "num_minimal", "lengths", "links", "weights"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_tables_memoized_per_policy(self, hx2mesh_4x4):
        clear_route_tables()
        minimal = route_table_for(hx2mesh_4x4, max_paths=4)
        valiant = route_table_for(hx2mesh_4x4, max_paths=4, policy="valiant")
        assert minimal is not valiant
        assert route_table_for(hx2mesh_4x4, max_paths=4, policy="valiant") is valiant
        assert (
            route_table_for(hx2mesh_4x4, max_paths=4, policy=ValiantPolicy(seed=9))
            is not valiant
        )


class TestAdversarialTraffic:
    def test_valid_on_every_family(self, all_small_topologies):
        for family, topo in all_small_topologies.items():
            flows = adversarial_permutation(topo)
            assert flows, family
            assert all(f.src != f.dst for f in flows)
            # a (possibly partial) permutation: distinct sources and sinks
            assert len({f.src for f in flows}) == len(flows)
            assert len({f.dst for f in flows}) == len(flows)
            ranks = range(topo.num_accelerators)
            assert all(f.src in ranks and f.dst in ranks for f in flows)

    def test_hammingmesh_adversary_is_a_hot_row_job(self, hx2mesh_4x4):
        coord_of = hx2mesh_4x4.meta["coord_of"]
        accs = list(hx2mesh_4x4.accelerators)
        flows = adversarial_permutation(hx2mesh_4x4)
        # partial: only global row 0 participates, shifted along the row
        assert len(flows) < hx2mesh_4x4.num_accelerators
        for f in flows:
            sgr, sgc, sbr, sbc = coord_of[accs[f.src]]
            dgr, dgc, dbr, dbc = coord_of[accs[f.dst]]
            assert sgr == dgr == 0
            assert sgc != dgc
            assert (sbr, sbc) == (dbr, dbc)


class TestPolicySimulation:
    def test_ugal_beats_minimal_on_tapered_hxmesh_adversary(self):
        """The acceptance-criterion scenario: adversarial permutation
        traffic on a tapered HxMesh, where UGAL's congestion-aware
        detours recover the bandwidth minimal routing cannot reach."""
        from repro.analysis.figures import _routing_policy_topo

        topo = _routing_policy_topo("hx4mesh_tapered")
        adv = adversarial_permutation(topo)
        dsts = np.array([f.dst for f in adv])

        def worst(policy):
            model = get_backend("flow", topo, max_paths=8, policy=policy)
            return float(model.permutation_sample(adv)[dsts].min())

        assert worst("ugal") >= 1.5 * worst("minimal")

    def test_valiant_beats_minimal_on_classic_adversaries(
        self, torus_4x4_boards, hyperx_4x4
    ):
        for topo in (torus_4x4_boards, hyperx_4x4):
            adv = adversarial_permutation(topo)
            dsts = np.array([f.dst for f in adv])
            rates = {}
            for pol in ("minimal", "valiant", "ugal"):
                model = get_backend("flow", topo, max_paths=8, policy=pol)
                rates[pol] = float(model.permutation_sample(adv)[dsts].min())
            assert rates["valiant"] > rates["minimal"], topo.name
            assert rates["ugal"] >= rates["minimal"], topo.name

    def test_ugal_stays_minimal_when_uncongested(self):
        """A single flow cannot congest anything: UGAL must route it
        exactly like the minimal policy on every study topology (its own
        load must not read as congestion — no gratuitous misrouting)."""
        from repro.analysis.figures import _routing_policy_topo
        from repro.sim.traffic import Flow

        for key in ("hx2mesh", "hx4mesh_tapered", "torus", "hyperx", "dragonfly"):
            topo = _routing_policy_topo(key)
            flows = [Flow(0, topo.num_accelerators - 1)]
            minimal = FlowSimulator(topo, max_paths=8, policy="minimal")
            ugal = FlowSimulator(topo, max_paths=8, policy="ugal")
            asg_ugal = ugal.assign(flows)
            # only the minimal group is selected (UGAL stores it first)
            nmin = ugal.table.pair_minimal_counts(
                np.array([topo.accelerators[0]]),
                np.array([topo.accelerators[-1]]),
            )
            assert asg_ugal.num_subflows == int(nmin[0]), key
            r_min = minimal.maxmin_rates(flows).flow_rates
            r_ugal = ugal.maxmin_rates(flows).flow_rates
            np.testing.assert_allclose(r_ugal, r_min, rtol=1e-12, err_msg=key)

    def test_explicit_table_policy_conflict_raises(self, hx2mesh_4x4):
        table = RouteTable(hx2mesh_4x4, max_paths=4, policy="valiant")
        with pytest.raises(ValueError, match="different routing policy"):
            FlowSimulator(hx2mesh_4x4, table=table, policy="minimal")
        # matching policy is fine
        sim = FlowSimulator(hx2mesh_4x4, table=table, policy="valiant")
        assert sim.policy.name == "valiant"

    def test_packet_simulator_candidates_follow_policy(self, hx2mesh_4x4):
        clear_route_tables()
        accs = list(hx2mesh_4x4.accelerators)
        s, d = accs[0], accs[37]
        provider = path_provider_for(hx2mesh_4x4)
        minimal_set = {
            tuple(p) for p in provider.paths(s, d, max_paths=4)
        }
        ecmp_net = PacketNetwork(
            hx2mesh_4x4, config=PacketSimConfig(max_paths=4, policy="ecmp")
        )
        ecmp_paths = ecmp_net.table.pair_path_lists(s, d, max_paths=4)
        assert len(ecmp_paths) == 1 and tuple(ecmp_paths[0]) in minimal_set
        valiant_net = PacketNetwork(
            hx2mesh_4x4, config=PacketSimConfig(max_paths=4, policy="valiant")
        )
        for path in valiant_net.table.pair_path_lists(s, d, max_paths=4):
            check_path(hx2mesh_4x4, s, d, path)
        assert valiant_net.table is not ecmp_net.table

    @pytest.mark.parametrize("policy", ["minimal", "ecmp", "valiant", "ugal"])
    def test_packet_runs_complete_under_every_policy(self, hx2mesh_4x4, policy):
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=2)[:16]
        net = PacketNetwork(
            hx2mesh_4x4, config=PacketSimConfig(max_paths=4, policy=policy)
        )
        net.send_flows(flows, 4096)
        result = net.run()
        assert result.all_finished
        assert all(m.observed_bandwidth() > 0 for m in result.messages)


class TestBackendsAndEngine:
    def test_backends_accept_policy_by_name(self, hx2mesh_4x4):
        flow = get_backend("flow", hx2mesh_4x4, max_paths=4, policy="valiant")
        assert flow.policy.name == "valiant"
        packet = get_backend("packet", hx2mesh_4x4, max_paths=4, policy="ugal")
        assert packet.policy.name == "ugal"
        assert packet.config.policy == "ugal"
        analytic = get_backend("analytic", hx2mesh_4x4, policy="valiant")
        assert analytic.policy.name == "valiant"
        with pytest.raises(ValueError, match="unknown routing policy"):
            get_backend("flow", hx2mesh_4x4, policy="bogus")

    def test_measurements_thread_policy(self, hx2mesh_4x4):
        from repro.analysis import measure_permutation_fractions

        minimal = measure_permutation_fractions(
            hx2mesh_4x4, num_permutations=1, max_paths=4, seed=3, policy="minimal"
        )
        default = measure_permutation_fractions(
            hx2mesh_4x4, num_permutations=1, max_paths=4, seed=3
        )
        np.testing.assert_array_equal(minimal, default)
        ecmp = measure_permutation_fractions(
            hx2mesh_4x4, num_permutations=1, max_paths=4, seed=3, policy="ecmp"
        )
        assert float(ecmp.mean()) <= float(minimal.mean())

    def test_policy_enters_scenario_content_hash(self):
        from repro.analysis.figures import routing_policy_cell
        from repro.exp import Scenario
        from repro.exp.scenario import kernel_ref

        ref = kernel_ref(routing_policy_cell)
        a = Scenario(ref, {"topo_key": "hx2mesh", "policy": "minimal"})
        b = Scenario(ref, {"topo_key": "hx2mesh", "policy": "ugal"})
        assert a.content_hash() != b.content_hash()

    def test_routing_policy_sweep_registered(self):
        from repro.exp.registry import get_sweep

        spec = get_sweep("routing_policy_sweep")
        assert spec.artifact == "routing_policies"
        assert spec.accepts("policies") and spec.accepts("topo_keys")

    def test_routing_policy_sweep_smoke(self):
        from repro.analysis import routing_policy_sweep

        data = routing_policy_sweep(
            topo_keys=("hx2mesh",), policies=("minimal", "ugal"), num_random=1
        )
        entry = data["hx2mesh"]
        assert set(entry) == {"minimal", "ugal"}
        # the untapered Hx2Mesh's single-switch trees are non-blocking, so
        # the tornado congests nothing and UGAL must match minimal exactly
        assert entry["ugal"]["adversarial_worst"] == pytest.approx(
            entry["minimal"]["adversarial_worst"], rel=1e-9
        )


class TestCacheInvalidation:
    def test_clear_route_tables_clears_assignment_lru(self, hx2mesh_4x4):
        """Regression: a policy/table reset must not serve stale routes out
        of the FlowAssignment LRU or the memoized pair_path_lists."""
        clear_route_tables()
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=6)
        asg = sim.assign(flows)
        assert sim.assign(flows) is asg  # LRU serves the repeat
        accs = list(hx2mesh_4x4.accelerators)
        lists = sim.table.pair_path_lists(accs[0], accs[5])
        assert sim.table.pair_path_lists(accs[0], accs[5]) is lists

        clear_route_tables()
        # the simulator's LRU is gone ...
        assert len(sim._assignments) == 0
        fresh = sim.assign(flows)
        assert fresh is not asg
        # ... and so is the table's materialized path-list memo
        assert sim.table.pair_path_lists(accs[0], accs[5]) is not lists
        # a new simulator gets a brand-new table
        assert FlowSimulator(hx2mesh_4x4, max_paths=4).table is not sim.table

    def test_clear_route_tables_clears_packet_scoring_state(self, hx2mesh_4x4):
        net = PacketNetwork(hx2mesh_4x4, config=PacketSimConfig(max_paths=4))
        net.send(0, 5, 4096)
        net.run()
        assert net._pair_scoring
        clear_route_tables()
        assert not net._pair_scoring


class TestDefaultMaxPaths:
    def test_single_shared_constant(self):
        from repro.sim import DEFAULT_MAX_PATHS
        from repro.sim.paths import DEFAULT_MAX_PATHS as paths_default
        import inspect

        from repro.sim.paths import GenericPathProvider
        from repro.sim.routing import RouteTable, route_table_for

        assert DEFAULT_MAX_PATHS is paths_default
        assert (
            inspect.signature(GenericPathProvider.paths).parameters["max_paths"].default
            == DEFAULT_MAX_PATHS
        )
        assert (
            inspect.signature(RouteTable.__init__).parameters["max_paths"].default
            == DEFAULT_MAX_PATHS
        )
        assert (
            inspect.signature(route_table_for).parameters["max_paths"].default
            == DEFAULT_MAX_PATHS
        )
        assert PacketSimConfig().max_paths == DEFAULT_MAX_PATHS
