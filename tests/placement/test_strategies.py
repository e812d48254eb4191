"""The pluggable strategies: determinism, floors and domain diversity."""

import pytest

from repro.errors import ServiceError
from repro.placement import (
    MarkovAvailability,
    PlacementContext,
    PrefixPlacement,
    ServerProfile,
    StaticKWay,
    StaticPlacement,
    make_strategy,
    surviving_availability,
)
from repro.placement.plan import build_zipf_catalog


def make_ctx(n_titles=12, n_servers=6, k=2, edge_rack=None, fail_rates=None):
    catalog = build_zipf_catalog(n_titles, duration_s=30.0)
    servers = []
    for i in range(n_servers):
        domain = f"rack{i // 2}"
        servers.append(
            ServerProfile(
                name=f"server{i}",
                domain=domain,
                fail_rate=(fail_rates or {}).get(domain, 0.01),
                repair_rate=1.0,
                edge=(domain == edge_rack),
            )
        )
    return PlacementContext(catalog=catalog, servers=servers, k=k)


class TestStaticKWay:
    def test_every_title_gets_exactly_k(self):
        ctx = make_ctx()
        plan = StaticKWay().build(ctx)
        assert all(plan.replication_degree(t) == 2 for t in plan.titles())
        # The ring spreads storage evenly: 12 titles x 2 over 6 servers.
        loads = [len(plan.movies_for(p.name)) for p in ctx.servers]
        assert loads == [4] * 6

    def test_k_equals_n_is_full_replication(self):
        ctx = make_ctx(n_servers=3, k=3)
        plan = StaticKWay(k=3).build(ctx)
        for title in plan.titles():
            assert plan.replicas(title) == ["server0", "server1", "server2"]

    def test_deterministic(self):
        ctx = make_ctx()
        assert StaticKWay().build(ctx).entries == StaticKWay().build(ctx).entries

    def test_rejects_k_above_pool(self):
        ctx = make_ctx(n_servers=2)
        with pytest.raises(ServiceError):
            StaticKWay(k=3).build(ctx)
        with pytest.raises(ServiceError):
            StaticKWay(k=0).build(ctx)


class TestStaticPlacement:
    def test_from_server_movies_round_trip(self):
        static = StaticPlacement.from_server_movies(
            {"server0": ["title0001"], "server1": ["title0001", "title0002"]}
        )
        plan = static.as_plan()
        assert plan.replicas("title0001") == ["server0", "server1"]
        assert plan.replicas("title0002") == ["server1"]

    def test_build_rejects_unknown_names(self):
        ctx = make_ctx(n_titles=2)
        bad = StaticPlacement(assignments={"nope": ["server0"]})
        with pytest.raises(ServiceError):
            bad.build(ctx)


class TestPopularityProportional:
    def test_head_gets_more_copies_than_tail(self):
        ctx = make_ctx()
        strategy = make_strategy("popularity")
        counts = strategy.replica_counts(ctx)
        titles = ctx.titles
        assert counts[titles[0]] > counts[titles[-1]]
        assert counts[titles[-1]] >= ctx.k

    def test_build_matches_counts_when_capacity_allows(self):
        ctx = make_ctx()
        strategy = make_strategy("popularity")
        plan = strategy.build(ctx)
        counts = strategy.replica_counts(ctx)
        for title in ctx.titles:
            assert plan.replication_degree(title) == counts[title]

    def test_max_k_below_floor_rejected(self):
        # The head of the catalog gets a copy on every server: fewer
        # servers than the k floor cannot hold it.
        ctx = make_ctx(n_servers=2, k=3)
        with pytest.raises(ServiceError):
            make_strategy("popularity").build(ctx)


class TestMarkovAvailability:
    def test_never_concentrates_a_title_in_one_domain(self):
        ctx = make_ctx(fail_rates={"rack0": 0.04, "rack1": 0.02, "rack2": 0.01})
        plan = MarkovAvailability().build(ctx)
        domains = {p.name: p.domain for p in ctx.servers}
        for title in plan.titles():
            replicas = plan.replicas(title)
            assert len({domains[r] for r in replicas}) >= min(2, len(replicas))

    def test_beats_static_under_a_rack_crash(self):
        ctx = make_ctx(fail_rates={"rack0": 0.04, "rack1": 0.02, "rack2": 0.01})
        static = StaticKWay().build(ctx)
        markov = MarkovAvailability().build(ctx)
        down = ["server0", "server1"]
        assert surviving_availability(markov, ctx, down) > surviving_availability(
            static, ctx, down
        )

    def test_hot_titles_meet_tighter_budgets(self):
        ctx = make_ctx()
        strategy = MarkovAvailability()
        hot = strategy.required_unavailability(ctx, ctx.titles[0])
        cold = strategy.required_unavailability(ctx, ctx.titles[-1])
        assert hot < cold


class TestPrefixPlacement:
    def test_edges_hold_prefixes_cores_hold_full(self):
        ctx = make_ctx(edge_rack="rack2")
        plan = PrefixPlacement(prefix_s=10.0).build(ctx)
        for title in plan.titles():
            full = plan.replicas(title)
            assert full and all(s in {"server0", "server1", "server2", "server3"}
                                for s in full)
            assert plan.prefix_holders(title) == {
                "server4": 10.0, "server5": 10.0,
            }

    def test_needs_a_core(self):
        catalog = build_zipf_catalog(2, duration_s=10.0)
        all_edge = [ServerProfile(name="e0", edge=True)]
        ctx = PlacementContext(catalog=catalog, servers=all_edge, k=1)
        with pytest.raises(ServiceError):
            PrefixPlacement().build(ctx)


class TestFactory:
    def test_unknown_name(self):
        with pytest.raises(ServiceError):
            make_strategy("quantum")

    def test_all_registered_names_build(self):
        ctx = make_ctx(edge_rack="rack2")
        for name in ("static", "popularity", "markov", "prefix"):
            plan = make_strategy(name).build(ctx)
            assert plan.min_replication() >= 1
