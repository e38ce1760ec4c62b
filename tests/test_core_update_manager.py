"""Tests for the interaction graph and the UpdateManager decision logic."""

from __future__ import annotations

from repro.core.update_manager import UpdateManager
from tests.conftest import make_query, make_update


class TestInteractionGraph:
    """The interaction graph's behaviour, driven through ``UpdateManager.decide``."""

    def test_ship_cheap_update_instead_of_expensive_query(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=10.0, timestamp=5.0)
        update = make_update(1, object_id=1, cost=2.0, timestamp=1.0)
        result = manager.decide(query, {1: [update]})
        assert not result.ship_query
        assert result.ship_update_ids == (1,)

    def test_ship_cheap_query_instead_of_expensive_updates(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=3.0, timestamp=5.0)
        updates = [make_update(i, object_id=1, cost=4.0, timestamp=1.0) for i in range(3)]
        result = manager.decide(query, {1: updates})
        assert result.ship_query
        assert result.ship_update_ids == ()

    def test_accumulated_query_weight_eventually_justifies_update(self):
        """Repeated cheap queries against one expensive update flip the cover.

        Each individual query is cheaper than the update, so the first
        queries are shipped; once their accumulated weight exceeds the
        update's cost, the update is shipped instead (the paper's central
        cost-amortisation behaviour).
        """
        manager = UpdateManager()
        update = make_update(1, object_id=1, cost=10.0, timestamp=0.0)
        shipped_update_at = None
        for step in range(1, 8):
            query = make_query(step, object_ids=[1], cost=3.0, timestamp=float(step))
            result = manager.decide(query, {1: [update]})
            if result.ship_update_ids:
                shipped_update_at = step
                break
            assert result.ship_query
        assert shipped_update_at is not None
        assert shipped_update_at == 4  # 3 + 3 + 3 < 10 <= 3 + 3 + 3 + 3

    def test_remainder_pruning_retires_covered_updates(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=10.0, timestamp=5.0)
        update = make_update(1, object_id=1, cost=2.0, timestamp=1.0)
        manager.decide(query, {1: [update]})
        # The shipped update left the remainder graph; nothing active remains
        # (the query, answered at the cache, is pruned as isolated).
        stats = manager.stats()
        assert stats["graph_updates"] == 0
        assert stats["graph_edges"] == 0
        assert stats["graph_queries"] == 0
        assert manager.active_update_ids() == frozenset()

    def test_shipped_query_does_not_rejustify_updates(self):
        """A query whose weight was spent cannot keep justifying shipping.

        q1 (10) justifies shipping u1 (4).  A second, disjoint update u2 (8)
        then interacts with a new cheap query q2 (3): the remaining weight
        attributable to u2 is q2's 3 (q1 interacted only with u1), so q2 is
        shipped, not u2.
        """
        manager = UpdateManager()
        q1 = make_query(1, object_ids=[1], cost=10.0, timestamp=1.0)
        u1 = make_update(1, object_id=1, cost=4.0, timestamp=0.5)
        first = manager.decide(q1, {1: [u1]})
        assert first.ship_update_ids == (1,)

        q2 = make_query(2, object_ids=[1], cost=3.0, timestamp=2.0)
        u2 = make_update(2, object_id=1, cost=8.0, timestamp=1.5)
        second = manager.decide(q2, {1: [u2]})
        assert second.ship_query
        assert second.ship_update_ids == ()

    def test_drop_updates_removes_interactions(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)
        update = make_update(1, object_id=1, cost=5.0, timestamp=1.0)
        # The cheap query is shipped; it and the update stay, joined.
        assert manager.decide(query, {1: [update]}).ship_query
        assert manager.stats()["graph_edges"] == 1
        manager.forget_updates([1])
        stats = manager.stats()
        assert stats["graph_updates"] == 0
        assert stats["graph_edges"] == 0
        # The query lost its last edge with the update and was pruned.
        assert stats["graph_queries"] == 0

    def test_covers_computed_counter(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)
        update = make_update(1, object_id=1, cost=5.0, timestamp=1.0)
        manager.decide(query, {1: [update]})
        manager.decide(make_query(2, object_ids=[1], cost=1.0, timestamp=6.0), {})
        assert manager.stats()["covers_computed"] == 1
        assert manager.stats()["decisions"] == 2

    def test_reused_update_id_starts_a_new_generation(self):
        """An id seen with a different identity is a different update."""
        manager = UpdateManager()
        old = make_update(1, object_id=1, cost=50.0, timestamp=1.0)
        cheap = make_query(1, object_ids=[1], cost=1.0, timestamp=2.0)
        assert manager.decide(cheap, {1: [old]}).ship_query
        new = make_update(1, object_id=1, cost=2.0, timestamp=3.0)
        dear = make_query(2, object_ids=[1], cost=10.0, timestamp=4.0)
        result = manager.decide(dear, {1: [new]})
        # Judged against the new update's cost (2), not the stale vertex's 50.
        assert not result.ship_query
        assert result.ship_update_ids == (1,)
        assert manager.stats()["graph_updates"] == 0


class TestUpdateManager:
    def test_fast_path_when_no_interacting_updates(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=5.0, timestamp=1.0)
        result = manager.decide(query, interacting_updates={})
        assert not result.ship_query
        assert result.ship_update_ids == ()

    def test_cheap_updates_are_shipped(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1, 2], cost=20.0, timestamp=5.0)
        interacting = {
            1: [make_update(1, object_id=1, cost=2.0, timestamp=1.0)],
            2: [make_update(2, object_id=2, cost=3.0, timestamp=2.0)],
        }
        result = manager.decide(query, interacting)
        assert not result.ship_query
        assert set(result.ship_update_ids) == {1, 2}

    def test_expensive_updates_cause_query_shipping(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=4.0, timestamp=5.0)
        interacting = {1: [make_update(1, object_id=1, cost=50.0, timestamp=1.0)]}
        result = manager.decide(query, interacting)
        assert result.ship_query
        assert result.ship_update_ids == ()

    def test_mixed_decision_covers_every_interaction(self):
        """Whatever the cover picks, each query's currency must be satisfiable."""
        manager = UpdateManager()
        query = make_query(1, object_ids=[1, 2], cost=6.0, timestamp=5.0)
        interacting = {
            1: [make_update(1, object_id=1, cost=1.0, timestamp=1.0)],
            2: [make_update(2, object_id=2, cost=100.0, timestamp=2.0)],
        }
        result = manager.decide(query, interacting)
        # Either the query is shipped, or every interacting update is shipped.
        if not result.ship_query:
            assert set(result.ship_update_ids) >= {1, 2}

    def test_forget_updates_delegates_to_graph(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)
        interacting = {1: [make_update(1, object_id=1, cost=50.0, timestamp=1.0)]}
        manager.decide(query, interacting)
        assert manager.active_update_ids() == {1}
        manager.forget_updates([1])
        assert manager.active_update_ids() == frozenset()
        assert manager.stats()["graph_updates"] == 0

    def test_stats_counters(self):
        manager = UpdateManager()
        query = make_query(1, object_ids=[1], cost=10.0, timestamp=5.0)
        interacting = {1: [make_update(1, object_id=1, cost=2.0, timestamp=1.0)]}
        manager.decide(query, interacting)
        stats = manager.stats()
        assert stats["decisions"] == 1
        assert stats["updates_shipped"] == 1
        assert stats["queries_shipped"] == 0


class TestBundleChains:
    """One arc per (query, object): how ``decide`` stands for ``wanted`` lists.

    Cheap queries (cost 1) against dear updates (cost 50) are all shipped, so
    nothing is retired and the chain of object 1 can be watched growing.
    """

    def _manager(self, count: int = 6):
        manager = UpdateManager()
        updates = [make_update(i, object_id=1, cost=50.0, timestamp=float(i)) for i in range(count)]
        self._queries = 0
        return manager, updates

    def _ask(self, manager, wanted, cost: float = 1.0):
        self._queries += 1
        query = make_query(self._queries, object_ids=[1], cost=cost, timestamp=99.0)
        return manager.decide(query, {1: list(wanted)})

    def test_a_repeated_list_reuses_its_bundle(self):
        manager, updates = self._manager()
        self._ask(manager, updates[:3])
        edges = manager._flow.network.edge_count
        self._ask(manager, updates[:3])
        chain = manager._chains[1]
        assert [end for end, _ in chain.bundles] == [3]
        # The second query cost a source arc and one arc to the bundle.
        assert manager._flow.network.edge_count == edges + 2
        assert manager.stats()["graph_edges"] == 6

    def test_a_longer_list_chains_onto_the_last_bundle(self):
        manager, updates = self._manager()
        self._ask(manager, updates[:2])
        edges = manager._flow.network.edge_count
        self._ask(manager, updates[:5])
        chain = manager._chains[1]
        assert [end for end, _ in chain.bundles] == [2, 5] and chain.members == updates[:5]
        # Source arc, arc to the new bundle, its base arc, three new sink
        # arcs and three arcs to them -- none to the two updates below the base.
        assert manager._flow.network.edge_count == edges + 9
        assert manager.stats()["graph_edges"] == 2 + 5

    def test_a_list_between_two_bundles_gets_its_own(self):
        manager, updates = self._manager()
        for length in (1, 5, 3, 3, 5, 1):
            self._ask(manager, updates[:length])
        chain = manager._chains[1]
        assert [end for end, _ in chain.bundles] == [1, 3, 5]
        flow = manager._flow
        assert sum(map(bool, flow._bundle_alive.values())) == 3
        assert manager.stats()["graph_edges"] == 2 * (1 + 5 + 3)
        # Each bundle reaches its base and the updates past it.
        arcs = {
            bundle: sorted(arc.head for arc in flow.network.adjacency()[bundle] if arc.is_forward)
            for _, bundle in chain.bundles
        }
        first, between, last = (bundle for _, bundle in chain.bundles)
        keys = [flow.right_id(manager._updates[u.update_id][0]) for u in chain.members]
        assert arcs[first] == keys[:1]
        assert arcs[between] == sorted([first, *keys[1:3]])
        assert arcs[last] == sorted([first, *keys[1:5]])  # minted before ``between``

    def test_a_cover_takes_the_front_off_the_chain(self):
        manager, updates = self._manager()
        cheap = [make_update(10 + i, object_id=1, cost=1.0, timestamp=float(i)) for i in range(2)]
        wanted = cheap + updates[:2]
        self._ask(manager, wanted[:2], cost=0.5)
        self._ask(manager, wanted)
        # Worth the two cheap updates, not the dear ones behind them.
        result = self._ask(manager, wanted[:2], cost=5.0)
        assert sorted(result.ship_update_ids) == [10, 11] and not result.ship_query
        chain = manager._chains[1]
        assert chain.members == updates[:2]
        ((end, survivor),) = chain.bundles
        assert end == 2 and manager._flow._bundle_alive[survivor] > 0
        # The survivor is reused by the next query, which sees only what is left.
        edges = manager._flow.network.edge_count
        self._ask(manager, updates[:2])
        assert manager._flow.network.edge_count == edges + 2
        assert manager.stats()["graph_edges"] == 2 + 2

    def test_a_forgotten_update_takes_the_chain_with_it(self):
        """No later query may reach an update that left outside a closed set."""
        manager, updates = self._manager()
        self._ask(manager, updates[:3])
        manager.forget_updates([1])
        assert 1 not in manager._chains
        self._ask(manager, [updates[0], updates[2]])
        flow = manager._flow
        newest = max(flow.active_left, key=lambda key: key[2])
        assert {right[1] for left, right in flow.active_edges if left == newest} == {0, 2}
        # The forgotten vertex is still in the network, unreachable from the
        # new query: nothing below its bundle but the two live updates.
        bundle = manager._chains[1].bundles[0][1]
        assert len([arc for arc in flow.network.adjacency()[bundle] if arc.is_forward]) == 2

    def test_a_list_that_is_no_prefix_starts_a_fresh_chain(self):
        manager, updates = self._manager()
        self._ask(manager, updates[:4])
        self._ask(manager, [updates[2], updates[0], updates[2]])
        chain = manager._chains[1]
        assert chain.members == [updates[2], updates[0]]
        assert [end for end, _ in chain.bundles] == [2]
        assert manager.stats()["graph_edges"] == 4 + 2
        # ... and so does a known list followed by an update the chain should
        # have held already.
        self._ask(manager, [updates[2], updates[0], updates[1]])
        assert manager._chains[1].members == [updates[2], updates[0], updates[1]]
        assert manager.stats()["graph_edges"] == 4 + 2 + 3


    def test_an_unseen_update_named_twice_is_one_member(self):
        manager, updates = self._manager()
        self._ask(manager, updates[:1])
        self._ask(manager, [updates[0], updates[1], updates[1]])
        chain = manager._chains[1]
        assert chain.members == updates[:2]
        assert [end for end, _ in chain.bundles] == [1, 2]
        assert manager.stats()["graph_edges"] == 1 + 2
        # ... so the list without the repeat finds its bundle.
        edges = manager._flow.network.edge_count
        self._ask(manager, updates[:2])
        assert manager._flow.network.edge_count == edges + 2


class TestShippedOrder:
    def test_colliding_ids_ship_in_one_order_whichever_was_met_first(self):
        """The shipped order is a function of the id set alone.

        0 and 8 share a slot in an eight-slot hash table, so a frozenset
        filled in visit order hands them back in visit order:
        ``list(frozenset([8, 0])) == [8, 0]``.
        """
        assert list(frozenset([8, 0])) != list(frozenset([0, 8]))
        shipped = []
        for first, second in ((0, 8), (8, 0)):
            manager = UpdateManager()
            wanted = [
                make_update(first, object_id=1, cost=1.0, timestamp=1.0),
                make_update(second, object_id=1, cost=1.0, timestamp=2.0),
            ]
            query = make_query(1, object_ids=[1], cost=10.0, timestamp=5.0)
            shipped.append(manager.decide(query, {1: wanted}).ship_update_ids)
        assert shipped == [(0, 8), (0, 8)]
