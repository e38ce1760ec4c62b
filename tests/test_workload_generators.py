"""Tests for the SDSS query generator, the survey update generator and templates."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.repository.objects import ObjectCatalog
from repro.experiments.config import (
    ExperimentConfig,
    build_scenario,
    build_scenario_stream,
)
from repro.workload.draws import Draws, uniform_pick, weight_cdf, weighted_index, zipf_cdf
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.templates import (
    DEFAULT_TEMPLATES,
    normalized_weights,
    template_cdf,
    template_mix_summary,
)
from repro.workload.updates import SurveyUpdateGenerator, UpdateWorkloadConfig


#: One step of a random draw program: ``random()``, ``integers(low, low + span)``
#: or a call that stays on the ``Generator`` (``lognormal``, ``poisson``, ``shuffle``).
DRAW_STEPS = st.one_of(
    st.just(("random",)),
    st.tuples(
        st.just("integers"),
        st.integers(-1_000, 1_000),
        st.one_of(st.sampled_from((1, 2, 3, 68, 2**31 + 1, 2**32)), st.integers(1, 10_000)),
    ),
    st.sampled_from((("lognormal",), ("poisson",), ("shuffle",))),
)


@pytest.fixture
def catalog() -> ObjectCatalog:
    return ObjectCatalog.heavy_tailed(count=40, total_size=400.0, seed=11)


class TestTemplates:
    def test_weights_normalise_to_one(self):
        weights = normalized_weights(DEFAULT_TEMPLATES)
        assert weights.sum() == pytest.approx(1.0)

    def test_mix_summary_keys(self):
        summary = template_mix_summary(DEFAULT_TEMPLATES)
        assert set(summary) == {template.name for template in DEFAULT_TEMPLATES}
        assert sum(summary.values()) == pytest.approx(1.0)


    def test_negative_template_weight_rejected(self):
        """What ``Generator.choice(p=...)`` refused per call, the cdf refuses once."""
        bad = replace(DEFAULT_TEMPLATES[1], weight=-1.0)
        # The mix still sums to a positive value: only the cdf check catches it.
        with pytest.raises(ValueError, match="non-negative"):
            template_cdf(DEFAULT_TEMPLATES + (bad,))
        with pytest.raises(ValueError, match="positive"):
            normalized_weights((bad,))


class TestDraws:
    """The inverse-cdf helpers make ``Generator.choice``'s own draws."""

    SIZES = (3, 6, 8, 68, 1000)

    @pytest.mark.parametrize("size", SIZES)
    def test_weighted_index_matches_choice_with_p(self, size):
        ranks = np.arange(1, size + 1, dtype=float)
        weights = 1.0 / np.power(ranks, 1.2)
        weights /= weights.sum()
        cdf = zipf_cdf(size, 1.2)
        reference, ours = np.random.default_rng(size), np.random.default_rng(size)
        assert [int(reference.choice(size, p=weights)) for _ in range(10_000)] == [
            weighted_index(cdf, ours) for _ in range(10_000)
        ]
        assert reference.random() == ours.random()

    @pytest.mark.parametrize("size", SIZES)
    def test_uniform_pick_matches_choice(self, size):
        ids = list(range(100, 100 + size))
        reference, ours = np.random.default_rng(size), np.random.default_rng(size)
        assert [int(reference.choice(ids)) for _ in range(10_000)] == [
            uniform_pick(ids, ours) for _ in range(10_000)
        ]
        assert reference.random() == ours.random()

    def test_template_mix_matches_choice(self):
        """The draft loop's template draw, ``weighted_index(template_cdf(...))``."""
        weights = normalized_weights(DEFAULT_TEMPLATES)
        cdf = template_cdf(DEFAULT_TEMPLATES)
        reference, ours = np.random.default_rng(3), np.random.default_rng(3)
        expected = [int(reference.choice(len(DEFAULT_TEMPLATES), p=weights)) for _ in range(10_000)]
        assert expected == [weighted_index(cdf, ours) for _ in range(10_000)]
        assert reference.random() == ours.random()

    @pytest.mark.parametrize(
        "weights",
        [(), (0.5, -0.1, 0.6), (0.5, float("nan")), (1.0, float("inf")), (0.0, 0.0)],
    )
    def test_invalid_weights_rejected_when_the_cdf_is_built(self, weights):
        with pytest.raises(ValueError):
            weight_cdf(weights)

    def test_zero_weight_entries_are_never_drawn(self, rng):
        cdf = weight_cdf((0.0, 1.0, 0.0, 3.0, 0.0))
        assert {weighted_index(cdf, rng) for _ in range(2_000)} == {1, 3}

    @given(seed=st.integers(0, 2**32 - 1), program=st.lists(DRAW_STEPS, max_size=300))
    def test_draws_equal_generator_draw_for_draw(self, seed, program):
        """Values and the final bit-generator state match a plain ``Generator``."""
        reference = np.random.default_rng(seed)
        draws = Draws(np.random.default_rng(seed))
        ours = draws.generator
        for step in program:
            if step[0] == "random":
                assert draws.random() == reference.random()
            elif step[0] == "integers":
                _, low, span = step
                value = draws.integers(low, low + span)
                assert type(value) is int
                assert value == reference.integers(low, low + span)
            elif step[0] == "lognormal":
                assert ours.lognormal(0.0, 0.5) == reference.lognormal(0.0, 0.5)
            elif step[0] == "poisson":
                assert ours.poisson(2000) == reference.poisson(2000)
            else:
                mine, theirs = list(range(12)), list(range(12))
                ours.shuffle(mine)
                reference.shuffle(theirs)
                assert mine == theirs
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_draws_reject_an_empty_or_oversized_span(self):
        draws = Draws(np.random.default_rng(0))
        state = draws.generator.bit_generator.state
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(5, 5)
        with pytest.raises(ValueError):
            draws.integers(5, 5)
        with pytest.raises(ValueError):
            draws.integers(0, 2**32 + 1)
        assert draws.integers(7, 8) == 7
        assert draws.generator.bit_generator.state == state

    def test_helpers_draw_the_same_from_draws_and_generator(self):
        cdf, ids = zipf_cdf(8, 1.2), list(range(100, 168))
        reference, draws = np.random.default_rng(5), Draws(np.random.default_rng(5))
        for _ in range(5_000):
            assert weighted_index(cdf, draws) == weighted_index(cdf, reference)
            assert uniform_pick(ids, draws) == uniform_pick(ids, reference)
        assert reference.bit_generator.state == draws.generator.bit_generator.state


class TestQueryGenerator:
    def test_generates_requested_count(self, catalog):
        generator = SDSSQueryGenerator(catalog, SDSSWorkloadConfig(query_count=200))
        assert len(generator.generate()) == 200

    def test_total_cost_matches_target(self, catalog):
        config = SDSSWorkloadConfig(query_count=300, target_total_cost=120.0)
        queries = SDSSQueryGenerator(catalog, config).generate()
        assert sum(q.cost for q in queries) == pytest.approx(120.0, rel=1e-6)

    def test_queries_only_touch_catalog_objects(self, catalog):
        queries = SDSSQueryGenerator(catalog, SDSSWorkloadConfig(query_count=200)).generate()
        valid = set(catalog.object_ids)
        for query in queries:
            assert set(query.object_ids) <= valid

    def test_footprints_are_spatially_coherent(self, catalog):
        """Multi-object footprints are contiguous runs of object ids."""
        queries = SDSSQueryGenerator(catalog, SDSSWorkloadConfig(query_count=300)).generate()
        for query in queries:
            ids = sorted(query.object_ids)
            if len(ids) > 1:
                span = ids[-1] - ids[0]
                assert span <= 2 * len(ids) or span >= len(catalog) - 2 * len(ids)

    def test_same_seed_reproduces_trace(self, catalog):
        config = SDSSWorkloadConfig(query_count=100, seed=5)
        first = SDSSQueryGenerator(catalog, config).generate()
        second = SDSSQueryGenerator(catalog, SDSSWorkloadConfig(query_count=100, seed=5)).generate()
        assert [q.cost for q in first] == [q.cost for q in second]
        assert [q.object_ids for q in first] == [q.object_ids for q in second]

    def test_warmup_queries_are_cheaper(self, catalog):
        config = SDSSWorkloadConfig(
            query_count=400, warmup_fraction=0.5, warmup_cost_factor=0.05, seed=2
        )
        queries = SDSSQueryGenerator(catalog, config).generate()
        first_half = sum(q.cost for q in queries[:200])
        second_half = sum(q.cost for q in queries[200:])
        assert first_half < 0.5 * second_half

    def test_tolerant_fraction_controls_tolerances(self, catalog):
        config = SDSSWorkloadConfig(query_count=400, tolerant_fraction=0.5, seed=9)
        queries = SDSSQueryGenerator(catalog, config).generate()
        tolerant = sum(1 for q in queries if q.tolerance > 0)
        assert 100 < tolerant < 300

    def test_zero_tolerant_fraction(self, catalog):
        config = SDSSWorkloadConfig(query_count=100, tolerant_fraction=0.0)
        queries = SDSSQueryGenerator(catalog, config).generate()
        assert all(q.tolerance == 0.0 for q in queries)

    def test_excluded_hotspots_not_in_focus(self, catalog):
        excluded = catalog.object_ids[:20]
        config = SDSSWorkloadConfig(query_count=50, excluded_hotspots=tuple(excluded))
        generator = SDSSQueryGenerator(catalog, config)
        assert not (set(generator.hotspot_model.current_focus) & set(excluded))

    def test_custom_timestamps(self, catalog):
        config = SDSSWorkloadConfig(query_count=10)
        stamps = [float(10 * i) for i in range(1, 11)]
        queries = SDSSQueryGenerator(catalog, config).generate(timestamps=stamps)
        assert [q.timestamp for q in queries] == stamps

    def test_timestamp_length_mismatch_raises(self, catalog):
        generator = SDSSQueryGenerator(catalog, SDSSWorkloadConfig(query_count=10))
        with pytest.raises(ValueError):
            generator.generate(timestamps=[1.0, 2.0])

    def test_query_ids_unique_and_increasing(self, catalog):
        queries = SDSSQueryGenerator(catalog, SDSSWorkloadConfig(query_count=100)).generate()
        ids = [q.query_id for q in queries]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestUpdateGenerator:
    def test_batched_cost_draws_equal_the_scalar_loop(self, catalog):
        """One sized ``lognormal`` call: same costs, same generator state after."""
        config = UpdateWorkloadConfig(update_count=500, seed=21)
        generator = SurveyUpdateGenerator(catalog, config)
        reference = SurveyUpdateGenerator(catalog, config)
        arrivals = generator._draw_arrivals()
        assert (arrivals == reference._draw_arrivals()).all()
        densities = catalog.densities()
        looped = [
            densities[int(object_id)] * float(reference._rng.lognormal(0.0, 0.5))
            for object_id in arrivals
        ]
        assert generator._draw_raw_costs(arrivals).tolist() == looped
        assert generator._rng.random() == reference._rng.random()

    def test_generates_requested_count(self, catalog):
        generator = SurveyUpdateGenerator(catalog, UpdateWorkloadConfig(update_count=150))
        assert len(generator.generate()) == 150

    def test_total_cost_matches_target(self, catalog):
        config = UpdateWorkloadConfig(update_count=200, target_total_cost=80.0)
        updates = SurveyUpdateGenerator(catalog, config).generate()
        assert sum(u.cost for u in updates) == pytest.approx(80.0, rel=1e-6)

    def test_updates_cluster_in_observed_region(self, catalog):
        config = UpdateWorkloadConfig(
            update_count=400, region_fraction=0.3, scan_probability=0.95, seed=8
        )
        generator = SurveyUpdateGenerator(catalog, config)
        region = set(generator.observed_region)
        updates = generator.generate()
        inside = sum(1 for u in updates if u.object_id in region)
        assert inside / len(updates) > 0.85

    def test_region_fraction_validation(self, catalog):
        with pytest.raises(ValueError):
            SurveyUpdateGenerator(catalog, UpdateWorkloadConfig(region_fraction=0.0))

    def test_update_sizes_scale_with_density(self, catalog):
        config = UpdateWorkloadConfig(update_count=600, region_fraction=1.0, scan_probability=0.0)
        updates = SurveyUpdateGenerator(catalog, config).generate()
        densities = catalog.densities()
        dense_ids = {oid for oid, d in densities.items() if d > 2.0}
        sparse_ids = {oid for oid, d in densities.items() if d < 0.5}
        dense_costs = [u.cost for u in updates if u.object_id in dense_ids]
        sparse_costs = [u.cost for u in updates if u.object_id in sparse_ids]
        if dense_costs and sparse_costs:
            assert np.mean(dense_costs) > np.mean(sparse_costs)

    def test_same_seed_reproducible(self, catalog):
        config = UpdateWorkloadConfig(update_count=100, seed=4)
        first = SurveyUpdateGenerator(catalog, config).generate()
        second = SurveyUpdateGenerator(catalog, UpdateWorkloadConfig(update_count=100, seed=4)).generate()
        assert [u.cost for u in first] == [u.cost for u in second]
        assert [u.object_id for u in first] == [u.object_id for u in second]

    def test_scan_advances_through_region(self, catalog):
        config = UpdateWorkloadConfig(update_count=10, scan_length=5, scan_width=3)
        generator = SurveyUpdateGenerator(catalog, config)
        first_scan = generator.current_scan()
        generator.generate()
        assert generator.current_scan() != first_scan or len(generator.observed_region) <= 3

    def test_hotspot_objects_subset_of_region(self, catalog):
        generator = SurveyUpdateGenerator(catalog, UpdateWorkloadConfig(update_count=10))
        assert set(generator.hotspot_objects(5)) <= set(generator.observed_region)

    def test_custom_timestamps_and_mismatch(self, catalog):
        generator = SurveyUpdateGenerator(catalog, UpdateWorkloadConfig(update_count=5))
        stamps = [1.0, 2.0, 3.0, 4.0, 5.0]
        updates = generator.generate(timestamps=stamps)
        assert [u.timestamp for u in updates] == stamps
        with pytest.raises(ValueError):
            SurveyUpdateGenerator(catalog, UpdateWorkloadConfig(update_count=5)).generate(
                timestamps=[1.0]
            )


class TestBatchEqualsStream:
    """``build_scenario`` (stamped at source) vs ``build_scenario_stream``."""

    @pytest.mark.parametrize(
        "overrides",
        [
            # The dispatch-80k benchmark shape, scaled to 4k + 4k events.
            dict(
                seed=7,
                query_count=4000,
                update_count=4000,
                sample_every=2000,
                query_traffic_fraction=10.0,
                update_traffic_fraction=10.0,
            ),
            # Flares: the anchor branch the default config never takes.
            dict(seed=3, query_count=1500, update_count=1000, flare_probability=0.1),
        ],
    )
    def test_event_for_event(self, overrides):
        config = ExperimentConfig(**overrides)
        batch = list(build_scenario(config).trace)
        _, stream = build_scenario_stream(config)
        streamed = list(stream.iter_events())
        assert len(batch) == len(streamed) == len(stream)
        assert batch == streamed
