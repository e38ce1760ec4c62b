"""Tests for data objects and object catalogues."""

from __future__ import annotations

import pytest

from repro.repository.catalog import (
    DEFAULT_SCALE,
    PARTITION_LEVELS,
    granularity_catalogs,
    sdss_catalog,
)
from repro.repository.objects import DataObject, ObjectCatalog


class TestDataObject:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataObject(object_id=1, size=-5.0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            DataObject(object_id=1, size=5.0, density=-1.0)

    def test_load_cost_equals_size(self):
        obj = DataObject(object_id=1, size=42.0)
        assert obj.load_cost == pytest.approx(42.0)


class TestObjectCatalog:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ObjectCatalog([DataObject(1, 1.0), DataObject(1, 2.0)])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            ObjectCatalog([])

    def test_lookup_and_membership(self, small_catalog):
        assert 3 in small_catalog
        assert 99 not in small_catalog
        assert small_catalog[3].size == pytest.approx(30.0)
        assert small_catalog.get(99) is None

    def test_total_size_and_sizes(self, small_catalog):
        assert small_catalog.total_size == pytest.approx(100.0)
        assert small_catalog.sizes()[2] == pytest.approx(20.0)
        assert small_catalog.size_of(4) == pytest.approx(15.0)

    def test_largest_and_smallest(self, small_catalog):
        assert [obj.object_id for obj in small_catalog.largest(2)] == [3, 5]
        assert [obj.object_id for obj in small_catalog.smallest(1)] == [1]

    def test_describe_summary(self, small_catalog):
        stats = small_catalog.describe()
        assert stats["count"] == 5
        assert stats["min_size"] == pytest.approx(10.0)
        assert stats["max_size"] == pytest.approx(30.0)

    def test_object_ids_sorted(self, small_catalog):
        assert small_catalog.object_ids == [1, 2, 3, 4, 5]

    def test_object_ids_sorted_once_and_handed_out_as_copies(self):
        catalog = ObjectCatalog.from_sizes({5: 1.0, 2: 1.0, 9: 1.0, 1: 1.0})
        first, second = catalog.object_ids, catalog.object_ids
        assert first == second == [1, 2, 5, 9]
        assert first is not second
        first.append(99)
        first.reverse()
        assert catalog.object_ids == [1, 2, 5, 9]

    def test_uniform_constructor(self):
        catalog = ObjectCatalog.uniform(count=4, size=25.0)
        assert len(catalog) == 4
        assert catalog.total_size == pytest.approx(100.0)

    def test_uniform_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            ObjectCatalog.uniform(count=0, size=1.0)

    def test_from_sizes(self):
        catalog = ObjectCatalog.from_sizes({7: 3.0, 9: 5.0})
        assert catalog.size_of(9) == pytest.approx(5.0)

    def test_heavy_tailed_total_and_floor(self):
        catalog = ObjectCatalog.heavy_tailed(count=30, total_size=900.0, min_size=2.0)
        assert catalog.total_size == pytest.approx(900.0, rel=1e-6)
        assert min(obj.size for obj in catalog) >= 1.0  # floor applied pre-rescale

    def test_heavy_tailed_is_reproducible(self):
        first = ObjectCatalog.heavy_tailed(count=10, total_size=100.0, seed=3)
        second = ObjectCatalog.heavy_tailed(count=10, total_size=100.0, seed=3)
        assert first.sizes() == second.sizes()

    def test_heavy_tailed_is_skewed(self):
        catalog = ObjectCatalog.heavy_tailed(count=50, total_size=1000.0, alpha=1.1)
        stats = catalog.describe()
        assert stats["max_size"] > 5 * stats["median_size"]

    def test_heavy_tailed_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ObjectCatalog.heavy_tailed(count=0, total_size=10.0)
        with pytest.raises(ValueError):
            ObjectCatalog.heavy_tailed(count=5, total_size=-1.0)


class TestSDSSCatalog:
    def test_default_level_is_68_objects(self):
        catalog = sdss_catalog()
        assert len(catalog) == 68

    def test_scaling_shrinks_total_size(self):
        full = sdss_catalog(scale=1.0)
        scaled = sdss_catalog(scale=DEFAULT_SCALE)
        assert scaled.total_size == pytest.approx(full.total_size * DEFAULT_SCALE, rel=1e-6)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sdss_catalog(object_count=0)
        with pytest.raises(ValueError):
            sdss_catalog(scale=0.0)

    def test_granularity_catalogs_cover_paper_levels(self):
        catalogs = granularity_catalogs()
        assert set(catalogs) == set(PARTITION_LEVELS)
        totals = {count: catalog.total_size for count, catalog in catalogs.items()}
        # Every level covers the same data, so totals agree.
        baseline = totals[68]
        for total in totals.values():
            assert total == pytest.approx(baseline, rel=1e-6)
