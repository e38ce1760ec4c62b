"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck
from hypothesis import settings as hypothesis_settings

from repro.network.link import NetworkLink

# Hypothesis profiles: "ci" is the quick default every run uses; "fuzz" is
# the heavy profile the nightly/main-only CI job selects via
# HYPOTHESIS_PROFILE=fuzz.  Tests that pin max_examples in their own
# @settings keep their pinned budget; the fuzzer properties deliberately
# leave it to the profile so the heavy job searches much deeper.
hypothesis_settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.register_profile(
    "fuzz",
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
from repro.repository.objects import DataObject, ObjectCatalog
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update
from repro.workload.trace import QueryEvent, Trace, UpdateEvent


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded NumPy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def py_rng() -> random.Random:
    """A seeded stdlib generator."""
    return random.Random(12345)


@pytest.fixture
def small_catalog() -> ObjectCatalog:
    """Five objects of assorted sizes totalling 100 MB."""
    return ObjectCatalog(
        [
            DataObject(object_id=1, size=10.0, density=1.0),
            DataObject(object_id=2, size=20.0, density=2.0),
            DataObject(object_id=3, size=30.0, density=3.0),
            DataObject(object_id=4, size=15.0, density=1.5),
            DataObject(object_id=5, size=25.0, density=2.5),
        ]
    )


@pytest.fixture
def repository(small_catalog: ObjectCatalog) -> Repository:
    """A repository over the small catalogue."""
    return Repository(small_catalog)


@pytest.fixture
def link() -> NetworkLink:
    """A traffic ledger."""
    return NetworkLink()


def make_query(
    query_id: int,
    object_ids,
    cost: float,
    timestamp: float,
    tolerance: float = 0.0,
) -> Query:
    """Convenience query constructor used across test modules."""
    return Query(
        query_id=query_id,
        object_ids=frozenset(object_ids),
        cost=cost,
        timestamp=timestamp,
        tolerance=tolerance,
    )


def make_update(update_id: int, object_id: int, cost: float, timestamp: float) -> Update:
    """Convenience update constructor used across test modules."""
    return Update(update_id=update_id, object_id=object_id, cost=cost, timestamp=timestamp)


#: Sizes under which the share total of {1, 9, 17} depends on iteration order.
EQUAL_FOOTPRINT_SIZES = {1: 1e16, 9: 1.0, 17: 1.0}


def equal_footprints_trace():
    """Two equal footprints built in opposite insertion orders, each held twice.

    ``frozenset([1, 9, 17])`` iterates 1, 9, 17 and ``frozenset([17, 9, 1])``
    iterates 17, 9, 1.  Under :data:`EQUAL_FOOTPRINT_SIZES` a plain float
    ``sum`` of their sizes is ``1e16`` one way and ``1e16 + 2`` the other
    (on CPython < 3.12, whose ``sum`` does not compensate), so a share-total
    memo keyed by *value* gives the second pair of queries the wrong shares.
    """
    forward = make_query(0, object_ids=[1, 9, 17], cost=7e16, timestamp=1.0)
    backward = make_query(2, object_ids=[17, 9, 1], cost=7e16, timestamp=3.0)
    assert list(forward.object_ids) != list(backward.object_ids)
    return Trace(
        [
            QueryEvent(forward),
            UpdateEvent(make_update(1, object_id=9, cost=0.25, timestamp=2.0)),
            QueryEvent(backward),
            QueryEvent(make_query(3, object_ids=forward.object_ids, cost=1e16, timestamp=4.0)),
            QueryEvent(make_query(4, object_ids=backward.object_ids, cost=1e16, timestamp=5.0)),
        ]
    )
