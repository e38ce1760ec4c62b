"""Tests for sky points, circular regions and great-circle scans."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sky.regions import CircularRegion, GreatCircleScan, SkyPoint, random_sky_point


class TestSkyPoint:
    def test_ra_wraps_to_360(self):
        assert SkyPoint(ra=370.0, dec=0.0).ra == pytest.approx(10.0)

    def test_invalid_dec_rejected(self):
        with pytest.raises(ValueError):
            SkyPoint(ra=0.0, dec=95.0)

    def test_cartesian_round_trip(self):
        point = SkyPoint(ra=123.4, dec=-45.6)
        x, y, z = point.to_cartesian()
        back = SkyPoint.from_cartesian(x, y, z)
        assert back.ra == pytest.approx(point.ra, abs=1e-9)
        assert back.dec == pytest.approx(point.dec, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            SkyPoint.from_cartesian(0.0, 0.0, 0.0)

    def test_angular_distance_to_self_is_zero(self):
        point = SkyPoint(ra=10.0, dec=10.0)
        assert point.angular_distance(point) == pytest.approx(0.0, abs=1e-4)

    def test_angular_distance_poles(self):
        north = SkyPoint(ra=0.0, dec=90.0)
        south = SkyPoint(ra=0.0, dec=-90.0)
        assert north.angular_distance(south) == pytest.approx(180.0)

    def test_angular_distance_is_symmetric(self):
        a = SkyPoint(ra=10.0, dec=20.0)
        b = SkyPoint(ra=250.0, dec=-70.0)
        assert a.angular_distance(b) == pytest.approx(b.angular_distance(a))


class TestCircularRegion:
    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            CircularRegion(center=SkyPoint(0.0, 0.0), radius=0.0)
        with pytest.raises(ValueError):
            CircularRegion(center=SkyPoint(0.0, 0.0), radius=200.0)

    def test_contains_center_and_nearby(self):
        region = CircularRegion(center=SkyPoint(ra=40.0, dec=10.0), radius=5.0)
        assert region.contains(SkyPoint(ra=40.0, dec=10.0))
        assert region.contains(SkyPoint(ra=42.0, dec=11.0))
        assert not region.contains(SkyPoint(ra=60.0, dec=10.0))


class TestGreatCircleScan:
    def test_points_lie_on_great_circle(self):
        scan = GreatCircleScan(pole=SkyPoint(ra=0.0, dec=90.0))
        for point in scan.points(36):
            # Pole at the celestial north: the scan is the equator.
            assert point.dec == pytest.approx(0.0, abs=1e-6)

    def test_points_count_and_spread(self):
        scan = GreatCircleScan(pole=SkyPoint(ra=30.0, dec=20.0))
        points = scan.points(50)
        assert len(points) == 50
        distances = [points[0].angular_distance(p) for p in points[1:]]
        assert max(distances) > 90.0

    def test_zero_points(self):
        scan = GreatCircleScan(pole=SkyPoint(ra=0.0, dec=90.0))
        assert scan.points(0) == []


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_property_random_points_are_valid(seed):
    """Uniformly drawn sky points always have valid coordinates."""
    rng = np.random.default_rng(seed)
    point = random_sky_point(rng)
    assert 0.0 <= point.ra < 360.0
    assert -90.0 <= point.dec <= 90.0
