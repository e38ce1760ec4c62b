"""Sky points and query regions.

Minimal spherical geometry for the workload substrate: points on the unit
sphere given as (right ascension, declination) in degrees, circular regions
(cone searches, the dominant SDSS spatial query), and great-circle scans
(how the telescope sweeps the sky when collecting new data, which is what
clusters updates spatially).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class SkyPoint:
    """A point on the celestial sphere.

    Attributes
    ----------
    ra:
        Right ascension in degrees, in ``[0, 360)``.
    dec:
        Declination in degrees, in ``[-90, 90]``.
    """

    ra: float
    dec: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.dec <= 90.0:
            raise ValueError(f"declination {self.dec!r} outside [-90, 90]")
        object.__setattr__(self, "ra", self.ra % 360.0)

    def to_cartesian(self) -> Tuple[float, float, float]:
        """Unit vector on the sphere corresponding to this point."""
        ra_rad = math.radians(self.ra)
        dec_rad = math.radians(self.dec)
        return (
            math.cos(dec_rad) * math.cos(ra_rad),
            math.cos(dec_rad) * math.sin(ra_rad),
            math.sin(dec_rad),
        )

    def angular_distance(self, other: "SkyPoint") -> float:
        """Great-circle distance to ``other`` in degrees."""
        x1, y1, z1 = self.to_cartesian()
        x2, y2, z2 = other.to_cartesian()
        dot = max(-1.0, min(1.0, x1 * x2 + y1 * y2 + z1 * z2))
        return math.degrees(math.acos(dot))

    @staticmethod
    def from_cartesian(x: float, y: float, z: float) -> "SkyPoint":
        """Point corresponding to a (not necessarily unit) vector."""
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0:
            raise ValueError("zero vector has no direction")
        dec = math.degrees(math.asin(z / norm))
        ra = math.degrees(math.atan2(y, x)) % 360.0
        return SkyPoint(ra=ra, dec=dec)


@dataclass(frozen=True)
class CircularRegion:
    """A cone search region: all points within ``radius`` degrees of ``center``."""

    center: SkyPoint
    radius: float

    def __post_init__(self) -> None:
        if not 0 < self.radius <= 180.0:
            raise ValueError(f"radius {self.radius!r} must be in (0, 180]")

    def contains(self, point: SkyPoint) -> bool:
        """Whether ``point`` falls inside the region."""
        return self.center.angular_distance(point) <= self.radius


@dataclass(frozen=True)
class GreatCircleScan:
    """A telescope scan along a great circle.

    The survey telescopes of the paper (Pan-STARRS, LSST) collect data by
    sweeping the sky along great circles; updates therefore arrive clustered
    along such scans.  A scan is parameterised by the pole of its great circle
    and a phase range; :meth:`points` walks along the circle.
    """

    pole: SkyPoint
    start_phase: float = 0.0
    end_phase: float = 360.0

    def points(self, count: int) -> List[SkyPoint]:
        """``count`` evenly spaced points along the scan."""
        if count <= 0:
            return []
        px, py, pz = self.pole.to_cartesian()
        # Basis perpendicular to the pole.
        if abs(pz) < 0.9:
            ref = np.array([0.0, 0.0, 1.0])
        else:
            ref = np.array([1.0, 0.0, 0.0])
        pole_vec = np.array([px, py, pz])
        u = np.cross(pole_vec, ref)
        u = u / np.linalg.norm(u)
        v = np.cross(pole_vec, u)
        phases = np.linspace(self.start_phase, self.end_phase, count, endpoint=False)
        result = []
        for phase in phases:
            rad = math.radians(float(phase))
            vec = math.cos(rad) * u + math.sin(rad) * v
            result.append(SkyPoint.from_cartesian(float(vec[0]), float(vec[1]), float(vec[2])))
        return result


def random_sky_point(rng: np.random.Generator) -> SkyPoint:
    """A point drawn uniformly over the sphere."""
    z = rng.uniform(-1.0, 1.0)
    ra = rng.uniform(0.0, 360.0)
    dec = math.degrees(math.asin(z))
    return SkyPoint(ra=ra, dec=dec)
