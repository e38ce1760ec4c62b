"""Query template shapes.

The SDSS trace contains several kinds of queries -- range (cone) searches,
spatial self-joins, simple selections, aggregations and the occasional
full-sky scan -- with no single template dominating (Section 1 and 6.1).  The
decision framework only ever sees a query's object footprint and result cost,
so a template here is a small recipe for drawing those two quantities:

* how many objects the query touches (footprint breadth),
* how its result size scales with the total size of the touched objects
  (selectivity), and
* an illustrative SQL skeleton for examples and documentation.

The query draft loop of :mod:`repro.workload.sdss` makes every draw: which
template a query uses is one inverse-cdf draw against the mix's
:func:`template_cdf` (:func:`repro.workload.draws.weighted_index`); a mix
with a negative, NaN or all-zero weight is rejected when its cdf is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.repository.queries import QueryTemplate
from repro.workload.draws import weight_cdf


@dataclass(frozen=True)
class TemplateShape:
    """Statistical recipe for one query template.

    Attributes
    ----------
    name:
        One of :class:`repro.repository.queries.QueryTemplate`.
    min_objects / max_objects:
        Range of footprint sizes (number of objects accessed).
    selectivity_log_mean / selectivity_log_sigma:
        Parameters of the log-normal selectivity: the query's result cost is
        ``selectivity * total size of the touched objects`` where selectivity
        is drawn log-normally and clipped to ``max_selectivity``.
    max_selectivity:
        Hard cap on the selectivity (1.0 = the query may return everything).
    weight:
        Relative frequency of this template in the mix.
    sql_skeleton:
        Illustrative SQL with ``{predicate}`` placeholders.
    """

    name: str
    min_objects: int
    max_objects: int
    selectivity_log_mean: float
    selectivity_log_sigma: float
    max_selectivity: float
    weight: float
    sql_skeleton: str


#: The default template mix, loosely calibrated to the SkyServer traffic
#: reports: selections and cone-search ranges dominate both the query count
#: and the result bytes (most astronomy traffic asks for objects in a small
#: sky region), spatial self-joins contribute a meaningful share of bytes
#: over slightly wider footprints, and wide scans are rare.
DEFAULT_TEMPLATES: Tuple[TemplateShape, ...] = (
    TemplateShape(
        name=QueryTemplate.SELECTION,
        min_objects=1,
        max_objects=2,
        selectivity_log_mean=-6.0,
        selectivity_log_sigma=1.2,
        max_selectivity=0.1,
        weight=0.45,
        sql_skeleton=(
            "SELECT objID, ra, dec, u, g, r, i, z FROM PhotoObj "
            "WHERE {predicate}"
        ),
    ),
    TemplateShape(
        name=QueryTemplate.RANGE,
        min_objects=1,
        max_objects=3,
        selectivity_log_mean=-5.2,
        selectivity_log_sigma=1.0,
        max_selectivity=0.25,
        weight=0.32,
        sql_skeleton=(
            "SELECT p.* FROM PhotoObj p JOIN dbo.fGetNearbyObjEq({ra}, {dec}, {radius}) n "
            "ON p.objID = n.objID"
        ),
    ),
    TemplateShape(
        name=QueryTemplate.SPATIAL_JOIN,
        min_objects=2,
        max_objects=4,
        selectivity_log_mean=-5.5,
        selectivity_log_sigma=1.0,
        max_selectivity=0.25,
        weight=0.12,
        sql_skeleton=(
            "SELECT p1.objID, p2.objID FROM PhotoObj p1 JOIN PhotoObj p2 "
            "ON p1.htmID BETWEEN p2.htmID - 10 AND p2.htmID + 10 WHERE {predicate}"
        ),
    ),
    TemplateShape(
        name=QueryTemplate.AGGREGATION,
        min_objects=1,
        max_objects=5,
        selectivity_log_mean=-9.0,
        selectivity_log_sigma=0.8,
        max_selectivity=0.01,
        weight=0.09,
        sql_skeleton=(
            "SELECT COUNT(*), AVG(r) FROM PhotoObj WHERE {predicate} GROUP BY run"
        ),
    ),
    TemplateShape(
        name=QueryTemplate.FULL_SCAN,
        min_objects=3,
        max_objects=10,
        selectivity_log_mean=-5.0,
        selectivity_log_sigma=0.8,
        max_selectivity=0.15,
        weight=0.02,
        sql_skeleton="SELECT * FROM PhotoObj WHERE {predicate}",
    ),
)


def normalized_weights(templates: Sequence[TemplateShape]) -> np.ndarray:
    """Template weights normalised to sum to 1."""
    weights = np.array([template.weight for template in templates], dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("template weights must sum to a positive value")
    return weights / total


def template_cdf(templates: Sequence[TemplateShape]) -> Tuple[float, ...]:
    """The cdf of the mix (validated and memoised per weight vector)."""
    return weight_cdf(tuple(template.weight for template in templates))


def template_mix_summary(templates: Sequence[TemplateShape]) -> Dict[str, float]:
    """Mapping of template name to normalised weight, for reports."""
    weights = normalized_weights(templates)
    return {template.name: float(weight) for template, weight in zip(templates, weights, strict=True)}
