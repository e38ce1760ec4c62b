"""Lazily-generated trace sources for the standard (evolving) workload.

:class:`EvolvingTraceStream` is the streaming twin of the batch pipeline
``SDSSQueryGenerator.generate() + SurveyUpdateGenerator.generate() +
interleave()``: the same catalogue, the same seeds, the same event sequence
-- but produced one event at a time, so the simulation engines can replay
traces far larger than memory.

Byte-identity with the batch path is engineered, not hoped for:

* every generator draws its RNG in a fixed order shared with the batch path
  (the query generator's one draft loop, ``_iter_drafts``; the update
  generator's three phases: arrivals, one sized cost draw, then kind and
  rows per update as it is built), so a fresh, identically-seeded generator
  instance reproduces the exact sequence;
* the ``target_total_cost`` calibration factor requires a whole-stream cost
  sum, which the batch path computes with NumPy's pairwise reduction.  The
  stream runs one *calibration pass* per side (queries, updates) on a fresh
  generator, accumulating only the cost vector and reducing it through the
  same NumPy sum -- then frees it.  The scratch is 8 bytes per event while
  calibrating, never event objects; the factors are cached, so repeated
  replays calibrate once.

The determinism harness (``tests/determinism_cases.py``) and the
streaming-vs-materialised equivalence tests pin this equality.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.repository.objects import ObjectCatalog
from repro.repository.queries import Query
from repro.repository.updates import Update
from repro.workload.mixer import iter_interleaved
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.trace import TraceEvent, TraceStream
from repro.workload.updates import SurveyUpdateGenerator, UpdateWorkloadConfig


class EvolvingTraceStream(TraceStream):
    """Streaming source for the paper's evolving-hotspot workload.

    Parameters
    ----------
    catalog:
        The object catalogue both generators draw from.
    query_config / update_config:
        The generator configurations (identical to what the batch scenario
        builder would hand ``SDSSQueryGenerator`` / ``SurveyUpdateGenerator``).
    mode / seed:
        Interleaving mode and seed (see :func:`repro.workload.mixer.interleave`).

    The stream is picklable (it carries only the catalogue and the configs),
    so it can cross a sweep-worker process boundary; the cached calibration
    factors are recomputed per process on first use.
    """

    def __init__(
        self,
        catalog: ObjectCatalog,
        query_config: SDSSWorkloadConfig,
        update_config: UpdateWorkloadConfig,
        mode: str = "uniform",
        seed: int = 99,
    ) -> None:
        self._catalog = catalog
        self._query_config = query_config
        self._update_config = update_config
        self._mode = mode
        self._seed = seed
        #: (query scale, update scale), computed once per process.
        self._scales: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Pickling (sweeps ship sources to worker processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_scales"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Generator plumbing
    # ------------------------------------------------------------------
    def _fresh_query_generator(self) -> SDSSQueryGenerator:
        return SDSSQueryGenerator(self._catalog, self._query_config)

    def _fresh_update_generator(self) -> SurveyUpdateGenerator:
        return SurveyUpdateGenerator(self._catalog, self._update_config)

    def _cost_scales(self) -> Tuple[float, float]:
        """The two ``target_total_cost`` factors (calibrated once, cached)."""
        scales = self._scales
        if scales is None:
            scales = (
                self._fresh_query_generator().cost_scale(),
                self._fresh_update_generator().cost_scale(),
            )
            self._scales = scales
        return scales

    def iter_queries(self) -> Iterator[Query]:
        """The scaled query stream (pre-interleave timestamps)."""
        query_scale, _ = self._cost_scales()
        return self._fresh_query_generator().iter_queries(query_scale)

    def iter_updates(self) -> Iterator[Update]:
        """The scaled update stream (pre-interleave timestamps)."""
        _, update_scale = self._cost_scales()
        return self._fresh_update_generator().iter_updates(update_scale)

    # ------------------------------------------------------------------
    # TraceStream contract
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._query_config.query_count + self._update_config.update_count

    @property
    def query_count(self) -> int:
        return self._query_config.query_count

    @property
    def update_count(self) -> int:
        return self._update_config.update_count

    def iter_events(self) -> Iterator[TraceEvent]:
        return iter_interleaved(
            self.iter_queries(),
            self.iter_updates(),
            self._query_config.query_count,
            self._update_config.update_count,
            mode=self._mode,
            seed=self._seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvolvingTraceStream(queries={self.query_count}, "
            f"updates={self.update_count}, mode={self._mode!r})"
        )
