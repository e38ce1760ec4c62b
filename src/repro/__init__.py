"""Delta: a dynamic data middleware cache for rapidly-growing scientific repositories.

This library is a from-scratch reproduction of the system described in

    Malik, Wang, Little, Chaudhary, Thakar.
    "A Dynamic Data Middleware Cache for Rapidly-Growing Scientific
    Repositories", Middleware 2010.

The public API is organised as follows:

* :mod:`repro.core` -- the decision framework: the
  :class:`repro.core.VCoverPolicy` online algorithm, the
  :class:`repro.core.BenefitPolicy` baseline and the three yardstick policies,
* :mod:`repro.flow` -- max-flow / minimum-weight vertex-cover substrate,
* :mod:`repro.cache` -- the space-constrained object store and eviction
  policies (Greedy-Dual-Size and friends),
* :mod:`repro.repository` -- data objects, queries, updates and the server,
* :mod:`repro.sky` -- the hierarchical triangular mesh and sky partitioning,
* :mod:`repro.workload` -- SDSS-style trace generators,
* :mod:`repro.network` -- traffic cost accounting,
* :mod:`repro.sim` -- the event-driven simulator, the multi-policy runner,
  multi-cache fleets and the :class:`repro.Delta` deployment facade,
* :mod:`repro.experiments` -- the declarative experiment registry, with one
  registered experiment per table/figure of the paper,
* :mod:`repro.api` -- the stable facade: ``list_experiments`` /
  ``run_experiment`` / ``load_scenario`` / ``run_scenario`` (what the CLI
  and the examples use).

Quickstart::

    from repro import Delta, DeltaConfig
    from repro.repository.catalog import sdss_catalog
    from repro.workload import SDSSQueryGenerator, SurveyUpdateGenerator, interleave

    catalog = sdss_catalog(object_count=68)
    delta = Delta(catalog, DeltaConfig(policy="vcover", cache_fraction=0.3))
    trace = interleave(
        SDSSQueryGenerator(catalog).generate(),
        SurveyUpdateGenerator(catalog).generate(),
    )
    for event in trace:
        if event.kind == "update":
            delta.ingest_update(event.update)
        else:
            delta.submit_query(event.query)
    print(delta.traffic_report())
"""

from repro._lazy import lazy_exports

__version__ = "1.2.0"

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "BenefitConfig": "repro.core.benefit",
    "BenefitPolicy": "repro.core.benefit",
    "Delta": "repro.sim.delta",
    "DeltaConfig": "repro.sim.delta",
    "NoCachePolicy": "repro.core.yardsticks",
    "ReplicaPolicy": "repro.core.yardsticks",
    "SOptimalPolicy": "repro.core.yardsticks",
    "VCoverConfig": "repro.core.vcover",
    "VCoverPolicy": "repro.core.vcover",
    "DataObject": "repro.repository.objects",
    "ObjectCatalog": "repro.repository.objects",
    "Query": "repro.repository.queries",
    "Repository": "repro.repository.server",
    "Update": "repro.repository.updates",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__ = lazy_exports(__name__, _EXPORTS)
