"""``repro.serve``: the cache + policy stack stood up as a running service.

The paper's middleware is a *served* system -- queries arrive over a network,
the cache answers or forwards them, updates race the reads -- and this
package turns the single-process replay stack into exactly that shape:

* :mod:`repro.serve.protocol` -- the newline-delimited-JSON wire format
  (versioned query/update/stats frames reusing the trace event dicts);
* :mod:`repro.serve.server` -- an asyncio TCP front-end wrapping one
  kernel/policy/Repository stack behind a single-writer event loop, so
  eviction decisions stay deterministic under concurrent clients;
* :mod:`repro.serve.client` -- a small async NDJSON client;
* :mod:`repro.serve.harness` -- the closed-loop load generator: any
  :class:`~repro.workload.trace.TraceStream` fanned out over N concurrent
  clients, per-request latency recorded into a
  :class:`~repro.sim.metrics.StreamingHistogram`, results emitted as a
  ``repro.bench/v2`` payload;
* :mod:`repro.serve.payload` -- that payload's schema id, its validator and
  the peak-RSS / git-SHA stamps it carries;
* :mod:`repro.serve.equivalence` -- the sim-vs-served bridge: run the same
  trace + policy through a replay and through the server (the same kernel
  ``step`` either way) and prove the decision logs and traffic counters
  byte-identical.

The stack is stdlib-asyncio only; the optional ``[serve]`` extra installs
``uvloop``, which the server uses automatically when importable.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "CacheServer": "repro.serve.server",
    "LoadReport": "repro.serve.harness",
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "decode_frame": "repro.serve.protocol",
    "encode_frame": "repro.serve.protocol",
    "loadgen_payload": "repro.serve.harness",
    "replay_with_log": "repro.serve.equivalence",
    "run_load": "repro.serve.harness",
    "run_loadgen": "repro.serve.harness",
    "serve_with_log": "repro.serve.equivalence",
    "validate_payload": "repro.serve.payload",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
