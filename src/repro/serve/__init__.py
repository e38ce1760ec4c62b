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

from repro.serve.client import ServeClient, ServeError
from repro.serve.equivalence import replay_with_log, serve_with_log
from repro.serve.harness import LoadReport, loadgen_payload, run_load, run_loadgen
from repro.serve.payload import validate_payload
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.serve.server import CacheServer

__all__ = [
    "CacheServer",
    "LoadReport",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "decode_frame",
    "encode_frame",
    "loadgen_payload",
    "replay_with_log",
    "run_load",
    "run_loadgen",
    "serve_with_log",
    "validate_payload",
]
