"""repro.server — network-facing ranking service (stdlib only).

A threaded HTTP JSON API fronting the batch subsystem: requesters POST
collected worker answers (or simulation specs) once — the paper's
non-interactive model — and get the aggregated ranking back, while the
admission gate, per-request deadlines, Prometheus metrics and graceful
drain make the endpoint safe to run always-on.

Quickstart
----------
>>> from repro.server import RankingServer, ServerConfig
>>> server = RankingServer(ServerConfig(port=0, workers=2))
>>> server.start()
>>> server.url  # doctest: +SKIP
'http://127.0.0.1:54321'
>>> server.stop()
True

The CLI exposes the same machinery as ``repro serve``; the matching
client lives in :mod:`repro.client`.  One server process uses every
core: cold job attempts, and the request codec (body JSON and job
decode, fingerprint, result encoding) whenever a worker is idle, run
on its own pool of ``min(workers, usable CPUs)`` worker processes,
while the serving process keeps the sockets, admission, the result
cache and the streaming sessions.  To scale further, run independent
``repro serve`` instances behind a load balancer.
"""

from .app import AdmissionGate, RankingServer, ServerConfig
from .prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    sanitize_metric_name,
)

__all__ = [
    "AdmissionGate",
    "PROMETHEUS_CONTENT_TYPE",
    "RankingServer",
    "ServerConfig",
    "render_prometheus",
    "sanitize_metric_name",
]
