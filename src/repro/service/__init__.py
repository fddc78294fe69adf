"""Network-facing evaluation service (JSON over HTTP, stdlib only).

The batch runtime made bulk evaluation cheap inside one process; this
package shares that warmth across processes and machines: an HTTP server
(one event loop per process) whose endpoints all route through one
process-wide set of cached :class:`~repro.runtime.BatchEvaluator`
instances, so every client benefits from every other client's evaluations.

* :class:`~repro.service.server.EvaluationService` / ``repro serve`` — the
  server (embeddable or CLI-run).
* :class:`~repro.service.supervisor.Supervisor` / ``repro serve
  --workers N`` — the pre-forked multi-worker front: crash restarts,
  graceful SIGTERM draining, a shared cross-process disk cache, and
  fleet-aggregated ``/healthz``.
* :class:`~repro.service.client.ServiceClient` — a thin stdlib client whose
  responses deserialize back into :class:`~repro.core.cost.results.CostReport`
  objects, bit-identical to in-process ``api.evaluate`` results.
* :mod:`~repro.service.loadtest` / ``repro loadtest`` — open-loop Poisson
  load generator producing the req/s-vs-workers saturation curve.
* :mod:`~repro.service.schema` — request validation and the typed JSON
  error payloads.

See ``docs/api.md`` for the full endpoint reference. Each re-exported
name loads its submodule on first use, so a ``repro serve`` start never
loads the client or the load generator.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.service.client": (
        "DseResult",
        "EvaluateResult",
        "ServiceClient",
        "ServiceError",
        "SweepResult",
    ),
    "repro.service.handlers": ("ServiceState",),
    "repro.service.loadtest": (
        "format_loadtest",
        "run_loadtest",
        "run_worker_comparison",
    ),
    "repro.service.schema": ("RequestError",),
    "repro.service.server": ("EvaluationService", "serve"),
    "repro.service.supervisor": ("Supervisor",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
