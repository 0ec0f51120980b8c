"""`repro.service` — sweep-as-a-service on top of the Session facade.

A stdlib-only HTTP daemon (``http.server.ThreadingHTTPServer``) that
accepts declarative sweeps over JSON and executes them through one shared
:class:`~repro.api.session.Session` — one worker pool, one report cache,
one set of statistics, no matter how many clients connect. The wire schema
is exactly :meth:`~repro.api.specs.SweepSpec.to_payload`, and because the
scheduler underneath is single-flight, two clients posting overlapping
sweeps share executions and both get reports bit-identical to an
in-process ``Session.sweep`` (DESIGN.md section 15).

Endpoints:

* ``POST /sweeps`` — submit a sweep; returns its id immediately.
* ``GET /sweeps/<id>`` — status and job statistics of one sweep.
* ``GET /sweeps/<id>/reports`` — wait until done (504 after
  ``REPORT_WAIT_SECONDS``), return every report.
* ``GET /healthz`` — liveness probe.

Run it as ``smash-repro serve`` (see :mod:`repro.eval.cli`) or embed it
with :func:`running_server` in tests.
"""

from repro.service.server import build_server, running_server, serve

__all__ = ["build_server", "running_server", "serve"]
