"""Stdlib HTTP exporter: /metrics, /healthz, /statusz on a daemon thread.

One :class:`MetricsExporter` serves a :class:`~repro.service.engine.
StreamEngine`'s observability surface over plain ``http.server`` — no
dependencies, so it can run inside any deployment of the repro:

* ``/metrics`` — the engine registry in Prometheus text exposition
  format.  When probe refreshing is on, SHE introspection gauges
  (:meth:`StreamEngine.update_probe_gauges`) are recomputed first.
* ``/healthz`` — 200 with ``{"status": "ok"}`` while every shard has a
  live, trusted worker *and* the write-ahead log (when enabled) is not
  erroring; 503 with the down-shard list / WAL error (and the
  supervisor's view, when one is attached) otherwise.  Load balancers
  and the CI smoke test key off the status code alone.
* ``/statusz`` — the full JSON story: stats snapshot plus one section
  per registered hook (overload, durability, supervisor, drift,
  windowed telemetry, SLO states — and anything added through
  :meth:`MetricsExporter.register_statusz_section`), then per-shard
  probes (when refreshing is on) and config.
* ``/alertz`` — the SLO engine's firing/pending burn-rate alerts
  (each GET triggers an evaluation); ``{"enabled": false}`` when no
  :class:`~repro.obs.slo.SloEngine` is attached.

Thread safety: the exporter thread only ever touches the registry
(lock-free snapshot reads), plain engine attributes, and — only when
``refresh_probes`` is true — the serial executor's in-process shards.
Probe refresh defaults *off* for process executors: their shards live
behind a single pipe per worker, and a scrape-thread RPC would
interleave with the engine thread's protocol.  For those deployments,
call ``engine.update_probe_gauges()`` from the engine's own thread
(e.g. after each checkpoint) and the exporter serves the latest values.
Probing a process engine settles its flush round in flight first (the
snapshot RPCs share the worker pipes); a serial engine's shards are
probed in place without settling, so a scrape never changes engine
state.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MetricsExporter"]


class MetricsExporter:
    """Serve one engine's metrics/health/status over HTTP.

    Args:
        engine: the :class:`StreamEngine` to expose (must have been
            built with ``obs=True`` for a non-empty ``/metrics``).
        host: bind address (default loopback).
        port: bind port; ``0`` picks an ephemeral port, read it back
            from :attr:`port` after :meth:`start`.
        refresh_probes: recompute SHE probe gauges on each scrape.
            ``None`` (default) auto-enables for serial executors only
            (see module docs for why).
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        refresh_probes: bool | None = None,
    ):
        self.engine = engine
        self._host = host
        self._port = port
        if refresh_probes is None:
            refresh_probes = getattr(engine, "executor_kind", "") == "serial"
        self.refresh_probes = refresh_probes
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        # /statusz sections are pluggable: name -> zero-arg callable
        # returning a JSON-safe value, or None to omit the section this
        # scrape.  The defaults probe optional engine surfaces lazily,
        # so subsystems attached after construction still show up.
        self._statusz_sections: dict = {}
        for name, fn in self._default_sections():
            self.register_statusz_section(name, fn)

    def register_statusz_section(self, name: str, fn) -> None:
        """Add (or replace) one named ``/statusz`` section.

        ``fn`` is called on each scrape with no arguments; return
        ``None`` to omit the section, any JSON-serialisable value to
        include it.  A raising hook degrades to ``{"error": ...}``
        rather than failing the scrape.
        """
        if not callable(fn):
            raise TypeError(f"statusz section {name!r} needs a callable")
        self._statusz_sections[str(name)] = fn

    def _default_sections(self):
        engine = self.engine

        def overload():
            fn = getattr(engine, "overload_snapshot", None)
            return fn() if fn is not None else None

        def durability():
            fn = getattr(engine, "wal_status", None)
            return fn() if fn is not None else None

        def supervisor():
            sup = getattr(engine, "_supervisor", None)
            return sup.snapshot() if sup is not None else None

        def drift():
            monitor = getattr(engine, "_drift_monitor", None)
            return monitor.statusz_section() if monitor is not None else None

        def telemetry():
            section = getattr(engine.obs, "telemetry_section", None)
            return section() if section is not None else None

        def slo():
            slo_engine = getattr(engine, "_slo_engine", None)
            return slo_engine.statusz_section() if slo_engine is not None else None

        return (
            ("overload", overload),
            ("durability", durability),
            ("supervisor", supervisor),
            ("drift", drift),
            ("telemetry", telemetry),
            ("slo", slo),
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("exporter is not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "MetricsExporter":
        if self._server is not None:
            return self
        self._server = ThreadingHTTPServer(
            (self._host, self._port), self._make_handler()
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-obs-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- endpoint bodies -----------------------------------------------------

    def _metrics_text(self) -> str:
        if self.refresh_probes:
            try:
                self.engine.update_probe_gauges()
            except Exception:  # a scrape must never take the engine down
                pass
        refresh = getattr(self.engine.obs, "refresh_telemetry", None)
        if refresh is not None:
            try:
                refresh()  # windowed rates/quantiles + stage gauges
            except Exception:
                pass
        return self.engine.obs.registry.render()

    def _health(self) -> tuple[int, dict]:
        down = list(getattr(self.engine, "down_shards", ()))
        closed = getattr(self.engine, "_closed", False)
        # a WAL whose last append/fsync failed means new data is not
        # durable: that is degraded service even with every shard up
        wal_status_fn = getattr(self.engine, "wal_status", None)
        wal = wal_status_fn() if wal_status_fn is not None else {"enabled": False}
        wal_error = wal.get("last_error")
        healthy = not down and not closed and wal_error is None
        body = {
            "status": "ok" if healthy else ("closed" if closed else "degraded"),
            "down_shards": down,
        }
        if wal.get("enabled"):
            body["wal"] = {
                "last_error": wal_error,
                "lag_items": wal.get("lag_items"),
                "fsync": wal.get("fsync"),
            }
        supervisor = getattr(self.engine, "_supervisor", None)
        if supervisor is not None:
            body["supervisor"] = supervisor.snapshot()
        return (200 if healthy else 503), body

    def _status(self) -> dict:
        # tick=False: a scrape is a pure read — the idle-engine flush
        # belongs to the engine thread's own stats/tick calls, never to
        # this thread (flushing mutates buffers; probing only reads)
        body = {
            "stats": self.engine.stats_snapshot(tick=False),
            "config": self.engine.config.to_json(),
            "executor": self.engine.executor_kind,
            "obs_enabled": self.engine.obs.enabled,
        }
        for name, fn in self._statusz_sections.items():
            try:
                section = fn()
            except Exception as exc:  # one bad hook must not eat the page
                section = {"error": str(exc)}
            if section is not None:
                body[name] = section
        if self.refresh_probes:
            try:
                body["probes"] = self.engine.probe_shards()
            except Exception:
                pass
        return body

    def _alertz(self) -> dict:
        slo_engine = getattr(self.engine, "_slo_engine", None)
        if slo_engine is None:
            return {"enabled": False, "alerts": [], "firing": []}
        return slo_engine.alertz_payload()

    def _make_handler(self):
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # keep scrapes off stderr
                pass

            def _reply(self, code: int, content_type: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._reply(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            exporter._metrics_text().encode(),
                        )
                    elif path == "/healthz":
                        code, body = exporter._health()
                        self._reply(
                            code, "application/json", json.dumps(body).encode()
                        )
                    elif path == "/statusz":
                        self._reply(
                            200,
                            "application/json",
                            json.dumps(exporter._status()).encode(),
                        )
                    elif path == "/alertz":
                        self._reply(
                            200,
                            "application/json",
                            json.dumps(exporter._alertz()).encode(),
                        )
                    else:
                        self._reply(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # client went away mid-reply
                    pass
                except Exception as exc:  # never kill the serving thread
                    try:
                        self._reply(
                            500, "text/plain", f"error: {exc}\n".encode()
                        )
                    except Exception:
                        pass

        return Handler
