"""Transport tests: stdlib HTTP server, ASGI app, CLI wiring."""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import importlib.util
import json
import socket
import threading

import pytest

from repro.cli import build_parser
from repro.exceptions import MissingDependencyError
from repro.service import (
    DecisionHTTPServer,
    DecisionService,
    create_app,
    run_uvicorn,
    static_resolver,
)

ROBOTS = "User-agent: *\nAllow: /public\nDisallow: /\n"


def make_service(**kwargs) -> DecisionService:
    return DecisionService(
        static_resolver({"s.example": ROBOTS}), clock=lambda: 1000.0, **kwargs
    )


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.lower().split(b"\r\n"):
        if line.startswith(b"content-length:"):
            length = int(line.partition(b":")[2])
    body = await reader.readexactly(length)
    return status, json.loads(body)


async def request(
    reader, writer, method: str, target: str, body: bytes | None = None
) -> tuple[int, dict]:
    frame = f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
    if body is not None:
        frame += f"Content-Length: {len(body)}\r\n"
    payload = frame.encode() + b"\r\n" + (body or b"")
    writer.write(payload)
    await writer.drain()
    return await read_response(reader)


def with_server(scenario):
    """Run ``scenario(host, port, service)`` against a live server."""

    async def runner():
        service = make_service()
        server = DecisionHTTPServer(service, port=0)
        host, port = await server.start()
        try:
            return await scenario(host, port, service)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestHTTPServer:
    def test_can_fetch_roundtrip(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            status, payload = await request(
                reader,
                writer,
                "GET",
                "/can_fetch?origin=s.example&agent=GPTBot&path=/hidden",
            )
            writer.close()
            return status, payload

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["allowed"] is False

    def test_keep_alive_serves_ordered_responses(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            answers = []
            # First request is cold (async resolve); followups hit the
            # sync fast path on the same connection.
            for path in ("/public/a", "/b", "/public/c", "/d"):
                status, payload = await request(
                    reader,
                    writer,
                    "GET",
                    f"/can_fetch?origin=s.example&agent=Bot&path={path}",
                )
                answers.append((status, payload["path"], payload["allowed"]))
            writer.close()
            return answers

        answers = with_server(scenario)
        assert answers == [
            (200, "/public/a", True),
            (200, "/b", False),
            (200, "/public/c", True),
            (200, "/d", False),
        ]

    def test_pipelined_requests_answered_in_order(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            # Two full frames in one write: the cold first request goes
            # async while the second sits queued behind it.
            raw = (
                b"GET /can_fetch?origin=s.example&agent=B&path=/x HTTP/1.1\r\n"
                b"Host: t\r\n\r\n"
                b"GET /can_fetch?origin=s.example&agent=B&path=/public/y "
                b"HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            writer.write(raw)
            await writer.drain()
            first = await read_response(reader)
            second = await read_response(reader)
            writer.close()
            return first, second

        first, second = with_server(scenario)
        assert first[1]["path"] == "/x"
        assert first[1]["allowed"] is False
        assert second[1]["path"] == "/public/y"
        assert second[1]["allowed"] is True

    def test_post_can_fetch_many(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps(
                {
                    "origin": "s.example",
                    "agent": "GPTBot",
                    "paths": ["/public/a", "/secret", "/robots.txt"],
                }
            ).encode()
            status, payload = await request(
                reader, writer, "POST", "/can_fetch_many", body
            )
            writer.close()
            return status, payload

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["allowed"] == [True, False, True]

    def test_post_probe_matrix_custom_probes(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps(
                {
                    "origin": "s.example",
                    "agents": ["GPTBot", "Googlebot"],
                    "paths": ["/public", "/x"],
                }
            ).encode()
            status, payload = await request(
                reader, writer, "POST", "/probe_matrix", body
            )
            writer.close()
            return status, payload

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["matrix"] == [[True, False], [True, False]]

    def test_enforce_and_stats(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            status, verdict = await request(
                reader,
                writer,
                "GET",
                "/enforce?origin=s.example&agent=GPTBot&path=/secret"
                "&ip=8.8.8.8&asn=15169",
            )
            stats_status, stats = await request(
                reader, writer, "GET", "/stats"
            )
            writer.close()
            return status, verdict, stats_status, stats

        status, verdict, stats_status, stats = with_server(scenario)
        assert (status, stats_status) == (200, 200)
        assert verdict["verdict"] == "robots_denied"
        assert stats["gateways"]["s.example"]["robots_denied"] == 1
        assert stats["endpoints"]["enforce"]["requests"] == 1

    def test_healthz(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(reader, writer, "GET", "/healthz")
            writer.close()
            return result

        assert with_server(scenario) == (200, {"status": "ok"})

    def test_missing_params_is_400(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(
                reader, writer, "GET", "/can_fetch?origin=s.example"
            )
            writer.close()
            return result

        status, payload = with_server(scenario)
        assert status == 400
        assert "agent" in payload["error"]

    def test_bad_json_body_is_400(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(
                reader, writer, "POST", "/can_fetch_many", b"{nope"
            )
            writer.close()
            return result

        status, payload = with_server(scenario)
        assert status == 400

    def test_unknown_route_is_404(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(reader, writer, "GET", "/whatever")
            writer.close()
            return result

        assert with_server(scenario)[0] == 404

    def test_resolver_failure_is_502(self):
        async def runner():
            def resolver(origin):
                raise OSError("upstream gone")

            service = DecisionService(resolver, clock=lambda: 0.0)
            server = DecisionHTTPServer(service, port=0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                result = await request(
                    reader,
                    writer,
                    "GET",
                    "/can_fetch?origin=x&agent=a&path=/p",
                )
                writer.close()
                return result
            finally:
                await server.stop()

        status, payload = asyncio.run(runner())
        assert status == 502
        assert "upstream gone" in payload["error"]

    def test_connection_close_honored(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            status, _ = await read_response(reader)
            trailing = await reader.read()
            writer.close()
            return status, trailing

        status, trailing = with_server(scenario)
        assert status == 200
        assert trailing == b""  # server closed after the response

    def test_fast_path_and_async_path_agree_bytewise(self):
        async def scenario(host, port, service):
            target = "/can_fetch?origin=s.example&agent=GPTBot&path=/p"
            reader, writer = await asyncio.open_connection(host, port)
            cold = await request(reader, writer, "GET", target)
            warm = await request(reader, writer, "GET", target)
            writer.close()
            return cold, warm

        cold, warm = with_server(scenario)
        assert cold == warm


@contextlib.contextmanager
def server_in_thread():
    """A live server on its own event loop and thread.

    The client side uses blocking sockets with timeouts, so a server
    loop stuck inside ``data_received`` fails the test instead of
    hanging it (the stuck daemon thread is abandoned).
    """
    loop = asyncio.new_event_loop()
    server = DecisionHTTPServer(make_service(), port=0)
    bound: list[tuple[str, int]] = []
    ready = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        bound.append(loop.run_until_complete(server.start()))
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5), "server did not start"
    try:
        yield bound[0]
    finally:
        stop = asyncio.run_coroutine_threadsafe(server.stop(), loop)
        with contextlib.suppress(concurrent.futures.TimeoutError):
            stop.result(timeout=2)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=2)
        if not thread.is_alive():
            loop.close()


def exchange(address, payload: bytes, timeout: float = 2.0) -> bytes:
    """Send ``payload`` on a fresh connection; return every byte the
    server sends before closing (or before ``timeout`` runs out)."""
    received = b""
    with socket.create_connection(address, timeout=timeout) as client:
        client.sendall(payload)
        try:
            while chunk := client.recv(65536):
                received += chunk
        except socket.timeout:
            pass
    return received


class TestHostileFraming:
    """Malformed ``Content-Length`` values get a 400 and a closed
    connection; none of them may stall the event loop (a negative
    length used to re-parse the same bytes forever)."""

    HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

    @pytest.mark.parametrize(
        "value", [b"-1000", b"+5", b"1_0", b"0x10", b"", b"5 5"]
    )
    def test_bad_content_length_is_400_and_server_stays_live(self, value):
        with server_in_thread() as address:
            reply = exchange(
                address,
                b"POST /can_fetch_many HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + value + b"\r\n\r\n" + b"x" * 64,
            )
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in reply
            assert b"Content-Length" in reply
            healthz = exchange(address, self.HEALTHZ)
            assert healthz.startswith(b"HTTP/1.1 200 ")
            assert healthz.endswith(b'{"status":"ok"}')


class TestASGIApp:
    @staticmethod
    async def call(app, method, path, query=b"", body=b""):
        messages = [{"type": "http.request", "body": body}]
        sent: list[dict] = []

        async def receive():
            return messages.pop(0)

        async def send(message):
            sent.append(message)

        scope = {
            "type": "http",
            "method": method,
            "path": path,
            "query_string": query,
        }
        await app(scope, receive, send)
        status = sent[0]["status"]
        payload = json.loads(sent[1]["body"])
        return status, payload

    def test_http_scope_can_fetch(self):
        app = create_app(make_service())
        status, payload = asyncio.run(
            self.call(
                app,
                "GET",
                "/can_fetch",
                b"origin=s.example&agent=GPTBot&path=/secret",
            )
        )
        assert status == 200
        assert payload["allowed"] is False

    def test_http_scope_post_body(self):
        app = create_app(make_service())
        body = json.dumps(
            {"origin": "s.example", "agent": "B", "paths": ["/public"]}
        ).encode()
        status, payload = asyncio.run(
            self.call(app, "POST", "/can_fetch_many", b"", body)
        )
        assert status == 200
        assert payload["allowed"] == [True]

    def test_lifespan_acks(self):
        app = create_app(make_service())

        async def scenario():
            messages = [
                {"type": "lifespan.startup"},
                {"type": "lifespan.shutdown"},
            ]
            acks = []

            async def receive():
                return messages.pop(0)

            async def send(message):
                acks.append(message["type"])

            await app({"type": "lifespan"}, receive, send)
            return acks

        assert asyncio.run(scenario()) == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]

    @pytest.mark.skipif(
        importlib.util.find_spec("uvicorn") is not None,
        reason="uvicorn installed: degrade path not reachable",
    )
    def test_run_uvicorn_degrades_without_extra(self):
        with pytest.raises(MissingDependencyError, match=r"\[serve\]"):
            run_uvicorn(make_service())


class TestServeCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8041
        assert args.robots == []
        assert args.robots_dir is None
        assert not args.asgi

    def test_robots_binding_parsing(self, tmp_path):
        from repro.cli import _serve_resolver

        robots_file = tmp_path / "r.txt"
        robots_file.write_text(ROBOTS, encoding="utf-8")
        args = build_parser().parse_args(
            ["serve", "--robots", f"mine.example={robots_file}"]
        )
        resolver = _serve_resolver(args)
        assert resolver("mine.example") == ROBOTS
        assert resolver("other.example") is None

    def test_bad_robots_binding_is_config_error(self):
        from repro.cli import _serve_resolver
        from repro.exceptions import ConfigError

        args = build_parser().parse_args(["serve", "--robots", "no-equals"])
        with pytest.raises(ConfigError):
            _serve_resolver(args)

    def test_serve_end_to_end_over_real_socket(self, capsys):
        """`repro-study serve --port 0` semantics: bind, answer, stop."""

        async def scenario():
            from repro.service import corpus_resolver, serve

            service = DecisionService(corpus_resolver())
            ready = asyncio.Event()
            bound: dict[str, int] = {}
            task = asyncio.create_task(
                serve(
                    service,
                    host="127.0.0.1",
                    port=0,
                    ready=ready,
                    on_bound=lambda host, port: bound.update(port=port),
                )
            )
            await asyncio.wait_for(ready.wait(), timeout=5.0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound["port"]
            )
            result = await request(
                reader,
                writer,
                "GET",
                "/can_fetch?origin=v3.example&agent=GPTBot&path=/page",
            )
            writer.close()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return result

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["allowed"] is False
        assert "serving on http://127.0.0.1:" in capsys.readouterr().out
