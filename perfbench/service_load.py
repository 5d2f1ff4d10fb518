"""The ``service`` workload: the decision service over real sockets.

The server runs in its own process (:func:`serve`), started with the
program's own classes, ``DecisionService(corpus_resolver())`` behind
``DecisionHTTPServer``, and steered between passes through a line
protocol on its stdin (``trace on``, ``trace off``, ``stats``,
``quit``).  One generator process (:func:`generate`) drives it as a
closed loop: two keep-alive connections, each sending its next request
only after the reply to the previous one arrived, the way a crawler
sidecar asks before it fetches.  Every tenth request is a
``POST /can_fetch_many`` batch of 32 paths, the rest are single
``GET /can_fetch`` probes, in a rotation fixed by the seed.

Every reply is compared byte for byte with the verdict the generator
computes in-process; every request has a deadline, after which its
connection is dropped and the request counts as failed.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import sys
import time

import layers
import reference
from tracer import Tracer
from workloads import Outcome

CONNECTIONS = 2
BATCH_EVERY = 10
BATCH_SIZE = 32
ROTATION = 220
#: Server starts per run: each one is a ``setup_s`` sample followed by
#: a ``cold_ref`` pass; the last one serves the timed passes.
STARTS = 5
#: Requests per reference sample (see :class:`_EchoReference`).
ECHO_REQUESTS = 3000
REQUEST_DEADLINE_S = 2.0
START_DEADLINE_S = 30.0
#: The whole run may take this much longer than its time budget.
RUN_SLACK_S = 90.0

ORIGINS = ("base.example", "v1.example", "v2.example", "v3.example", "simple.example")
AGENTS = (
    "GPTBot",
    "ClaudeBot",
    "Googlebot",
    "CCBot",
    "Bytespider",
    "PerplexityBot",
    "Mozilla/5.0",
    "Unknown/1.0",
)
PATHS = (
    "/",
    "/robots.txt",
    "/public/page-1",
    "/news/article-7",
    "/admin/settings",
    "/api/v2/items.json",
    "/page-data/index",
    "/tmp/cache-entry",
    "/people/staff",
    "/events/2025",
)


# -- server process ------------------------------------------------------


async def _serve() -> None:
    from repro.service import DecisionService, corpus_resolver
    from repro.service.http import DecisionHTTPServer

    server = DecisionHTTPServer(DecisionService(corpus_resolver()), port=0)
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    tracer = Tracer()
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command in ("", "quit"):
                break
            if command == "trace on":
                tracer.reset()
                layers.install(tracer, os.devnull)
                reply: dict = {}
            elif command == "trace off":
                tracer.restore()
                reply = {"layers": layers.per_layer(tracer)}
            elif command == "stats":
                reply = {
                    "cpu_s": time.process_time(),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024,
                }
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        tracer.restore()
        await server.stop()


def serve() -> None:
    asyncio.run(_serve())


# -- generator -----------------------------------------------------------


def build_rotation(seed: int) -> list[tuple[bytes, str, str, object]]:
    """The seeded request rotation: ``(frame, origin, agent, path or
    paths)`` per request, a batch every :data:`BATCH_EVERY`."""
    rng = random.Random(seed)
    rotation = []
    for index in range(ROTATION):
        origin = rng.choice(ORIGINS)
        agent = rng.choice(AGENTS)
        if index % BATCH_EVERY == BATCH_EVERY - 1:
            paths = [f"{rng.choice(PATHS).rstrip('/')}/{k}" for k in range(BATCH_SIZE)]
            body = json.dumps({"origin": origin, "agent": agent, "paths": paths}).encode()
            frame = (
                b"POST /can_fetch_many HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            rotation.append((frame, origin, agent, paths))
        else:
            path = rng.choice(PATHS)
            target = f"/can_fetch?origin={origin}&agent={agent}&path={path}"
            frame = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            rotation.append((frame, origin, agent, path))
    return rotation


async def expected_replies(rotation) -> list[tuple[bytes, int]]:
    """``(body, verdicts)`` per request, from an in-process service."""
    from repro.service import DecisionService, corpus_resolver
    from repro.service.router import encode

    service = DecisionService(corpus_resolver())
    replies = []
    for _frame, origin, agent, probe in rotation:
        if isinstance(probe, list):
            payload = await service.can_fetch_many(origin, agent, probe)
            replies.append((encode(payload), len(probe)))
        else:
            payload = await service.can_fetch(origin, agent, probe)
            replies.append((encode(payload), 1))
    return replies


class _Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.sent_at: float | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", self.port), REQUEST_DEADLINE_S
        )

    def abort(self) -> None:
        if self.writer is not None:
            self.writer.transport.abort()

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await asyncio.wait_for(self.writer.wait_closed(), REQUEST_DEADLINE_S)
            except OSError:  # includes TimeoutError
                pass
            self.writer = None

    async def exchange(self, frame: bytes) -> tuple[bytes, bytes]:
        """Send one request and read its reply (head, body)."""
        assert self.reader is not None and self.writer is not None
        self.writer.write(frame)
        head = await self.reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return head, await self.reader.readexactly(length)


class _Pass:
    """Totals of one pass over the rotation."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.verdicts = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.wall = 0.0


async def _drive(connection: _Connection, work, replies, result: _Pass) -> None:
    for frame, index in work:
        result.attempted += 1
        expected, verdicts = replies[index]
        try:
            if connection.writer is None:
                await connection.open()
            started = time.perf_counter()
            connection.sent_at = started
            head, body = await connection.exchange(frame)
            elapsed = time.perf_counter() - started
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ValueError) as exc:
            result.failures.append(f"request {index}: {type(exc).__name__}")
            connection.abort()
            connection.writer = None
            continue
        finally:
            connection.sent_at = None
        if not head.startswith(b"HTTP/1.1 200") or body != expected:
            result.failures.append(f"request {index}: reply differs from in-process verdict")
            continue
        result.latencies.append(elapsed)
        result.verdicts += verdicts


async def _watchdog(connections: list[_Connection]) -> None:
    """Drop a connection whose request is past its deadline."""
    while True:
        await asyncio.sleep(REQUEST_DEADLINE_S / 8)
        now = time.perf_counter()
        for connection in connections:
            if connection.sent_at is not None and now - connection.sent_at > REQUEST_DEADLINE_S:
                connection.abort()


async def run_pass(
    connections, rotation, replies, requests: int, offset: int, outcome: Outcome
) -> _Pass:
    """One pass of ``requests`` requests; its requests and failures
    count in ``outcome`` even when the pass is cut short."""
    result = _Pass()
    shares: list[list[tuple[bytes, int]]] = [[] for _ in connections]
    for number in range(requests):
        index = (offset + number) % len(rotation)
        shares[number % len(connections)].append((rotation[index][0], index))
    watchdog = asyncio.ensure_future(_watchdog(connections))
    started = time.perf_counter()
    try:
        await asyncio.gather(
            *[_drive(c, share, replies, result) for c, share in zip(connections, shares)]
        )
    finally:
        result.wall = time.perf_counter() - started
        outcome.attempted += result.attempted
        outcome.failed += len(result.failures)
        outcome.failures.extend(result.failures[:5])
        watchdog.cancel()
        try:
            await watchdog
        except asyncio.CancelledError:
            pass
    return result


class _Server:
    """One server process and its control channel."""

    def __init__(self, program: str, env: dict) -> None:
        self.program = program
        self.env = env
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> float:
        """Start the server; seconds until the first ``/healthz`` 200."""
        started = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, self.program, "serve",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self.env,
        )
        line = await asyncio.wait_for(self.process.stdout.readline(), START_DEADLINE_S)
        self.port = json.loads(line)["port"]
        while True:
            connection = _Connection(self.port)
            try:
                await connection.open()
                head, _ = await asyncio.wait_for(
                    connection.exchange(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"),
                    REQUEST_DEADLINE_S,
                )
            finally:
                await connection.close()
            if head.startswith(b"HTTP/1.1 200"):
                return time.perf_counter() - started
            if time.perf_counter() - started > START_DEADLINE_S:
                raise TimeoutError("server never became healthy")

    async def command(self, text: str) -> dict:
        assert self.process is not None
        self.process.stdin.write(text.encode() + b"\n")
        await self.process.stdin.drain()
        line = await asyncio.wait_for(self.process.stdout.readline(), START_DEADLINE_S)
        return json.loads(line)

    async def stats(self) -> dict:
        """The program's own ``GET /stats``."""
        connection = _Connection(self.port)
        try:
            await connection.open()
            _, body = await asyncio.wait_for(
                connection.exchange(b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n"),
                REQUEST_DEADLINE_S,
            )
        finally:
            await connection.close()
        return json.loads(body)

    async def stop(self) -> None:
        if self.process is None:
            return
        try:
            self.process.stdin.write(b"quit\n")
            await self.process.stdin.drain()
            await asyncio.wait_for(self.process.wait(), START_DEADLINE_S)
        except OSError:  # includes TimeoutError
            await self.kill()

    async def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


class _EchoReference:
    """The reference of this workload (see ``reference.py``): the
    rotation's requests, over the same kind of connections, answered by
    an echo server with no program behind it.  A sample is the time of
    :data:`ECHO_REQUESTS` requests."""

    def __init__(self, rotation) -> None:
        self.frames = [frame for frame, *_ in rotation]
        self.process: asyncio.subprocess.Process | None = None
        self.connections: list[_Connection] = []
        self.samples: list[float] = []

    async def start(self) -> None:
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, reference.__file__, "echo",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        line = await asyncio.wait_for(self.process.stdout.readline(), START_DEADLINE_S)
        self.connections = [_Connection(int(line)) for _ in range(CONNECTIONS)]
        for connection in self.connections:
            await connection.open()

    async def _drive(self, connection: _Connection, first: int) -> None:
        for number in range(first, ECHO_REQUESTS, len(self.connections)):
            head, _ = await connection.exchange(self.frames[number % len(self.frames)])
            if not head.startswith(b"HTTP/1.1 200"):
                raise ValueError("the echo server did not answer 200")

    async def sample(self) -> None:
        started = time.perf_counter()
        await asyncio.wait_for(
            asyncio.gather(
                *[self._drive(c, first) for first, c in enumerate(self.connections)]
            ),
            START_DEADLINE_S,
        )
        self.samples.append(time.perf_counter() - started)

    async def stop(self) -> None:
        for connection in self.connections:
            await connection.close()
        if self.process is not None and self.process.returncode is None:
            self.process.stdin.close()
            try:
                await asyncio.wait_for(self.process.wait(), START_DEADLINE_S)
            except TimeoutError:
                await self.kill()

    async def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


def _percentile(ordered: list[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


async def _generate(seed: int, seconds: float, trace: bool, pass_size: int) -> Outcome:
    """Run the workload; past its deadline, or when the service stops
    answering its control channel, the run ends as a failure."""
    outcome = Outcome()
    servers: list[_Server] = []
    rotation = build_rotation(seed)
    meter = reference.Meter()
    echo = _EchoReference(rotation)
    try:
        await asyncio.wait_for(
            _measure(outcome, servers, meter, echo, rotation, seconds, trace, pass_size),
            seconds + RUN_SLACK_S,
        )
    except (OSError, ValueError, KeyError, asyncio.IncompleteReadError) as exc:
        outcome.check(f"service run ended early: {type(exc).__name__}", False)
    finally:
        for server in servers:
            await server.kill()
        await echo.kill()
        meter.close()
    return outcome


async def _measure(
    outcome: Outcome,
    servers: list[_Server],
    meter: reference.Meter,
    echo: _EchoReference,
    rotation: list,
    seconds: float,
    trace: bool,
    pass_size: int,
) -> None:
    replies = await expected_replies(rotation)
    outcome.inputs = {
        "rotation_requests": len(rotation),
        "rotation_verdicts": sum(verdicts for _, verdicts in replies),
        "distinct_probes": len({(o, a, str(p)) for _, o, a, p in rotation}),
        "pass_requests": pass_size,
        "connections": CONNECTIONS,
    }
    env = dict(os.environ)
    program = os.path.join(os.path.dirname(os.path.abspath(__file__)), "program.py")

    # Compute kernel samples before every server start and after the
    # last scale setup_s; echo samples before every measured pass and
    # after the last are the unit of the passes.
    await echo.start()
    setups: list[float] = []
    for start in range(STARTS):
        server = _Server(program, env)
        servers.append(server)
        meter.sample()
        setups.append(await server.start())
        connections = [_Connection(server.port) for _ in range(CONNECTIONS)]
        await echo.sample()
        cold = await run_pass(connections, rotation, replies, pass_size, 0, outcome)
        outcome.cold_s.append(cold.wall)
        if start < STARTS - 1:
            for connection in connections:
                await connection.close()
            await server.stop()
    meter.sample()

    # Warm-up pass, discarded: the first pass on a fresh server is
    # markedly slower than the steady state.
    await run_pass(connections, rotation, replies, pass_size // 2, 0, outcome)

    latencies: list[float] = []
    verdicts = 0
    wall = 0.0
    server_cpu = 0.0
    loadgen_cpu = 0.0
    traced_walls: list[float] = []
    deadline = time.perf_counter() + seconds
    number = 0
    while number < (4 if trace else 3) or time.perf_counter() < deadline:
        traced = trace and number % 2 == 1
        offset = (number * pass_size) % len(rotation)
        if traced:
            await server.command("trace on")
            result = await run_pass(
                connections, rotation, replies, pass_size, offset, outcome
            )
            row = (await server.command("trace off"))["layers"]
            outcome.layer_rows.append(row)
            traced_walls.append(result.wall)
        else:
            await echo.sample()
            before = (await server.command("stats"))["cpu_s"]
            cpu_before = time.process_time()
            result = await run_pass(
                connections, rotation, replies, pass_size, offset, outcome
            )
            loadgen_cpu += time.process_time() - cpu_before
            server_cpu += (await server.command("stats"))["cpu_s"] - before
            latencies.extend(result.latencies)
            verdicts += result.verdicts
            wall += result.wall
            outcome.warm_s.append(result.wall)
            outcome.rates.append(result.verdicts / result.wall)
            outcome.untraced_s.append(result.wall)
        number += 1
    await echo.sample()
    outcome.traced_s = traced_walls
    outcome.reference_s = echo.samples

    handler = (await server.stats())["endpoints"]
    final = await server.command("stats")
    for connection in connections:
        await connection.close()
    await server.stop()
    await echo.stop()

    ordered = sorted(latencies)
    outcome.extra_metrics = {
        "setup_s": reference.at_nominal_s(setups, meter.samples),
        "peak_rss_mb": final["peak_rss_mb"],
    }
    outcome.layer_totals = {
        "service.server_cpu_us_per_verdict": server_cpu / verdicts * 1e6 if verdicts else 0.0,
        "service.handler_p99_ms": max(
            (entry.get("p99_ms", 0.0) for entry in handler.values()), default=0.0
        ),
        "service.client_p50_ms": _percentile(ordered, 0.50) * 1e3 if ordered else 0.0,
        "service.client_p99_ms": _percentile(ordered, 0.99) * 1e3 if ordered else 0.0,
        "service.client_requests": len(ordered),
        "loadgen.cpu_share": loadgen_cpu / wall if wall else 0.0,
    }
    outcome.inputs["setup_samples_s"] = setups


def generate(seed: int, seconds: float, trace: bool, pass_size: int) -> Outcome:
    return asyncio.run(_generate(seed, seconds, trace, pass_size))
