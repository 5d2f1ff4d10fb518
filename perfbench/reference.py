"""The reference kernel: fixed work the benchmark times next to the program.

The benchmark runs on shared hosts whose speed drifts by a fifth or
more within minutes, so a time in seconds says as much about the host
as about the program.  The kernel therefore runs before every cold
and every warm pass of the program and after the last, and the
end-to-end metrics are the program's median times in units of the
kernel's mean time over the same run (unit ``ref``).  A host that is
slow for both reads the same.  (Dividing each pass by the kernel runs right next to it
tracks the host worse: one kernel run is too short a sample of a host
whose speed changes from second to second.)

The kernel runs in a process of its own (:class:`Meter`), so its
memory does not count in the program's peak, and the state of the
program's heap cannot slow it: that is the program's cost.

The ``service`` workload spends most of its time in the operating
system, moving small messages between two processes over loopback
sockets, and a slow spell of the host slows that far more than it
slows pure Python.  Its reference is therefore an *echo server*
(:func:`serve_echo`): the same client, the same requests and the same
sockets, answered with a fixed reply and no program behind it.

The kernel is pure Python and imports nothing from the program, so a
change to the program cannot move it.  Its mix follows what the
program spends its time on: small objects built from a seeded random
stream, string formatting, JSON encoding and decoding, grouping in
dicts, sorting and hashing, over a working set of some megabytes; a kernel small
enough to stay in the processor's caches tracked the host much worse.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time

ROWS = 25000
#: The kernel's time on the host the benchmark was built on, in a fast
#: spell.  ``setup_s`` is reported in seconds at this host speed.
NOMINAL_S = 0.25
AGENTS = (
    "Mozilla/5.0 (compatible; GPTBot/1.2)",
    "Mozilla/5.0 (compatible; ClaudeBot/1.0)",
    "Mozilla/5.0 (compatible; Googlebot/2.1)",
    "CCBot/2.0 (https://commoncrawl.org/faq/)",
    "Mozilla/5.0 (X11; Linux x86_64) Firefox/128.0",
)
#: What :func:`kernel` returns; anything else means it did other work.
CHECKSUM = "b9178d71c889"


class _Row:
    __slots__ = ("when", "client", "agent", "path", "status")

    def __init__(self, when: float, client: str, agent: str, path: str, status: int) -> None:
        self.when = when
        self.client = client
        self.agent = agent
        self.path = path
        self.status = status


def kernel() -> str:
    """One run of the fixed work; returns its checksum."""
    rng = random.Random(20250521)
    # Encoded as JSON lines and decoded again, the way logs come in.
    lines = [
        json.dumps(
            {
                "when": rng.random() * 86400.0,
                "client": f"{rng.getrandbits(24):06x}",
                "agent": AGENTS[rng.randrange(len(AGENTS))],
                "path": f"/section-{rng.randrange(40)}/page-{rng.randrange(500)}",
                "status": 200 if rng.random() < 0.9 else 404,
            }
        )
        for _ in range(ROWS)
    ]
    rows = [_Row(**json.loads(line)) for line in lines]
    sessions: dict[tuple[str, str], list[_Row]] = {}
    for row in rows:
        sessions.setdefault((row.client[:3], row.agent), []).append(row)
    summary = []
    for key in sorted(sessions):
        members = sorted(sessions[key], key=lambda row: row.when)
        errors = sum(1 for row in members if row.status != 200)
        summary.append([key[0], key[1], len(members), errors, members[0].path])
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def sample_s() -> float:
    """Time one kernel run.  Raises if its result is not
    :data:`CHECKSUM`."""
    started = time.perf_counter()
    checksum = kernel()
    elapsed = time.perf_counter() - started
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference kernel returned {checksum}, not {CHECKSUM}")
    return elapsed


class Meter:
    """Reference samples taken between the passes of a run, by a kernel
    process that waits while the program runs.  Call :meth:`sample`
    before every timed pass and once after the last; use it as a
    context manager, so that the process ends with the run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._worker = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> None:
        self._worker.stdin.write("sample\n")
        self._worker.stdin.flush()
        line = self._worker.stdout.readline()
        try:
            self.samples.append(float(line))
        except ValueError:
            raise RuntimeError(f"reference kernel failed: {line.strip()!r}") from None

    def close(self) -> None:
        try:
            self._worker.stdin.close()
            self._worker.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._worker.kill()
            self._worker.wait()

    def __enter__(self) -> Meter:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def in_units(times: list[float], samples: list[float]) -> float | None:
    """The median of ``times`` in units of the mean reference sample."""
    if not times or not samples:
        return None
    return statistics.median(times) / statistics.mean(samples)


def at_nominal_s(times: list[float], samples: list[float]) -> float | None:
    """The median of ``times`` in seconds on a host where the kernel
    takes :data:`NOMINAL_S`."""
    units = in_units(times, samples)
    return None if units is None else units * NOMINAL_S


#: What the echo server answers to every request.
ECHO_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 256\r\n\r\n" + b"0" * 256
)


class _Echo(asyncio.Protocol):
    """Answers each HTTP/1.1 request (head plus ``Content-Length``
    body) with :data:`ECHO_REPLY`, in order."""

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.buffer = b""

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        while True:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            length = 0
            for line in self.buffer[:end].split(b"\r\n"):
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            if len(self.buffer) < end + 4 + length:
                return
            self.buffer = self.buffer[end + 4 + length :]
            self.transport.write(ECHO_REPLY)


async def serve_echo() -> None:
    """The echo process: print the port, serve until stdin closes."""
    loop = asyncio.get_running_loop()
    server = await loop.create_server(_Echo, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await loop.run_in_executor(None, sys.stdin.read)
    server.close()


def _serve() -> None:
    """The kernel process: one sample per line read from stdin."""
    for _ in sys.stdin:
        # The previous sample's garbage is not this one's cost.
        gc.collect()
        try:
            reply = repr(sample_s())
        except RuntimeError as exc:
            reply = str(exc)
        print(reply, flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["echo"]:
        asyncio.run(serve_echo())
    else:
        _serve()
