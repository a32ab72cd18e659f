"""The wire load generator: JSON-lines connections to the gateway, a
closed-loop phase and an open-loop phase at a fixed offered rate.

One asyncio loop on one thread drives every connection.  The gateway
serves each connection's lines in order, so replies come back in send
order and each connection matches them to its FIFO of sent operations.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

from procs import vm_cpu_s

#: The gateway answers with whole instances in stats payloads; lift the
#: default 64 KiB line limit.
_LIMIT = 1 << 22


@dataclass
class Sample:
    """One completed operation: what was sent, when it was due, when its
    reply arrived, and the reply."""

    op: object
    due: float
    done: float
    reply: dict | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Connection:
    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: deque = deque()
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=_LIMIT
        )
        return cls(reader, writer)

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def send(self, op, message: dict, due: float | None = None):
        """Write one request; returns a future resolving to its
        :class:`Sample`."""
        future = asyncio.get_running_loop().create_future()
        self._pending.append(
            (op, message.get("id"), due or time.perf_counter(), future))
        self._writer.write(json.dumps(message).encode() + b"\n")
        return future

    async def call(self, message: dict, op=None) -> Sample:
        return await self.send(op, message)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                done = time.perf_counter()
                reply = json.loads(line)
                op, message_id, due, future = self._pending.popleft()
                if reply.get("id") != message_id:
                    reply = {"ok": False, "error": "OutOfOrderReply",
                             "message": f"expected id {message_id}, got "
                                        f"{reply.get('id')}"}
                if not future.done():
                    future.set_result(Sample(op, due, done, reply))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            while self._pending:
                op, _, due, future = self._pending.popleft()
                if not future.done():
                    future.set_result(
                        Sample(op, due, time.perf_counter(), None)
                    )

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


@dataclass
class Phase:
    """What one load phase produced."""

    samples: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    start: float = 0.0
    seconds: float = 0.0
    in_flight_start: int = 0
    in_flight_end: int = 0
    #: The open loop's one-second windows of due times: for each, when
    #: it began and ended and the share of the CPU time the VM wanted
    #: in it that the host gave to other guests.
    windows: list = field(default_factory=list)


async def closed_loop(connections, streams, seconds: float,
                      depth: int) -> Phase:
    """Each connection keeps ``depth`` requests in flight until
    ``seconds`` have passed, then drains."""
    phase = Phase(in_flight_start=sum(c.in_flight for c in connections))
    start = phase.start = time.perf_counter()
    until = start + seconds

    async def drive(connection, stream):
        in_flight = deque()
        for _ in range(depth):
            op = next(stream)
            in_flight.append(connection.send(op, op.message))
        while in_flight:
            sample = await in_flight.popleft()
            phase.samples.append(sample)
            if sample.done < until:
                op = next(stream)
                in_flight.append(connection.send(op, op.message))

    await asyncio.gather(
        *(drive(c, s) for c, s in zip(connections, streams))
    )
    phase.seconds = time.perf_counter() - start
    phase.in_flight_end = sum(c.in_flight for c in connections)
    return phase


async def open_loop(connections, streams, seconds: float,
                    rate: float) -> Phase:
    """Send operation ``i`` when it is due, at ``start + i / rate``,
    round-robin over the connections, whatever the replies are doing.
    Latency counts from the due time; ``lags_ms`` records how late each
    send went out.  ``in_flight_end`` is the backlog when the last
    operation was due.  The VM's CPU clocks are read as each second of
    operations falls due, for ``windows``."""
    phase = Phase(in_flight_start=sum(c.in_flight for c in connections))
    futures = []
    start = time.perf_counter() + 0.005
    total = int(seconds * rate)
    per_window = window_size(rate)
    clocks = []
    for index in range(total):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if index % per_window == 0:
            clocks.append((time.perf_counter(), *vm_cpu_s()))
        slot = index % len(connections)
        op = next(streams[slot])
        futures.append(connections[slot].send(op, op.message, due))
        phase.lags_ms.append((time.perf_counter() - due) * 1e3)
        if index % 64 == 63:
            await asyncio.sleep(0)
    phase.in_flight_end = sum(c.in_flight for c in connections)
    phase.samples = list(await asyncio.gather(*futures))
    clocks.append((time.perf_counter(), *vm_cpu_s()))
    phase.seconds = total / rate
    for (at0, busy0, stolen0), (at1, busy1, stolen1) in zip(clocks,
                                                            clocks[1:]):
        wanted = busy1 - busy0 + stolen1 - stolen0
        phase.windows.append({
            "from_s": at0, "to_s": at1,
            "stolen_share": (stolen1 - stolen0) / wanted if wanted else 0.0,
        })
    return phase


def window_size(rate: float) -> int:
    """Operations the open loop sends per one-second window."""
    return max(1, round(rate))

