"""Open-loop load generator of the serving workloads (its own process).

Run as ``python3 perfbench/loadgen.py <config.json>``.  It pins itself
to its core, opens ``connections`` JSON-lines connections to the server
and then serves step commands read from standard input, one JSON object
per line: ``{"rate": r, "duration": d}`` sends ``r × d`` requests on a
fixed schedule (request ``i`` is due at ``start + i / r``, assigned to
the connections round-robin) whatever the server does, and answers one
JSON line with the step's figures.  ``{"quit": true}`` ends it.

Latency is measured from each request's due time; lag is how late the
request actually left.  A request with an error reply, or with no reply
``timeout_s`` after the step's last due time, counts as failed.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from collections import deque

clock = time.perf_counter


class Generator:
    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.bodies = [b.encode() for b in cfg["queries"]]
        self.pick = random.Random(cfg["seed"])
        self.next_id = 1
        self.conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def connect(self) -> None:
        for reader, writer in self.conns:
            writer.close()
        self.conns = [
            await asyncio.open_connection("127.0.0.1", self.cfg["port"])
            for _ in range(self.cfg["connections"])
        ]

    async def close(self) -> None:
        for _reader, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def step(self, rate: float, duration: float) -> dict:
        n = max(1, int(round(rate * duration)))
        width = len(self.conns)
        fifos: list[deque] = [deque() for _ in range(width)]
        latency = [None] * n
        lag = [0.0] * n
        values: list[tuple[int, float] | None] = [None] * n
        ids = [0] * n
        picks = [self.pick.randrange(len(self.bodies)) for _ in range(n)]
        start = clock() + 0.02

        async def send() -> None:
            for i in range(n):
                due = start + i / rate
                wait = due - clock()
                if wait > 0.003:
                    # the loop's timer can overshoot by a millisecond or
                    # two: wake early and yield until due
                    await asyncio.sleep(wait - 0.003)
                while clock() < due:
                    await asyncio.sleep(0)
                request_id = self.next_id
                self.next_id += 1
                ids[i] = request_id
                _reader, writer = self.conns[i % width]
                fifos[i % width].append(i)
                writer.write(b'{"id":%d,' % request_id + self.bodies[picks[i]] + b"\n")
                lag[i] = (clock() - due) * 1e3
                if writer.transport.get_write_buffer_size() > 1 << 16:
                    await writer.drain()

        async def receive(conn: int) -> None:
            reader, _writer = self.conns[conn]
            expected = len(range(conn, n, width))
            for _ in range(expected):
                line = await reader.readline()
                now = clock()
                if not line:
                    raise ConnectionError("server closed the connection")
                i = fifos[conn].popleft()
                reply = json.loads(line)
                if reply.get("ok"):
                    latency[i] = (now - (start + i / rate)) * 1e3
                    values[i] = (picks[i], reply["value"])

        receivers = [asyncio.ensure_future(receive(c)) for c in range(width)]
        await send()
        try:
            await asyncio.wait_for(
                asyncio.gather(*receivers), timeout=self.cfg["timeout_s"]
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            for task in receivers:
                task.cancel()
            await asyncio.gather(*receivers, return_exceptions=True)
            # Late replies would be mistaken for the next step's: start over.
            await self.connect()
        wall = clock() - start
        answered = [i for i in range(n) if latency[i] is not None]
        failed = n - len(answered)
        every = self.cfg["sample_every"]
        return {
            "rate": rate,
            "sent": n,
            "failed": failed,
            "wall_s": wall,
            "latencies_ms": [latency[i] for i in answered],
            "lags_ms": lag,
            "ids": [ids[i] for i in answered],
            "samples": [values[i] for i in answered[::every]] if every else [],
        }


async def serve(cfg: dict) -> None:
    gen = Generator(cfg)
    await gen.connect()
    loop = asyncio.get_running_loop()
    print(json.dumps({"ready": True}), flush=True)
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break
        command = json.loads(line)
        if command.get("quit"):
            break
        result = await gen.step(float(command["rate"]), float(command["duration"]))
        print(json.dumps(result), flush=True)
    await gen.close()


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        config = json.load(handle)
    os.sched_setaffinity(0, {int(config["core"])})
    asyncio.run(serve(config))
