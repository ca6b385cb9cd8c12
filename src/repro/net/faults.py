"""Toxiproxy-style fault injection for the wire protocols.

:class:`FaultInjector` is a TCP proxy that sits between a client and a
real server and misbehaves on command:

* ``set_latency`` — delay every forwarded chunk (slow network);
* ``set_blackhole`` — swallow bytes while keeping connections open
  (the worst failure mode: neither end sees an error);
* ``set_stall`` — stop *reading* from both ends while keeping
  connections open, so the peers' kernel send buffers fill and their
  ``send``/``sendall`` calls wedge (a peer that went catatonic —
  distinct from blackhole, which still drains the sender);
* ``sever`` — abruptly close every live connection (peer crash);
* ``close_after`` — close each new connection after N forwarded bytes,
  guaranteeing a cut mid-message;
* ``garble_next`` — overwrite the next 4 bytes of a stream, corrupting
  a frame's length prefix so the receiver sees a framing error.

Tests point a client at the injector's address instead of the
server's; benchmarks use it to measure recovery latency under
controlled failures.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional

from repro.net.server import ThreadedServer, shutdown_and_close

_CHUNK = 65536


class _Pipe:
    """One proxied connection: two pump threads, shared fault state."""

    def __init__(
        self,
        injector: "FaultInjector",
        client: socket.socket,
        upstream: socket.socket,
    ):
        self.injector = injector
        self.client = client
        self.upstream = upstream
        self.alive = True
        # Per-connection close-after budget, captured at accept time.
        self.close_budget = injector._take_close_budget()

    def start(self) -> None:
        threading.Thread(
            target=self._pump, args=(self.client, self.upstream, "up"),
            daemon=True,
        ).start()
        threading.Thread(
            target=self._pump, args=(self.upstream, self.client, "down"),
            daemon=True,
        ).start()

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str) -> None:
        try:
            while self.alive:
                # Stall: stop reading entirely.  TCP flow control does
                # the rest — the peer's send buffer fills and its sends
                # block, with the connection still "up".
                while self.alive and self.injector._stalled:
                    time.sleep(0.01)
                if not self.alive:
                    break
                try:
                    chunk = src.recv(_CHUNK)
                except OSError:
                    break
                if not chunk:
                    break
                chunk = self.injector._apply_faults(self, chunk, direction)
                if chunk is None:  # close_after tripped mid-chunk
                    break
                if not chunk:  # blackholed
                    continue
                try:
                    dst.sendall(chunk)
                except OSError:
                    break
        finally:
            self.close()

    def close(self) -> None:
        self.alive = False
        shutdown_and_close(self.client)
        shutdown_and_close(self.upstream)
        self.injector._forget(self)


class FaultInjector(ThreadedServer):
    """TCP proxy with switchable faults; see module docstring."""

    thread_name = "fault-injector"

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(host, port)
        self.upstream = (upstream_host, upstream_port)
        self._lock = threading.Lock()

        self._latency = 0.0
        self._blackhole = False
        self._stalled = False
        self._garble: dict = {"up": 0, "down": 0}
        self._close_after: Optional[int] = None

        self.connections_accepted = 0
        self.bytes_up = 0
        self.bytes_down = 0

    def _open(self, client: socket.socket, peer) -> Optional[_Pipe]:
        try:
            upstream = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            client.close()
            return None
        upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connections_accepted += 1
        return _Pipe(self, client, upstream)

    # -- fault controls ------------------------------------------------------

    def set_latency(self, seconds: float) -> None:
        self._latency = max(0.0, seconds)

    def set_blackhole(self, enabled: bool) -> None:
        self._blackhole = enabled

    def set_stall(self, enabled: bool) -> None:
        """Freeze the proxy: stop reading from both ends (connections
        stay open).  Peers' sends back up into their kernel buffers and
        a blocking ``sendall`` would wedge — the failure mode
        non-blocking sends and the per-call deadline exist to catch."""
        self._stalled = enabled

    def sever(self) -> int:
        """Abruptly close every live proxied connection; returns count."""
        pipes = self.connections()
        for pipe in pipes:
            pipe.close()
        return len(pipes)

    def garble_next(self, direction: str = "down") -> None:
        """Corrupt the next 4 bytes flowing ``direction`` ('up' toward
        the server, 'down' toward the client) — a frame length prefix
        becomes garbage and the receiver sees a framing error."""
        with self._lock:
            self._garble[direction] += 1

    def close_after(self, n_bytes: int) -> None:
        """Each subsequently accepted connection is cut after forwarding
        ``n_bytes`` upstream — guaranteed mid-message for any frame that
        straddles the budget."""
        self._close_after = n_bytes

    # -- pump hooks ----------------------------------------------------------

    def _take_close_budget(self) -> Optional[int]:
        return self._close_after

    def _apply_faults(self, pipe: _Pipe, chunk: bytes, direction: str):
        if self._latency > 0:
            time.sleep(self._latency)
        if direction == "up":
            self.bytes_up += len(chunk)
        else:
            self.bytes_down += len(chunk)
        with self._lock:
            if self._garble[direction] > 0:
                self._garble[direction] -= 1
                chunk = b"\xff\xff\xff\xff" + chunk[4:]
        if direction == "up" and pipe.close_budget is not None:
            if len(chunk) >= pipe.close_budget:
                # Forward a partial chunk, then cut the connection so
                # the peer is left holding a truncated frame.
                partial = chunk[: max(0, pipe.close_budget - 1)]
                if partial:
                    try:
                        pipe.upstream.sendall(partial)
                    except OSError:
                        pass
                return None
            pipe.close_budget -= len(chunk)
        if self._blackhole:
            return b""
        return chunk
