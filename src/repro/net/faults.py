"""Toxiproxy-style fault injection for the wire protocols.

:class:`FaultInjector` is a TCP proxy that sits between a client and a
real server and misbehaves on command:

* ``set_latency`` — delay every forwarded chunk (slow network);
* ``set_blackhole`` — swallow bytes while keeping connections open
  (the worst failure mode: neither end sees an error);
* ``set_stall`` — stop *reading* from both ends while keeping
  connections open, so the peers' kernel send buffers fill and their
  sends back up (a peer that went catatonic — distinct from blackhole,
  which still drains the sender);
* ``sever`` — abruptly close every live connection (peer crash);
* ``close_after`` — close each new connection after N forwarded bytes,
  guaranteeing a cut mid-message;
* ``garble_next`` — overwrite the next 4 bytes of a stream, corrupting
  a frame's length prefix so the receiver sees a framing error.

It is a :class:`~repro.net.server.Server` like every other listener: a
proxied connection is two non-blocking sockets on the injector's own
loop, latency is a per-direction FIFO of timer releases, and a stall
drops the sockets' read interest.  Tests point a client at the
injector's address instead of the server's; benchmarks use it to
measure recovery latency under controlled failures.
"""

from __future__ import annotations

import errno
import functools
import selectors
import socket
import threading
from collections import deque
from typing import Optional

from repro.net.reactor import Reactor
from repro.net.server import Server

#: Past this many bytes queued toward one end, the other end is not
#: read until they drain — TCP flow control, carried through the proxy.
_HIGH_WATERMARK = 256 * 1024


class _Pipe:
    """One proxied connection: the client's socket and ours to the
    server, both on the injector's loop (every method but :meth:`close`
    runs there)."""

    def __init__(
        self, injector: "FaultInjector", client: socket.socket,
        reactor: Reactor,
    ):
        self.injector = injector
        self.reactor = reactor
        self.client = client
        self.upstream = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.upstream.setblocking(False)
        self.connected = False
        self.closed = False
        # Per-connection close-after budget, captured at accept time.
        self.close_budget = injector._close_after
        self._peer = {client: self.upstream, self.upstream: client}
        #: Bytes the kernel has not taken yet, per destination socket.
        self._out = {client: bytearray(), self.upstream: bytearray()}
        #: Selector interest currently registered, per socket.
        self._events = {client: 0, self.upstream: 0}
        self._on_io = {
            sock: functools.partial(self._io, sock) for sock in self._peer
        }
        #: Chunks waiting out the latency, per destination socket.
        self._delayed = {client: deque(), self.upstream: deque()}

    def start(self) -> None:
        err = self.upstream.connect_ex(self.injector.upstream)
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            self.close()
            return
        self.arm()

    def arm(self) -> None:
        """Register each socket for what it can do now: the connect,
        reads unless stalled or the other end is backed up, writes
        while bytes are queued for it."""
        for sock in self._peer:
            if self.closed:
                return
            events = 0
            if not self.connected:
                if sock is self.upstream:
                    events = selectors.EVENT_WRITE
            else:
                if (
                    not self.injector._stalled
                    and len(self._out[self._peer[sock]]) < _HIGH_WATERMARK
                ):
                    events |= selectors.EVENT_READ
                if self._out[sock]:
                    events |= selectors.EVENT_WRITE
            registered = self._events[sock]
            if events == registered:
                continue
            if not registered:
                self.reactor.register(sock, events, self._on_io[sock])
            elif not events:
                self.reactor.unregister(sock)
            else:
                self.reactor.modify(sock, events, self._on_io[sock])
            self._events[sock] = events

    def _io(self, sock: socket.socket, mask: int) -> None:
        if self.closed:
            return
        if not self.connected:
            if self.upstream.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self.close()
                return
            self.upstream.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self.connected = True
        else:
            if mask & selectors.EVENT_WRITE:
                self._write(sock, b"")
            if mask & selectors.EVENT_READ and not self.closed:
                self._pump(sock)
        self.arm()

    def _pump(self, src: socket.socket) -> None:
        try:
            chunk = self.reactor.recv(src)
        except OSError:
            chunk = b""
        if chunk is None:
            return
        if not chunk:
            self.close()
            return
        injector = self.injector
        dst = self._peer[src]
        up = src is self.client
        if up:
            injector.bytes_up += len(chunk)
        else:
            injector.bytes_down += len(chunk)
        with injector._lock:
            direction = "up" if up else "down"
            if injector._garble[direction] > 0:
                injector._garble[direction] -= 1
                chunk = b"\xff\xff\xff\xff" + chunk[4:]
        if up and self.close_budget is not None:
            if len(chunk) >= self.close_budget:
                # Forward a partial chunk, then cut the connection so
                # the peer is left holding a truncated frame.
                self._write(dst, chunk[: max(0, self.close_budget - 1)])
                self.close()
                return
            self.close_budget -= len(chunk)
        if injector._blackhole:
            return
        delayed = self._delayed[dst]
        if injector._latency > 0 or delayed:
            # Each timer releases the oldest chunk, so bytes keep their
            # order whatever the latency was when each arrived.
            delayed.append(chunk)
            self.reactor.call_later(
                injector._latency, lambda: self._release(dst)
            )
        else:
            self._write(dst, chunk)

    def _release(self, dst: socket.socket) -> None:
        if not self.closed:
            self._write(dst, self._delayed[dst].popleft())
            self.arm()

    def _write(self, dst: socket.socket, data: bytes) -> None:
        """Send what is queued for ``dst`` and then ``data``; keep what
        the kernel does not take."""
        out = self._out[dst]
        out += data
        if not out:
            return
        try:
            sent = dst.send(out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.close()
            return
        del out[:sent]

    def close(self) -> None:
        if not self.reactor.in_loop() and self.reactor.submit(self.close):
            return
        if self.closed:
            return
        self.closed = True
        for sock in self._peer:
            self.reactor.unregister(sock)
            try:
                sock.close()
            except OSError:
                pass
        self.injector.forget(self)


class FaultInjector(Server):
    """TCP proxy with switchable faults; see module docstring."""

    name = "fault-injector"

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

        self.bytes_up = 0
        self.bytes_down = 0

    def open(self, client: socket.socket, reactor: Reactor) -> _Pipe:
        return _Pipe(self, client, reactor)

    # -- fault controls ------------------------------------------------------

    def set_latency(self, seconds: float) -> None:
        self._latency = max(0.0, seconds)

    def set_blackhole(self, enabled: bool) -> None:
        self._blackhole = enabled

    def set_stall(self, enabled: bool) -> None:
        """Freeze the proxy: stop reading from both ends (connections
        stay open).  Peers' sends back up into their kernel buffers —
        the failure mode non-blocking sends and the per-call deadline
        exist to catch."""
        self._stalled = enabled
        if self.reactors:
            self.reactor.submit(self._rearm)

    def _rearm(self) -> None:
        for pipe in self.connections():
            pipe.arm()

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
