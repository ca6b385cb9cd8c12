"""One server shape: every listener in the tree is callbacks on a loop.

:class:`Server` is a non-blocking listener on reactors the server owns
— never :func:`~repro.net.reactor.default_reactor`, so a slow handler
can never stall a client's loop.  ``start()`` binds and listens;
accepted sockets are spread round-robin over ``reactors`` and each one
becomes whatever :meth:`Server.open` makes of it; ``stop()`` closes
them on their loops and stops the reactors.  The fault-injecting
proxy is such a server.

:class:`RpcServer` is the JSON-RPC one, and the management server, the
P4Runtime device server and the device farm are its method tables::

    listen → accept → Reactor.recv → FrameReader.feed
           → handle(conn, method, params) → SocketWriter

A protocol implements :meth:`RpcServer.handle` and, if it holds
subscriptions, :meth:`Server.on_close`.  Handlers run on the loop and
must not block; a notification sent from another thread (a monitor
update from ``Database.transact``, a digest from an in-process
``Simulator.inject``) hops to the loop in the order it was sent.
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import List, Optional, Tuple

from repro.errors import ProtocolError, ReproError
from repro.mgmt.jsonrpc import FrameReader, encode_frame, make_error
from repro.net.aio import SocketWriter
from repro.net.reactor import Reactor


class Server:
    """Listener, accept and connection registry on the server's own
    reactors.  A connection is what :meth:`open` returns: it is
    ``start()``-ed on its reactor's loop, ``close()``-d (from any
    thread) by :meth:`stop`, and calls :meth:`forget` once closed."""

    #: Name of the server's reactor (and so of its threads).
    name = "server"
    #: Loops the accepted connections are spread over.
    n_reactors = 1

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.reactors: List[Reactor] = []
        self._listener: Optional[socket.socket] = None
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        self.connections_accepted = 0

    @property
    def reactor(self) -> Reactor:
        """The accepting loop — the only one unless ``n_reactors > 1``."""
        return self.reactors[0]

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
            listener.listen(1024)
        except OSError:
            listener.close()
            raise
        listener.setblocking(False)
        self._listener = listener
        n = self.n_reactors
        self.reactors = [
            Reactor(self.name if n == 1 else f"{self.name}-{i}").start()
            for i in range(n)
        ]
        self.reactor.submit(
            self.reactor.register, listener, selectors.EVENT_READ,
            self._accept,
        )
        return self

    def _accept(self, mask: int) -> None:
        listener = self._listener
        while listener is not None:
            try:
                sock, _ = listener.accept()
            except OSError:  # drained (BlockingIOError) or closed
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Accepted sockets must carry SO_REUSEADDR themselves: their
            # lingering close states (FIN_WAIT, TIME_WAIT) would
            # otherwise block an immediate restart on the same port.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            reactor = self.reactors[
                self.connections_accepted % len(self.reactors)
            ]
            self.connections_accepted += 1
            conn = self.open(sock, reactor)
            with self._conn_lock:
                self._connections.add(conn)
            if reactor is self.reactor:
                conn.start()
            else:
                reactor.submit(conn.start)

    def open(self, sock: socket.socket, reactor: Reactor):
        """The connection object for an accepted socket."""
        raise NotImplementedError

    def connections(self) -> list:
        """A snapshot of the live connections."""
        with self._conn_lock:
            return list(self._connections)

    def forget(self, conn) -> None:
        """``conn`` closed (on its loop): drop it and run the close hook."""
        with self._conn_lock:
            self._connections.discard(conn)
        self.on_close(conn)

    def on_close(self, conn) -> None:
        """Release what ``conn`` held (monitors, subscriptions)."""

    def stop(self) -> None:
        """Close the listener and every connection, then the reactors;
        idempotent."""
        listener, self._listener = self._listener, None
        if listener is None:
            return

        def teardown():
            # On the accepting loop: no accept is half done.
            _close_registered(self.reactor, listener)
            for conn in self.connections():
                conn.close()

        if not self.reactor.submit(teardown):
            teardown()
        # Each reactor runs the closes queued on it before it exits; the
        # accepting one goes first, as it queues closes on the others.
        for reactor in self.reactors:
            reactor.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _close_registered(reactor: Reactor, sock: socket.socket) -> None:
    reactor.unregister(sock)
    try:
        sock.close()
    except OSError:
        pass


class RpcConnection:
    """One accepted JSON-RPC peer.  Its reads, handlers and writes run
    on ``reactor``'s loop; :meth:`send` and :meth:`close` are
    thread-safe."""

    def __init__(self, server: "RpcServer", sock: socket.socket,
                 reactor: Reactor):
        self.server = server
        self.sock = sock
        self.reactor = reactor
        #: Whatever the method table keeps per peer (monitors, the
        #: bound device, subscriptions); ``None`` until it sets one.
        self.session = None
        self.closed = False
        self._frames = FrameReader()
        self._writer = SocketWriter(
            reactor, sock, self._on_io, lambda _exc: self.close()
        )
        #: Frames sent from other threads, not yet handed to the writer.
        self._outbox: List[bytes] = []
        self._outbox_lock = threading.Lock()

    def start(self) -> None:
        self.reactor.register(self.sock, selectors.EVENT_READ, self._on_io)

    def _on_io(self, mask: int) -> None:
        if self.closed:
            return
        if mask & selectors.EVENT_READ:
            self._read()
        if not self.closed and mask & selectors.EVENT_WRITE:
            self._writer.flush()

    def _read(self) -> None:
        try:
            data = self.reactor.recv(self.sock)
        except OSError:
            self.close()
            return
        if data is None:
            return
        if not data:
            # A frame cut short by the close is never executed.
            self.close()
            return
        try:
            messages = self._frames.feed(data)
        except ProtocolError:
            self.close()
            return
        for message in messages:
            if self.closed:
                return
            self.server.serve(self, message)

    def send(self, message: dict) -> None:
        """Frames reach the peer in the order ``send`` returned, whatever
        thread called it: on the loop the frame is written at once,
        behind anything queued from elsewhere; off it, queued for the
        loop."""
        frame = encode_frame(message)
        if self.reactor.in_loop():
            if self._outbox:
                self._flush_outbox()
            if not self.closed:
                self._writer.send(frame)
            return
        with self._outbox_lock:
            self._outbox.append(frame)
            if len(self._outbox) > 1:
                return  # a flush is already on its way
        self.reactor.submit(self._flush_outbox)

    def _flush_outbox(self) -> None:
        with self._outbox_lock:
            frames, self._outbox = self._outbox, []
        for frame in frames:
            if self.closed:
                return
            self._writer.send(frame)

    def close(self) -> None:
        if not self.reactor.in_loop() and self.reactor.submit(self.close):
            return
        if self.closed:
            return
        self.closed = True
        _close_registered(self.reactor, self.sock)
        self.server.forget(self)


class RpcServer(Server):
    """A JSON-RPC server: subclasses implement :meth:`handle`."""

    def open(self, sock: socket.socket, reactor: Reactor) -> RpcConnection:
        return RpcConnection(self, sock, reactor)

    def handle(self, conn: RpcConnection, method: str, params):
        """Answer one request (on ``conn``'s loop): the result, or raise
        — a :class:`~repro.errors.ReproError` is the peer's error, any
        other exception an internal one."""
        raise NotImplementedError

    def reply(self, conn: RpcConnection, message: dict) -> None:
        """Send a request's response (the farm defers some)."""
        conn.send(message)

    def serve(self, conn: RpcConnection, message: dict) -> None:
        # jsonrpc.classify, inline: this runs once per frame.  Servers
        # send but never await notifications, so only a request is
        # answered, and only junk closes the connection.
        if not isinstance(message, dict) or (
            "method" not in message and "id" not in message
        ):
            conn.close()
            return
        request_id = message.get("id")
        if request_id is None or "method" not in message:
            return
        try:
            result = self.handle(conn, message["method"],
                                 message.get("params", []))
            # jsonrpc.make_response, inline.
            reply = {"result": result, "error": None, "id": request_id}
        except ReproError as exc:
            reply = make_error({"error": str(exc)}, request_id)
        except Exception as exc:  # noqa: BLE001 - report, don't kill conn
            reply = make_error({"error": f"internal: {exc}"}, request_id)
        self.reply(conn, reply)
