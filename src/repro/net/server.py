"""Threaded TCP server scaffolding shared by every listener in the tree.

:class:`ThreadedServer` is the listener, the accept loop and the
connection registry — what the management server, the P4Runtime device
server and the fault-injecting proxy all need.  One accept thread plus
whatever threads a connection starts for itself, so a server runs
alongside the controller without an event loop; ``start()`` returns
once the listening socket is bound.

The two JSON-RPC servers differ only in the methods they answer and
the notifications they push; framing, per-connection send
serialisation and teardown are :class:`RpcConnection`'s.  A protocol
subclasses it with ``_handle(method, params)`` (and extends ``close()``
if it holds subscriptions), then names it as its server's
``connection_class``.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Tuple

from repro.errors import ProtocolError, ReproError
from repro.mgmt.jsonrpc import (
    classify,
    make_error,
    make_response,
    recv_message,
    send_message,
)


def shutdown_and_close(sock: socket.socket) -> None:
    """``shutdown()`` wakes a thread blocked in ``recv()``/``accept()``
    on the socket and sends the peer a FIN; ``close()`` alone does
    neither while that thread holds the fd in a blocked syscall (a
    LISTEN socket would stay alive and its port unbindable)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class RpcConnection:
    """One accepted socket and the reader thread's loop over it."""

    def __init__(self, server: "ThreadedServer", sock: socket.socket, peer):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.send_lock = threading.Lock()
        self.alive = True

    def start(self) -> None:
        threading.Thread(
            target=self.serve,
            name=f"{self.server.thread_name}-conn-{self.peer}",
            daemon=True,
        ).start()

    def send(self, message: dict) -> None:
        with self.send_lock:
            try:
                send_message(self.sock, message)
            except OSError:
                self.alive = False

    def close(self) -> None:
        self.alive = False
        shutdown_and_close(self.sock)

    def serve(self) -> None:
        try:
            while self.alive:
                message = recv_message(self.sock)
                if message is None:
                    break
                if classify(message) != "request":
                    continue  # servers send but never await notifications
                request_id = message["id"]
                try:
                    result = self._handle(
                        message["method"], message.get("params", [])
                    )
                    self.send(make_response(result, request_id))
                except ReproError as exc:
                    self.send(make_error({"error": str(exc)}, request_id))
                except Exception as exc:  # noqa: BLE001 - report, don't kill conn
                    self.send(
                        make_error({"error": f"internal: {exc}"}, request_id)
                    )
        except (ProtocolError, OSError):
            pass
        finally:
            self.close()
            self.server._forget(self)

    def _handle(self, method: str, params):
        raise NotImplementedError


class ThreadedServer:
    """Listener, accept loop and connection registry.  ``_open(sock,
    peer)`` makes the connection object for an accepted socket (``None``
    to refuse it) — by default a ``connection_class`` instance — which
    the loop registers and then ``start()``s; connections ``close()``
    on :meth:`stop` and call :meth:`_forget` when they end."""

    connection_class = RpcConnection
    #: Prefix of the accept (and connection) thread names.
    thread_name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._connections: list = []
        self._conn_lock = threading.Lock()
        self._running = False

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(32)
        self._listener = listener
        self._running = True
        threading.Thread(
            target=self._accept_loop,
            name=f"{self.thread_name}-server",
            daemon=True,
        ).start()
        return self

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                break
            if not self._running:  # raced with stop()
                sock.close()
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Accepted sockets must carry SO_REUSEADDR themselves: their
            # lingering close states (FIN_WAIT, TIME_WAIT) would
            # otherwise block an immediate restart of this server on
            # the same port.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            conn = self._open(sock, peer)
            if conn is None:
                continue
            with self._conn_lock:
                self._connections.append(conn)
            conn.start()

    def _open(self, sock: socket.socket, peer):
        return self.connection_class(self, sock, peer)

    def connections(self) -> list:
        """A snapshot of the live connections."""
        with self._conn_lock:
            return list(self._connections)

    def _forget(self, conn) -> None:
        with self._conn_lock:
            if conn in self._connections:
                self._connections.remove(conn)

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            shutdown_and_close(self._listener)
        for conn in self.connections():
            conn.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
