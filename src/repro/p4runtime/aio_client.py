"""The P4Runtime client: one protocol layer over one reactor transport.

The protocol rides an :class:`~repro.net.aio.AioConnection`, so a
thousand clients cost a thousand selector registrations on one shared
:class:`~repro.net.reactor.Reactor` — not a thousand reader threads.  Pass
the fleet's reactor explicitly; a client built without one runs on the
process-wide :func:`~repro.net.reactor.default_reactor`.

Two call surfaces on the same object:

* the blocking API (``write``, ``read_table``, config epochs,
  multicast, packet I/O, digest and packet-in subscriptions) for code
  that runs off the loop thread — a controller's ``start()``, scripts;
* the apply stage's non-blocking calls, answered by a callback on the
  loop thread: :meth:`call_async` (config epochs, ``read_table``) and
  :meth:`apply_batch_async`, the hot path, which issues one coalesced
  batch.
  The optional ``seq`` pair ``(first, last)`` of the coalesced batch
  range rides the envelope — existing servers ignore unknown keys, and
  the :class:`~repro.p4runtime.farm.DeviceFarm` uses it to verify
  per-device FIFO at fleet scale.  Nothing in the request but its id
  is per device: clients handed the same
  :class:`~repro.p4runtime.api.WriteList` share one encoding of it.

Digest and packet-in subscriptions are session state on the server:
every (re)connect re-issues them as the first frames on the fresh
connection, before any registered ``on_reconnect`` hook replays table
state (see :class:`~repro.core.controller.NerpaController`).

A blocking method issued from a reactor callback raises
:class:`~repro.errors.ReproError` — it would park the loop waiting for
a response only the loop can read.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeApiError
from repro.mgmt.jsonrpc import dumps
from repro.net.aio import AioConnection
from repro.net.reactor import Reactor, default_reactor
from repro.net.retry import RetryPolicy
from repro.obs.trace import use_update_id
from repro.p4runtime.api import TableWrite, WriteList

_DEFAULT_TIMEOUT = 30.0

#: What a response becomes, per method :meth:`AioP4RuntimeClient.call_async`
#: issues: the value the blocking method of that name returns.
_RESULTS: Dict[str, Callable] = {
    "get_config_epoch": lambda result: result["epoch"],
    "set_config_epoch": lambda result: None,
    "read_table": lambda result: [
        TableWrite.from_wire(e) for e in result["entries"]
    ],
}


def _updates_json(updates) -> bytes:
    """The JSON array of ``updates``: their ``to_json()`` texts, joined
    — or for a :class:`~repro.p4runtime.api.WriteList` of row runs,
    each run's text from one ``wire_run`` of its table's binding."""
    runs = updates.runs if isinstance(updates, WriteList) else None
    if runs is None:
        texts = [u.to_json() for u in updates]
    else:
        texts = [binding.wire_run(kind, rows) for kind, binding, rows in runs]
    return b"[%s]" % ",".join(texts).encode()


def _encode_batch(updates, mcast, update_ids, fence, seq=None) -> bytes:
    """The serialised parameters of one ``apply_batch`` request.

    The updates go in as the text each one's ``to_json()`` writes (for
    a :class:`~repro.p4runtime.api.RowWrite`, its table's generated
    converter; for a device batch's runs of rows, one ``wire_run`` per
    run), joined; only the rest of the envelope goes through
    ``dumps``, once.  Nothing in the parameters is per device, so a
    :class:`~repro.p4runtime.api.WriteList` — the one list a fan-out
    hands every device's client — keeps what it was last encoded to:
    the fleet's first client pays the conversion and JSON, the rest
    splice the same bytes into their own frame.  The other arguments
    are compared by value, so a caller that re-uses a list with
    different ones simply encodes again."""
    mcast, update_ids = dict(mcast or ()), list(update_ids or ())
    key = (mcast, update_ids, fence, seq)
    memo = isinstance(updates, WriteList)
    if memo and updates.encoded is not None and updates.encoded[0] == key:
        return updates.encoded[1]
    rest = {
        "mcast": [
            [group, list(ports) if ports is not None else None]
            for group, ports in sorted(mcast.items())
        ],
        "update_ids": update_ids,
    }
    if fence is not None:
        rest["fence"] = fence
    if seq is not None:
        rest["seq"] = list(seq)
    # ``[{"updates":[...],`` then ``dumps(rest)`` past its ``{``: the
    # envelope's keys in the order the receivers have always seen.
    params = b'[{"updates":%s,%s]' % (_updates_json(updates), dumps(rest)[1:])
    if memo:
        updates.encoded = (key, params)
    return params


class AioP4RuntimeClient:
    """Talks to a :class:`~repro.p4runtime.server.P4RuntimeServer` (or
    a :class:`~repro.p4runtime.farm.DeviceFarm`) through a reactor."""

    def __init__(
        self,
        host: str,
        port: int,
        reactor: Optional[Reactor] = None,
        timeout: float = _DEFAULT_TIMEOUT,
        policy: Optional[RetryPolicy] = None,
        device_hint: Optional[int] = None,
    ):
        if policy is None:
            policy = RetryPolicy(call_timeout=timeout)
        if reactor is None:
            reactor = default_reactor()
        self.timeout = policy.call_timeout
        self.reactor = reactor
        #: When talking to a :class:`~repro.p4runtime.farm.DeviceFarm`
        #: (one listener serving many devices), the index of the device
        #: this client drives; bound on every (re)connect.
        self.device_hint = device_hint
        self._digest_callback: Optional[
            Callable[[str, Tuple[int, ...]], None]
        ] = None
        self._packet_in_callback: Optional[
            Callable[[int, bytes], None]
        ] = None
        self.conn = AioConnection(
            host,
            port,
            reactor,
            policy=policy,
            name="p4rt-aio",
            on_notification=self._handle_notification,
            on_connect=self._on_transport_connect,
            error_type=RuntimeApiError,
        )

    # -- plumbing ------------------------------------------------------------

    def call(self, method: str, params, retryable: bool = False) -> object:
        return self.conn.call(method, params, retryable=retryable)

    def _handle_notification(self, message: dict) -> None:
        method = message.get("method")
        if method == "digest":
            callback = self._digest_callback
            if callback is None:
                return
            params = message["params"]
            name, values = params[0], params[1]
            # An optional third param is the update-id of the config
            # change whose entries produced this digest; rebind it so
            # the controller can link the feedback trace.
            uid = params[2] if len(params) > 2 else None
            if uid is not None:
                with use_update_id(uid):
                    callback(name, tuple(values))
            else:
                callback(name, tuple(values))
        elif method == "packet_in":
            callback = self._packet_in_callback
            if callback is not None:
                port, hex_data = message["params"]
                callback(port, bytes.fromhex(hex_data))

    def _on_transport_connect(self, conn: AioConnection) -> None:
        # Loop thread, on every successful connect: session setup must
        # be the first frames on the fresh connection, ahead of any
        # apply traffic already queued — otherwise a batch could reach
        # the farm before the device binding and land on device 0.
        # ``conn`` comes from the hook (not ``self.conn``): the first
        # connect can win the race with the constructor's assignment.
        if self.device_hint is not None:
            conn.call_async(
                "bind_device",
                [self.device_hint],
                lambda _r, _e: None,
                timeout=self.timeout,
            )
        for callback, method in (
            (self._digest_callback, "subscribe_digests"),
            (self._packet_in_callback, "subscribe_packet_ins"),
        ):
            if callback is not None:
                conn.call_async(
                    method, [], lambda _r, _e: None, timeout=self.timeout
                )

    def on_reconnect(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` on the loop thread after each reconnect
        (subscriptions already re-issued); use it to resynchronize
        device state.  It must not block (see
        :meth:`~repro.net.aio.AioConnection.on_reconnect`)."""
        self.conn.on_reconnect(hook)

    def health(self) -> Dict[str, object]:
        return self.conn.health()

    @property
    def connected(self) -> bool:
        return self.conn.connected

    @property
    def writable(self) -> bool:
        """False while the connection's send buffer is past its high
        watermark — callers should park on :meth:`on_drain`."""
        return self.conn.writable

    @property
    def send_buffer_bytes(self) -> int:
        return self.conn.send_buffer_bytes

    def on_drain(self, callback: Callable[[], None]) -> None:
        self.conn.on_drain(callback)

    # -- the async hot path --------------------------------------------------

    def apply_batch_async(
        self,
        updates: Sequence[TableWrite],
        mcast: Optional[Dict[int, Optional[List[int]]]] = None,
        update_ids: Optional[Sequence[str]] = None,
        callback: Optional[Callable] = None,
        seq: Optional[Tuple[int, int]] = None,
        timeout: Optional[float] = None,
        fence: Optional[int] = None,
    ) -> None:
        """Issue one coalesced pipeline batch without blocking.

        ``callback(applied, error)`` fires on the loop thread with the
        applied-update count or the failure (transport loss, per-call
        timeout, or a semantic rejection as ``error_type``).
        """

        def on_response(result, error):
            if callback is None:
                return
            if error is not None:
                callback(None, error)
            else:
                callback((result or {}).get("applied", 0), None)

        self.conn.call_async(
            "apply_batch",
            _encode_batch(updates, mcast, update_ids, fence, seq),
            on_response,
            timeout=timeout if timeout is not None else self.timeout,
        )

    def call_async(self, method: str, params: list, callback: Callable) -> None:
        """Issue ``get_config_epoch``, ``set_config_epoch`` or
        ``read_table`` without blocking.  ``callback(value, error)``
        fires on the loop thread with what the blocking method returns,
        or the failure — at once when the connection is not up."""
        convert = _RESULTS[method]

        def on_response(result, error):
            if error is None:
                try:
                    result = convert(result)
                except Exception as exc:  # noqa: BLE001 - a malformed answer
                    result, error = None, exc
            callback(result, error)

        self.conn.call_async(method, params, on_response, timeout=self.timeout)

    # -- blocking API (off-loop threads only) --------------------------------

    def get_p4info(self) -> dict:
        return self.call("get_p4info", [], retryable=True)

    def echo(self, payload) -> object:
        return self.call("echo", payload, retryable=True)

    def write(self, updates: Sequence[TableWrite]) -> int:
        result = self.call("write", _updates_json(updates))
        return result["applied"]

    def apply_batch(
        self,
        updates: Sequence[TableWrite],
        mcast: Optional[Dict[int, Optional[List[int]]]] = None,
        update_ids: Optional[Sequence[str]] = None,
        fence: Optional[int] = None,
    ) -> int:
        """Ship a coalesced pipeline batch — table writes plus
        multicast config plus every merged update-id — in one round
        trip."""
        result = self.call(
            "apply_batch", _encode_batch(updates, mcast, update_ids, fence)
        )
        return result["applied"]

    def _converted(self, method: str, params, retryable: bool = False):
        return _RESULTS[method](self.call(method, params, retryable))

    def get_config_epoch(self) -> Optional[str]:
        return self._converted("get_config_epoch", [], retryable=True)

    def set_config_epoch(
        self, epoch: Optional[str], fence: Optional[int] = None
    ) -> None:
        params = [epoch] if fence is None else [epoch, fence]
        self._converted("set_config_epoch", params)

    def read_table(self, table: str) -> List[TableWrite]:
        return self._converted("read_table", [table], retryable=True)

    def set_default_action(
        self, table: str, action: str, params: Sequence[int]
    ) -> None:
        self.call("set_default_action", [table, action, list(params)])

    def set_multicast_group(self, group_id: int, ports: Sequence[int]) -> None:
        self.call("set_multicast_group", [group_id, list(ports)])

    def delete_multicast_group(self, group_id: int) -> None:
        self.call("delete_multicast_group", [group_id])

    def subscribe_digests(
        self, callback: Callable[[str, Tuple[int, ...]], None]
    ) -> None:
        """Send digests to ``callback`` (on the loop), without waiting
        for the server's answer: the request goes out ahead of any call
        made after it, on the loop before this returns, and a connection
        not up yet subscribes as it comes up."""
        self._digest_callback = callback
        self.conn.call_async(
            "subscribe_digests", [], lambda _r, _e: None, timeout=self.timeout
        )

    def subscribe_packet_ins(
        self, callback: Callable[[int, bytes], None]
    ) -> None:
        self._packet_in_callback = callback
        self.call("subscribe_packet_ins", [])

    def inject(self, port: int, data: bytes) -> List[Tuple[int, bytes]]:
        result = self.call("inject", [port, data.hex()])
        return [(p, bytes.fromhex(h)) for p, h in result["outputs"]]

    def packet_out(self, port: int, data: bytes) -> List[Tuple[int, bytes]]:
        result = self.call("packet_out", [port, data.hex()])
        return [(p, bytes.fromhex(h)) for p, h in result["outputs"]]

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "AioP4RuntimeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: The historical name of the blocking client — the same class.
P4RuntimeClient = AioP4RuntimeClient
