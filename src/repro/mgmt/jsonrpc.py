"""Length-prefixed JSON-RPC framing shared by every wire protocol here.

Both the management protocol and the P4Runtime-style API exchange JSON
messages over a stream transport.  Each frame is a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON.  Length-prefixing
(rather than newline-delimiting) keeps payloads free to contain any
text and makes framing errors loud.

Message shapes (JSON-RPC 1.0 flavor, like OVSDB):

* request:       ``{"method": m, "params": [...], "id": n}``
* response:      ``{"result": r, "error": null, "id": n}``
* error:         ``{"result": null, "error": {...}, "id": n}``
* notification:  ``{"method": m, "params": [...], "id": null}``
"""

from __future__ import annotations

import functools
import json
import struct
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Tuple

from repro.errors import ProtocolError

MAX_FRAME = 64 * 1024 * 1024  # defensive bound against corrupt lengths
_HEADER = struct.Struct(">I")
#: The scanner under ``json.loads`` (the C one where available).
_scan_once = json.JSONDecoder().scan_once


#: The C encoder of ``json.dumps(value, separators=(",", ":"))``, built
#: once: that call builds a ``JSONEncoder``, and it a C encoder, each
#: time.  Without circular-reference checks (a message is a tree; a
#: cycle recurses until ``RecursionError``).
_encode = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ":", ",", False, False, True,
)


def dumps_text(value) -> str:
    """:func:`dumps` as text, for a value written into a larger document
    (an update of a write batch): the same characters, all ASCII."""
    return "".join(_encode(value, 0))


def dumps(value) -> bytes:
    """The wire serialisation of one JSON value (compact, UTF-8):
    byte for byte ``json.dumps(value, separators=(",", ":"))``."""
    return "".join(_encode(value, 0)).encode("utf-8")


def encode_frame(message: dict) -> bytes:
    """Serialize a message into one wire frame."""
    payload = "".join(_encode(message, 0)).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large ({len(payload)} bytes)")
    return _HEADER.pack(len(payload)) + payload


@functools.lru_cache(maxsize=64)
def _request_head(method: str) -> bytes:
    return b'{"method":' + dumps(method) + b',"params":'


def frame_request(method: str, params: bytes, request_id: int) -> bytes:
    """One request frame around already serialised ``params``
    (:func:`dumps`): a payload going to many peers is encoded once and
    only the id differs per frame.  Decodes to exactly
    ``make_request(method, params, request_id)``."""
    head = _request_head(method)
    tail = b',"id":%d}' % request_id
    length = len(head) + len(params) + len(tail)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame too large ({length} bytes)")
    return b"".join((_HEADER.pack(length), head, params, tail))


def decode_frames(buffer: bytes) -> Tuple[list, bytes]:
    """Extract all complete frames from ``buffer``.

    Returns ``(messages, remainder)``; the remainder is the trailing
    partial frame (possibly empty) to be prepended to the next read.
    """
    reader = FrameReader()
    messages = reader.feed(buffer)
    return messages, bytes(reader.partial)


class FrameReader:
    """A connection's inbound byte stream → the messages in it.

    :meth:`feed` takes each read as it comes.  A frame that spans reads
    accumulates in place in :attr:`partial`, and is decoded once, when
    the length its header gives has arrived: concatenating the
    remainder with every read would copy a large frame again per read.
    """

    __slots__ = ("partial", "_need")

    def __init__(self) -> None:
        #: The bytes of a frame still arriving (empty between frames).
        self.partial = bytearray()
        #: Bytes ``partial`` must hold before a frame can be decoded.
        self._need = _HEADER.size

    def feed(self, data: bytes) -> list:
        """The messages completed by ``data``, in order; raises
        :class:`ProtocolError` on a bad length or bad JSON."""
        partial = self.partial
        if partial:
            partial += data
            if len(partial) < self._need:
                return []
            data = partial
        messages = []
        offset = 0
        n = len(data)
        while n - offset >= _HEADER.size:
            (length,) = _HEADER.unpack_from(data, offset)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame length {length} exceeds maximum")
            start = offset + _HEADER.size
            if n - start < length:
                break
            offset = start + length
            # ``json.loads`` without its Python-level wrappers for what
            # :func:`dumps` writes — one value, nothing around it.
            # Anything else (surrounding whitespace, malformed JSON)
            # goes through ``json.loads``, which accepts or rejects it
            # as it always did.
            try:
                text = data[start:offset].decode("utf-8")
                try:
                    value, end = _scan_once(text, 0)
                except StopIteration:
                    end = -1
                messages.append(
                    value if end == len(text) else json.loads(text)
                )
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"bad JSON frame: {exc}") from exc
        if data is partial:
            del partial[:offset]
        elif offset < n:
            partial += memoryview(data)[offset:]
        else:
            return messages
        self._need = (
            _HEADER.size + _HEADER.unpack_from(partial)[0]
            if len(partial) >= _HEADER.size
            else _HEADER.size
        )
        return messages


def make_request(method: str, params, request_id: int) -> dict:
    return {"method": method, "params": params, "id": request_id}


def make_response(result, request_id) -> dict:
    return {"result": result, "error": None, "id": request_id}


def make_error(error, request_id) -> dict:
    return {"result": None, "error": error, "id": request_id}


def make_notification(method: str, params) -> dict:
    return {"method": method, "params": params, "id": None}


def classify(message: dict) -> str:
    """'request' | 'notification' | 'response' (raises on junk)."""
    if not isinstance(message, dict):
        raise ProtocolError(f"message is not an object: {message!r}")
    if "method" in message:
        return "notification" if message.get("id") is None else "request"
    if "id" in message:
        return "response"
    raise ProtocolError(f"unclassifiable message: {message!r}")
