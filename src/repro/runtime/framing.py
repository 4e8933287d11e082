"""The 8-byte length-prefixed pickle frame protocol, in one place.

Every process boundary in the runtime speaks the same wire format: the
``repro-worker`` stdio protocol (:mod:`repro.runtime.worker` driven by
:mod:`repro.cluster.scheduler`) and the ``repro-serve`` detection
daemon (:mod:`repro.serve.server` driven by :mod:`repro.serve.client`).
This module is the single implementation of that format — framing, the
versioned hello handshake, and the error taxonomy — so a short-read or
truncation fix lands everywhere at once instead of drifting across three
hand-rolled copies.

Frame layout:

* An 8-byte big-endian unsigned length, then that many bytes of a pickled
  ``(kind, payload)`` tuple (*kind* is a short string).
* :func:`read_frame` reads with an exact-length loop, so partial ``recv``
  returns from pipes **and sockets** are handled identically: EOF inside a
  frame is always a :class:`ProtocolError`, EOF at a frame boundary is a
  clean disconnect when the caller allows it.
* Oversized lengths (:data:`MAX_FRAME_BYTES`) mean the stream is garbage
  (e.g. a stray ``print`` landed on the frame stream) and fail fast.

Handshake: the connecting side sends ``("hello", {"protocol": V})`` and the
accepting side answers with its own hello (or ``("error", message)``); both
call :func:`check_hello` so a version mismatch is rejected symmetrically.

Liveness (protocol v2): any side may send ``("ping", token)`` and expects a
``("pong", {"token": token, "protocol": V, ...})`` answer; a driver's hello
may additionally carry ``{"heartbeat": seconds}``, asking the worker to emit
unsolicited ``("heartbeat", {"seq": n, "protocol": V, ...})`` frames every
:data:`HEARTBEAT_INTERVAL`-ish seconds from a side thread — so a worker
grinding through a long chunk is still distinguishable from a hung or
``SIGKILL``-ed one.  A peer silent for :data:`LIVENESS_DEADLINE` seconds is
presumed dead; the ``repro.cluster`` scheduler kills and respawns it and
requeues whatever chunk it held.  Both constants are canonical *here* (the
``protocol-constant`` lint enforces single definitions) and are scaled, not
redefined, by callers that need faster test deadlines.

Sockets plug in via ``socket.makefile("rb")`` / ``makefile("wb")`` — the
framing functions only need binary file objects with ``read``/``write``/
``flush``.
"""

from __future__ import annotations

import pickle
import struct
from typing import BinaryIO

from .backends.base import BackendError

#: Version of the frame protocol; bump on any incompatible layout change.
#: Both sides of every connection refuse to talk across a mismatch.
#: v2: ping/pong/heartbeat liveness frames (the heartbeat side-channel is
#: opt-in via the driver hello, but a v1 peer would treat the new kinds as
#: garbage mid-session, so the version is bumped rather than feature-flagged).
PROTOCOL_VERSION = 2

#: Upper bound on a single frame body.  Real frames are far smaller; a
#: length beyond this means the stream is garbage (e.g. a worker printing
#: to stdout), and failing fast beats trying to allocate petabytes.
MAX_FRAME_BYTES = 1 << 30

#: Frame kinds shared by every protocol built on this framing.
HELLO = "hello"
ERROR = "error"
SHUTDOWN = "shutdown"

#: Frame kinds of the worker chunk protocol (docs/RUNTIME.md).
TRACES = "traces"
CHUNK = "chunk"
RESULT = "result"

#: Liveness frame kinds (protocol v2), shared by the worker protocol and the
#: ``repro-serve`` daemon: ``ping`` expects a ``pong`` answer; ``heartbeat``
#: is the worker's unsolicited I-am-alive side-channel.
PING = "ping"
PONG = "pong"
HEARTBEAT = "heartbeat"

#: Seconds between unsolicited worker heartbeat frames (requested via the
#: driver hello's ``{"heartbeat": seconds}`` field; this is the default the
#: cluster scheduler asks for).
HEARTBEAT_INTERVAL = 1.0

#: Seconds of total silence (no heartbeat, pong, or result) after which a
#: heartbeat-enabled worker is presumed dead.  Deliberately many multiples
#: of :data:`HEARTBEAT_INTERVAL`: heartbeats ride a daemon thread that a
#: GIL-hogging simulation can delay, and a false kill costs a full chunk
#: requeue.
LIVENESS_DEADLINE = 15.0

_HEADER = struct.Struct(">Q")


class ProtocolError(BackendError):
    """The frame stream broke: truncation, garbage, or a version mismatch."""


def write_frame(stream: BinaryIO, kind: str, payload) -> None:
    """Write one length-prefixed pickle frame and flush."""
    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(body)))
    stream.write(body)
    stream.flush()


def read_exact(stream: BinaryIO, size: int) -> bytes:
    """Read exactly *size* bytes, looping over short reads.

    Pipes and sockets may both return fewer bytes than asked; this loop is
    the one place that handles it.  EOF before *size* bytes arrived raises
    :class:`ProtocolError`.
    """
    data = b""
    while len(data) < size:
        piece = stream.read(size - len(data))
        if not piece:
            raise ProtocolError(
                f"truncated frame: expected {size} bytes, got {len(data)}"
            )
        data += piece
    return data


def read_frame(stream: BinaryIO, allow_eof: bool = False):
    """Read one frame, returning ``(kind, payload)``.

    At a clean frame boundary, EOF returns ``None`` when *allow_eof* is set
    (the peer closed the connection deliberately) and raises
    :class:`ProtocolError` otherwise.  EOF inside a frame is always a
    :class:`ProtocolError`.
    """
    first = stream.read(1)
    if not first:
        if allow_eof:
            return None
        raise ProtocolError("connection closed while waiting for a frame")
    header = first + read_exact(stream, _HEADER.size - 1)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame: {length} bytes (stream is garbage?)")
    try:
        frame = pickle.loads(read_exact(stream, length))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not (isinstance(frame, tuple) and len(frame) == 2 and isinstance(frame[0], str)):
        raise ProtocolError(f"malformed frame: {type(frame).__name__}")
    return frame


def hello_version(payload) -> "int | None":
    """The protocol version carried by a hello payload (``None`` if absent)."""
    return payload.get("protocol") if isinstance(payload, dict) else None


def check_hello(payload, side: str) -> None:
    """Validate a handshake payload against our :data:`PROTOCOL_VERSION`."""
    version = hello_version(payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: {side} speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
