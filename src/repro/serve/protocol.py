"""Wire protocol of the TCP front end: JSON envelopes, binary payloads.

Every message is one JSON header line.  An array payload travels in one
form only, the **binary frame**: the header carries ``"shape"`` and
``"nbytes"`` and exactly ``nbytes`` of raw little-endian ``complex128``
bytes follow the newline (no base64 expansion, no JSON string escaping).
An ``fft`` request without a payload is a ``bad-request``.

Request ops::

    {"op": "fft", "id": 1, "shape": [b, n], "nbytes": 16384,
     "threads": 2, "mu": 4, "timeout": 1.0, "no_batch": false}\\n<raw bytes>
    {"op": "stats", "id": 2}
    {"op": "ping", "id": 3}
    {"op": "health", "id": 4}
    {"op": "prewarm", "id": 5, "n": 4096, "threads": 2, "mu": 4}

Responses echo ``id`` and carry ``ok``; failures carry ``error`` (a stable
code from :data:`ERROR_CODES`) plus a human ``detail``, and ``overloaded``
adds ``retry_after`` seconds.  ``deadline`` is *typed*: a request whose
deadline passes while queued fails with it at expiry time.  ``internal``
marks transient server-side trouble (a broken worker pool, an injected
fault) and is safe to retry; ``bad-request``/``deadline``/``closed`` are
not.  The ``health`` op returns the service's liveness snapshot — queue
depth, per-pool status, degradation and fault counters (see
``docs/serving.md``).
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

#: wire dtype for array payloads
WIRE_DTYPE = "<c16"

#: every stable error code a response can carry; ``RETRYABLE_CODES`` are
#: the ones a client may safely resend after backing off
ERROR_CODES = (
    "overloaded", "deadline", "closed", "bad-request", "bad-json", "internal",
)
RETRYABLE_CODES = ("overloaded", "internal")

#: refuse binary payloads beyond this (corrupt header / abuse guard)
MAX_PAYLOAD_BYTES = 1 << 28


def dump_line(msg: dict) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return json.dumps(msg, separators=(",", ":")).encode("utf-8") + b"\n"


def load_line(line: bytes) -> dict:
    msg = json.loads(line.decode("utf-8"))
    if not isinstance(msg, dict):
        raise ValueError("wire messages must be JSON objects")
    return msg


def write_frame(wfile, msg: dict, arr: Optional[np.ndarray] = None) -> None:
    """Write one message; ``arr`` travels as a raw binary payload."""
    if arr is None:
        wfile.write(dump_line(msg))
        return
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.complex128)).astype(
        WIRE_DTYPE, copy=False
    )
    head = dict(msg)
    head["shape"] = list(arr.shape)
    head["nbytes"] = arr.nbytes
    wfile.write(dump_line(head))
    wfile.write(arr.tobytes())


def read_frame_raw(rfile) -> Optional[tuple[dict, Optional[bytes]]]:
    """Read one message; returns ``(header, payload-bytes-or-None)``, None
    at EOF.

    Raises :class:`ValueError` on a malformed header or an oversized
    payload declaration; an EOF in the middle of a declared payload is
    treated as a closed connection (returns None).  This is all the relay
    path of :mod:`repro.shard.router` needs: the header (to route by plan
    key) and the payload bytes (to forward, and to resend on failover),
    never the numbers themselves.
    """
    while True:
        line = rfile.readline()
        if not line:
            return None
        line = line.strip()
        if line:
            break
    msg = load_line(line)
    nbytes = msg.get("nbytes")
    if nbytes is None:
        return msg, None
    nbytes = int(nbytes)
    if not 0 <= nbytes <= MAX_PAYLOAD_BYTES:
        raise ValueError(f"unreasonable payload size {nbytes}")
    buf = rfile.read(nbytes)
    if len(buf) != nbytes:
        return None
    return msg, bytes(buf)


def read_frame(rfile) -> Optional[tuple[dict, Optional[np.ndarray]]]:
    """:func:`read_frame_raw` with the payload viewed as a complex array."""
    frame = read_frame_raw(rfile)
    if frame is None or frame[1] is None:
        return frame
    msg, buf = frame
    # <c16 is complex128 on little-endian hosts, so this is usually a view
    arr = np.frombuffer(buf, dtype=WIRE_DTYPE).astype(
        np.complex128, copy=False
    )
    shape = msg.get("shape")
    if shape is not None:
        arr = arr.reshape(shape)
    return msg, arr


def write_frame_raw(wfile, msg: dict, payload: Optional[bytes]) -> None:
    """Forward a header + raw payload pair read by :func:`read_frame_raw`.

    The header is re-serialized verbatim (it already carries ``shape`` /
    ``nbytes`` when a payload follows); the payload bytes pass through
    untouched.
    """
    wfile.write(dump_line(msg))
    if payload is not None:
        wfile.write(payload)


def error_response(req_id, code: str, detail: str,
                   retry_after: Optional[float] = None) -> dict:
    resp = {"id": req_id, "ok": False, "error": code, "detail": detail}
    if retry_after is not None:
        resp["retry_after"] = retry_after
    return resp
