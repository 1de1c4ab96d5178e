"""Zero-copy frame transport for the shard pipe protocol.

The original shard IPC sent every message through ``Connection.send``,
i.e. one pickle per message: a 10^5-record batch slice crossed the pipe
as a pickled ``(op, keys, points, ts)`` tuple, which copies every NumPy
buffer into the pickle stream in the *parent* — exactly the serial cost
that capped ingest scaling at ~1x.  This module replaces that path with
a length-prefixed raw-frame protocol:

* **Message = skeleton + buffers.**  :func:`extract_arrays` walks a
  message and lifts every fixed-dtype :class:`numpy.ndarray` out of it,
  leaving a tiny placeholder (index + dtype string + shape) behind; the
  remaining skeleton (op names, keys lists, snapshot docs, scalars) is
  pickled, but it is small — the bulk data never touches pickle.
* **Frames** (:class:`FramePipe`): the header frame (magic, buffer
  count, per-buffer byte lengths, skeleton) is followed by one raw
  frame per buffer, each written straight from the array's memory via
  ``Connection.send_bytes`` — no parent-side copy.  The receiver
  validates every declared length before trusting it and rebuilds
  arrays as zero-copy ``np.frombuffer`` views over the received bytes.

Decoding is *defensive*: a frame that is truncated, oversized, declares
an impossible dtype/shape, or is plain garbage raises
:class:`TransportError` — never a silent desync.  The byte-level codec
(:func:`dumps` / :func:`loads`) is the same header/payload format in a
single buffer, which is what the property/fuzz suite in
``tests/shard/test_transport.py`` hammers.

Trust model: this transport connects a parent to worker processes *it
spawned itself* — the skeleton uses pickle, which is fine between two
halves of one program but makes the codec unsuitable for untrusted
network peers as-is.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..obs import metrics as _obs

__all__ = [
    "TransportError",
    "extract_arrays",
    "restore_arrays",
    "dumps",
    "loads",
    "FramePipe",
]

MAGIC = b"RSF1"  # repro shard frames, wire format v1

#: Header mode byte: payload buffers follow as inline frames (the only
#: mode; the byte stays so WAL and dead-letter frames keep their layout).
_MODE_INLINE = 0

#: Hard ceiling on a single buffer / skeleton (decoder rejects above).
MAX_FRAME_BYTES = 1 << 31
#: Hard ceiling on buffers per message (a shard op carries a handful).
MAX_BUFFERS = 256
#: Dimensions above this are certainly garbage, not geometry.
_MAX_NDIM = 32

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class TransportError(RuntimeError):
    """A malformed, truncated, oversized, or desynchronised frame."""


# -- structure <-> (skeleton, buffers) -----------------------------------


class _NDRef:
    """Placeholder a lifted array leaves in the pickled skeleton."""

    __slots__ = ("index", "dtype", "shape")

    def __init__(self, index: int, dtype: str, shape: Tuple[int, ...]):
        self.index = index
        self.dtype = dtype
        self.shape = shape

    def __getstate__(self):
        return (self.index, self.dtype, self.shape)

    def __setstate__(self, state):
        self.index, self.dtype, self.shape = state


def _bufferable(arr: np.ndarray) -> bool:
    """Arrays that can ride the raw-buffer path: fixed-width dtypes
    whose dtype string round-trips (object/structured dtypes stay in
    the pickled skeleton — keys may be arbitrary hashables)."""
    if arr.dtype.hasobject:
        return False
    try:
        return np.dtype(arr.dtype.str) == arr.dtype
    except TypeError:  # pragma: no cover - exotic dtype
        return False


def extract_arrays(msg: Any) -> Tuple[Any, List[np.ndarray]]:
    """Rebuild ``msg`` with every bufferable ndarray replaced by a
    :class:`_NDRef`; returns the skeleton and the lifted arrays (made
    C-contiguous, which is a no-op for the shard layer's slices)."""
    buffers: List[np.ndarray] = []

    def walk(obj):
        if isinstance(obj, np.ndarray) and _bufferable(obj):
            # Only copy when actually strided: ascontiguousarray would
            # also promote rank-0 arrays to 1-D (its contract is
            # ndim >= 1), silently changing the round-tripped shape.
            arr = obj if obj.flags.c_contiguous else np.ascontiguousarray(obj)
            buffers.append(arr)
            return _NDRef(len(buffers) - 1, arr.dtype.str, arr.shape)
        if isinstance(obj, tuple):
            return tuple(walk(o) for o in obj)
        if isinstance(obj, list):
            return [walk(o) for o in obj]
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        return obj

    return walk(msg), buffers


def _ref_nbytes(ref: _NDRef, n_buffers: int) -> Tuple[np.dtype, int, int]:
    """Validate a decoded :class:`_NDRef` against the ``n_buffers``
    received buffers; returns (dtype, count, nbytes).

    Raises:
        TransportError: on a placeholder that cannot describe a real
            buffer (the fuzz path: garbage must fail loudly here).
    """
    try:
        index, dtype, shape = ref.index, ref.dtype, ref.shape
    except AttributeError as exc:  # unpickled without its state
        raise TransportError("array placeholder without state") from exc
    if not isinstance(index, int) or not 0 <= index < n_buffers:
        raise TransportError(f"buffer index {index!r} out of range")
    try:
        dt = np.dtype(dtype)
    except Exception as exc:
        raise TransportError(f"undecodable dtype {dtype!r}") from exc
    if dt.hasobject or dt.itemsize == 0:
        raise TransportError(f"dtype {dt} cannot describe a raw buffer")
    if not isinstance(shape, tuple) or len(shape) > _MAX_NDIM:
        raise TransportError(f"bad array shape {shape!r}")
    count = 1
    for dim in shape:
        if not isinstance(dim, int) or dim < 0:
            raise TransportError(f"bad array shape {shape!r}")
        count *= dim
    nbytes = count * dt.itemsize
    if nbytes > MAX_FRAME_BYTES:
        raise TransportError(f"array of {nbytes} bytes exceeds frame limit")
    return dt, count, nbytes


def restore_arrays(skeleton: Any, buffers: Sequence[Any]) -> Any:
    """Inverse of :func:`extract_arrays`: graft the received buffers
    back into the skeleton as zero-copy ``np.frombuffer`` views.

    Raises:
        TransportError: when a placeholder's dtype/shape does not match
            its buffer's length (a truncated or mismatched frame), or
            the skeleton refers to itself.
    """

    def walk(obj):
        if isinstance(obj, _NDRef):
            dt, count, nbytes = _ref_nbytes(obj, len(buffers))
            buf = buffers[obj.index]
            if len(memoryview(buf)) != nbytes:
                raise TransportError(
                    f"buffer {obj.index} holds {len(memoryview(buf))} bytes, "
                    f"dtype/shape promise {nbytes}"
                )
            return np.frombuffer(buf, dtype=dt, count=count).reshape(obj.shape)
        if isinstance(obj, tuple):
            return tuple(walk(o) for o in obj)
        if isinstance(obj, list):
            return [walk(o) for o in obj]
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        return obj

    try:
        return walk(skeleton)
    except RecursionError as exc:  # a corrupted pickle memo made a cycle
        raise TransportError("skeleton contains itself") from exc


def _loads_skeleton(data: bytes) -> Any:
    """Guarded skeleton unpickle: anything it throws becomes a
    :class:`TransportError` (fuzz bytes must never leak raw pickle
    machinery errors, let alone desync the stream)."""
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise TransportError(f"undecodable skeleton: {exc}") from exc


# -- header codec --------------------------------------------------------


def _build_header(skel_bytes: bytes, sizes: Sequence[int]) -> bytes:
    """One header frame: magic, mode, buffer lengths, skeleton."""
    parts = [MAGIC, bytes([_MODE_INLINE]), _U32.pack(len(sizes))]
    parts += [_U64.pack(n) for n in sizes]
    parts.append(_U64.pack(len(skel_bytes)))
    parts.append(skel_bytes)
    return b"".join(parts)


class _Reader:
    """Bounds-checked cursor over a received header frame."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise TransportError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise TransportError(
                f"{len(self.data) - self.pos} trailing bytes after frame"
            )


def _parse_header(
    data: bytes, *, max_buffers: int = MAX_BUFFERS,
    max_bytes: int = MAX_FRAME_BYTES,
):
    """Parse one header frame.

    Returns ``(skeleton_bytes, sizes, reader)``.  The cursor is *not*
    required to be exhausted — :func:`loads` checks that separately
    because its payload follows in the same buffer.
    """
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise TransportError("bad magic: not a shard frame")
    mode = r.take(1)[0]
    if mode != _MODE_INLINE:
        raise TransportError(f"unknown frame mode {mode}")
    nbuf = r.u32()
    if nbuf > max_buffers:
        raise TransportError(f"{nbuf} buffers exceeds limit {max_buffers}")
    sizes = [r.u64() for _ in range(nbuf)]
    for n in sizes:
        if n > max_bytes:
            raise TransportError(f"buffer of {n} bytes exceeds limit")
    skel_len = r.u64()
    if skel_len > max_bytes:
        raise TransportError(f"skeleton of {skel_len} bytes exceeds limit")
    skel = r.take(skel_len)
    return skel, sizes, r


# -- byte-level codec (single buffer; the property-test surface) ---------


def _encode(msg: Any) -> Tuple[bytes, List[np.ndarray]]:
    """One message as its header frame plus the lifted arrays."""
    skeleton, arrays = extract_arrays(msg)
    if len(arrays) > MAX_BUFFERS:
        raise TransportError(
            f"{len(arrays)} buffers exceeds limit {MAX_BUFFERS}"
        )
    skel_bytes = pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL)
    return _build_header(skel_bytes, [a.nbytes for a in arrays]), arrays


def dumps(msg: Any) -> bytes:
    """Encode a message into one self-contained byte string (header +
    payload buffers, each length-prefixed).  The wire pipes use the
    same header but ship payload as separate zero-copy frames; this
    single-buffer form exists for tests and for callers that want the
    codec without a :class:`~multiprocessing.connection.Connection`."""
    head, arrays = _encode(msg)
    return head + b"".join(a.tobytes() for a in arrays)


def loads(
    data: bytes, *, max_buffers: int = MAX_BUFFERS,
    max_bytes: int = MAX_FRAME_BYTES,
) -> Any:
    """Decode :func:`dumps` output.  Strict: truncated input, trailing
    garbage, oversized declarations, undecodable skeletons/dtypes all
    raise :class:`TransportError`.

    ``max_buffers`` / ``max_bytes`` exist so the rejection paths can be
    tested without materialising multi-gigabyte frames.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TransportError("frame must be a bytes-like object")
    skel, sizes, reader = _parse_header(
        bytes(data), max_buffers=max_buffers, max_bytes=max_bytes
    )
    buffers = [reader.take(n) for n in sizes]
    reader.done()
    return restore_arrays(_loads_skeleton(skel), buffers)


# -- connection pipes ----------------------------------------------------


class FramePipe:
    """Raw-frame transport over a :class:`Connection`: one header frame
    plus one zero-copy frame per lifted array, in both directions."""

    def __init__(self, conn):
        self.conn = conn

    def send(self, msg: Any) -> None:
        header, arrays = _encode(msg)
        self.conn.send_bytes(header)
        for a in arrays:
            # send_bytes accepts any buffer — the array's own memory
            # goes to the pipe without an intermediate Python copy.
            self.conn.send_bytes(a if a.nbytes else b"")
        _obs.TRANSPORT_FRAMES_SEND.inc(1 + len(arrays))
        _obs.TRANSPORT_BYTES_SEND.inc(
            len(header) + sum(a.nbytes for a in arrays)
        )

    def recv(self) -> Any:
        head = self.conn.recv_bytes()
        skel, sizes, reader = _parse_header(head)
        reader.done()
        buffers = []
        for n in sizes:
            try:
                buf = self.conn.recv_bytes(maxlength=max(n, 1))
            except OSError as exc:
                raise TransportError(
                    f"payload frame exceeded declared {n} bytes"
                ) from exc
            if len(buf) != n:
                raise TransportError(
                    f"payload frame of {len(buf)} bytes, declared {n}"
                )
            buffers.append(buf)
        _obs.TRANSPORT_FRAMES_RECV.inc(1 + len(sizes))
        _obs.TRANSPORT_BYTES_RECV.inc(len(head) + sum(sizes))
        return restore_arrays(_loads_skeleton(skel), buffers)

    def poll(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    def close(self) -> None:
        self.conn.close()
