"""Property and fuzz suite for the zero-copy shard frame codec.

The transport's contract: any message the shard protocol can form
round-trips exactly (arrays by value *and* dtype/shape, object-key
columns through the pickled skeleton), and any malformed input —
truncated frames, oversized declarations, garbage bytes, mismatched
buffer lengths — raises :class:`TransportError` cleanly.  The fuzz
cases exist because a decoder that guesses on bad input desynchronises
the request/reply pipe permanently; failure must always be loud.
"""

import multiprocessing
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.shard.transport import (
    MAX_BUFFERS,
    FramePipe,
    TransportError,
    _NDRef,
    dumps,
    extract_arrays,
    loads,
    restore_arrays,
)

# -- strategies ----------------------------------------------------------

fixed_dtypes = st.one_of(
    hnp.integer_dtypes(endianness="="),
    hnp.unsigned_integer_dtypes(endianness="="),
    hnp.floating_dtypes(endianness="=", sizes=(32, 64)),
    st.just(np.dtype(bool)),
)

shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)


@st.composite
def ndarrays(draw):
    dt = draw(fixed_dtypes)
    shape = draw(shapes)
    if np.issubdtype(dt, np.floating):
        elements = st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, width=32
        )
        return draw(hnp.arrays(dt, shape, elements=elements))
    return draw(hnp.arrays(dt, shape))


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)


@st.composite
def messages(draw):
    """Shard-protocol-shaped trees: tuples/lists/dicts of scalars and
    arrays, like ``(op, keys, points, ts)`` and snapshot documents."""
    leaves = st.one_of(scalars, ndarrays())
    tree = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=12,
    )
    return draw(tree)


def assert_equal_tree(a, b):
    """Structural equality where ndarrays compare by dtype+shape+value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_equal_tree(x, y)
    elif isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b)
        for k in a:
            assert_equal_tree(a[k], b[k])
    elif isinstance(a, float) and a != a:  # NaN
        assert isinstance(b, float) and b != b
    else:
        assert a == b


# -- round-trip properties ----------------------------------------------


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(messages())
    def test_any_message_round_trips(self, msg):
        assert_equal_tree(loads(dumps(msg)), msg)

    @settings(max_examples=60, deadline=None)
    @given(ndarrays())
    def test_any_array_round_trips_by_buffer(self, arr):
        skeleton, buffers = extract_arrays(("ingest", arr))
        assert len(buffers) == 1
        back = restore_arrays(
            skeleton, [b.tobytes() for b in buffers]
        )
        assert_equal_tree(back, ("ingest", arr))

    def test_empty_array_round_trips(self):
        msg = ("op", np.empty((0, 2), dtype=np.float64))
        out = loads(dumps(msg))
        assert out[1].shape == (0, 2)
        assert out[1].dtype == np.float64

    def test_scalar_shape_array_round_trips(self):
        msg = np.float64(3.25).reshape(())  # rank-0
        out = loads(dumps(np.asarray(msg)))
        assert out.shape == ()
        assert float(out) == 3.25

    def test_object_key_column_rides_the_skeleton(self):
        # Keys may be arbitrary hashables — they are NOT bufferable and
        # must survive inside the pickled skeleton.
        keys = np.array([("a", 1), "mixed", 3.5, None], dtype=object)
        skeleton, buffers = extract_arrays(("ingest_arrays", keys))
        assert buffers == []  # nothing lifted
        out = loads(dumps(("ingest_arrays", keys)))
        assert out[1].dtype == object
        assert out[1].tolist() == keys.tolist()

    def test_mixed_message_shape(self):
        msg = (
            "ingest_arrays",
            np.array(["k1", "k2"], dtype="<U2"),
            np.array([[0.0, 1.0], [2.0, 3.0]]),
            None,
            1.5,
        )
        out = loads(dumps(msg))
        assert out[0] == "ingest_arrays"
        assert out[1].tolist() == ["k1", "k2"]
        np.testing.assert_array_equal(out[2], msg[2])
        assert out[3] is None and out[4] == 1.5

    def test_non_contiguous_array_round_trips(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        msg = base[::2, ::3]  # strided view
        out = loads(dumps(msg))
        np.testing.assert_array_equal(out, msg)

    def test_received_views_are_zero_copy_reads(self):
        arr = np.arange(8, dtype=np.int64)
        out = loads(dumps(arr))
        # frombuffer views over received bytes are read-only; the shard
        # layer only reads its slices, so this is part of the contract.
        assert not out.flags.writeable
        np.testing.assert_array_equal(out, arr)


# -- rejection properties ------------------------------------------------


class TestRejection:
    @settings(max_examples=120, deadline=None)
    @given(st.binary(max_size=200))
    def test_garbage_bytes_fail_cleanly(self, junk):
        """Any byte string either decodes or raises TransportError —
        never another exception type, never silent nonsense."""
        try:
            loads(junk)
        except TransportError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(messages(), st.integers(min_value=1, max_value=40))
    def test_truncation_fails_cleanly(self, msg, cut):
        data = dumps(msg)
        if cut >= len(data):
            cut = len(data) - 1
        if cut <= 0:
            return
        with pytest.raises(TransportError):
            loads(data[:-cut])

    @settings(max_examples=60, deadline=None)
    @given(messages(), st.binary(min_size=1, max_size=16))
    def test_trailing_garbage_fails_cleanly(self, msg, extra):
        with pytest.raises(TransportError):
            loads(dumps(msg) + extra)

    @settings(max_examples=120, deadline=None)
    @given(messages(), st.data())
    def test_bitflips_fail_cleanly_or_decode(self, msg, data):
        """Corrupting any single byte must not escape TransportError.
        (A flip inside a payload buffer or pickled string may still
        decode — to different values — which is fine; desync or a leak
        of raw struct/pickle errors is not.)"""
        raw = bytearray(dumps(msg))
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        raw[pos] ^= flip
        try:
            loads(bytes(raw))
        except TransportError:
            pass

    @pytest.mark.parametrize(
        "ref, buf",
        [
            (_NDRef.__new__(_NDRef), b""),  # pickled state never applied
            (_NDRef("0", "|i1", (1,)), b"\0"),
            (_NDRef(0, "|i1", True), b"\0"),
            (_NDRef(0, "|i1", None), b"\0"),
            (_NDRef(0, "|O", (1,)), b"\0" * 8),
            (_NDRef(0, "|V0", (1,)), b""),
        ],
        ids=["no-state", "str-index", "bool-shape", "none-shape",
             "object-dtype", "zero-itemsize"],
    )
    def test_malformed_placeholder_fails_cleanly(self, ref, buf):
        """Single-byte flips in the pickled skeleton decode to these
        placeholders; each once leaked a raw TypeError, AttributeError
        or ValueError instead of a TransportError."""
        with pytest.raises(TransportError):
            restore_arrays([ref], [buf])

    def test_self_referential_skeleton_fails_cleanly(self):
        skeleton = []
        skeleton.append(skeleton)
        with pytest.raises(TransportError, match="itself"):
            restore_arrays(skeleton, [])

    def test_bad_magic_rejected(self):
        data = dumps(("op",))
        with pytest.raises(TransportError, match="magic"):
            loads(b"XXXX" + data[4:])

    def test_oversize_buffer_declaration_rejected(self):
        data = dumps(np.arange(64, dtype=np.float64))
        with pytest.raises(TransportError, match="exceeds limit"):
            loads(data, max_bytes=63)

    def test_too_many_buffers_rejected_on_decode(self):
        msg = [np.arange(2), np.arange(3)]
        with pytest.raises(TransportError, match="buffers exceeds"):
            loads(dumps(msg), max_buffers=1)

    def test_too_many_buffers_rejected_on_encode(self):
        msg = [np.zeros(1) for _ in range(MAX_BUFFERS + 1)]
        with pytest.raises(TransportError, match="buffers exceeds"):
            dumps(msg)

    def test_undecodable_dtype_rejected(self):
        # Hand-craft a skeleton whose ref promises a nonsense dtype.
        from repro.shard.transport import _NDRef

        ref = _NDRef(0, "not-a-dtype", (2,))
        with pytest.raises(TransportError, match="dtype"):
            restore_arrays(ref, [b"\x00" * 16])

    def test_negative_shape_rejected(self):
        from repro.shard.transport import _NDRef

        ref = _NDRef(0, "<f8", (-1,))
        with pytest.raises(TransportError, match="shape"):
            restore_arrays(ref, [b"\x00" * 8])

    def test_buffer_length_mismatch_rejected(self):
        from repro.shard.transport import _NDRef

        ref = _NDRef(0, "<f8", (4,))  # promises 32 bytes
        with pytest.raises(TransportError, match="promise"):
            restore_arrays(ref, [b"\x00" * 16])

    def test_buffer_index_out_of_range_rejected(self):
        from repro.shard.transport import _NDRef

        ref = _NDRef(7, "<f8", (1,))
        with pytest.raises(TransportError, match="out of range"):
            restore_arrays(ref, [b"\x00" * 8])

    def test_non_bytes_input_rejected(self):
        with pytest.raises(TransportError, match="bytes-like"):
            loads(12345)

    def test_shm_frame_rejected_from_bytes(self):
        # The retired shared-memory header mode (byte 1 after the
        # magic) names a segment no decoder attaches any more; it must
        # be refused, not guessed around.
        from repro.shard.transport import MAGIC

        head = bytearray(dumps(np.zeros(1)))
        head[len(MAGIC)] = 1
        with pytest.raises(TransportError, match="unknown frame mode 1"):
            loads(bytes(head))


# -- live pipe round-trips -----------------------------------------------


def _echo_pipe(parent_pipe, worker_pipe, messages_to_send):
    """Drive a parent/worker pipe pair with a reader thread (both ends
    live in this process — the transport only needs a Connection)."""
    received = []

    def reader():
        for _ in messages_to_send:
            received.append(worker_pipe.recv())

    t = threading.Thread(target=reader)
    t.start()
    for m in messages_to_send:
        parent_pipe.send(m)
    t.join(timeout=30)
    assert not t.is_alive(), "reader hung"
    return received


@pytest.mark.parametrize("transport", ["frames"])
def test_pipe_round_trip(transport):
    a, b = multiprocessing.Pipe()
    parent, worker = FramePipe(a), FramePipe(b)
    msgs = [
        ("ingest_arrays", np.array(["k"], dtype=object),
         np.array([[1.0, 2.0]]), None),
        ("stats",),
        ("ok", {"streams": 3, "arr": np.arange(5, dtype=np.int32)}),
    ]
    try:
        received = _echo_pipe(parent, worker, msgs)
        for sent, got in zip(msgs, received):
            assert_equal_tree(got, sent)
    finally:
        parent.close()
        worker.close()


def test_frames_recv_rejects_desynchronised_stream():
    """Raw non-frame bytes on the wire must raise TransportError, not
    produce a phantom message."""
    a, b = multiprocessing.Pipe()
    worker = FramePipe(b)
    try:
        a.send_bytes(b"this is not a frame header")
        with pytest.raises(TransportError):
            worker.recv()
    finally:
        a.close()
        worker.close()


def test_frames_recv_rejects_short_payload_frame():
    a, b = multiprocessing.Pipe()
    from repro.shard.transport import _build_header

    worker = FramePipe(b)
    try:
        skeleton, arrays = extract_arrays(np.arange(8, dtype=np.int64))
        a.send_bytes(
            _build_header(pickle.dumps(skeleton), [a_.nbytes for a_ in arrays])
        )
        a.send_bytes(b"\x00" * 8)  # declared 64, shipped 8
        with pytest.raises(TransportError, match="declared"):
            worker.recv()
    finally:
        a.close()
        worker.close()
