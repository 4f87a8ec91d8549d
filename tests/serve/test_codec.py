"""The header codec: built once, and exactly ``json``'s answers.

``dump_line`` encodes with one C encoder made at import and
``_read_frame_raw`` parses with one decoder's ``raw_decode``; neither may
change a byte or a verdict of the ``json.dumps(msg, separators=(",", ":"))``
/ ``json.loads`` pair they replace.
"""

import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve.protocol import FrameError, _line_chunks, _read_frame_raw, \
    dump_line


def _reference_line(msg) -> bytes:
    return json.dumps(msg, separators=(",", ":")).encode() + b"\n"


_FLOAT_EDGES = [0.1, 1e16, 1e-7, 1e22, 123456789012345680.0, -0.0, 5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308,
                float("nan"), float("inf"), -float("inf")]
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
            | st.floats() | st.sampled_from(_FLOAT_EDGES) | st.text())
_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=24)


@given(st.dictionaries(_keys, _values, max_size=6))
@example({"s": '"\\/\b\f\n\r\t\x00\x1f\x7f', "u": "héllo ✓ 𝄞 \u2028",
          "lone": "\ud800", "f": _FLOAT_EDGES, "n": [None, True, False],
          "deep": {"a": [{"b": [[]]}, {}]}, 3: 1.5, 2.5: "k", None: 0,
          False: -(2 ** 70)})
@settings(max_examples=300, deadline=None)
def test_dump_line_is_compact_json_dumps_byte_for_byte(msg):
    want = _reference_line(msg)
    assert dump_line(msg) == want
    # the interpreter-without-_json fallback is JSONEncoder.encode itself
    assert "".join(_line_chunks(None)(msg, 0)).encode() + b"\n" == want


def test_dump_line_raises_what_json_dumps_raises():
    for bad in ({"x": object()}, {"x": {1, 2}}, {(1, 2): 0}):
        with pytest.raises(TypeError):
            json.dumps(bad, separators=(",", ":"))
        with pytest.raises(TypeError):
            dump_line(bad)


def _verdict_by_json_loads(line: bytes):
    """What the header parser said before: ``json.loads`` of the stripped
    line, which must be an object — the dict, or None for ``bad-json``."""
    try:
        msg = json.loads(line.strip().decode("utf-8"))
    except ValueError:
        return None
    return msg if type(msg) is dict else None


def _verdict_by_recv(line: bytes):
    try:
        frame = _read_frame_raw(io.BytesIO(line + b"\n"))
    except FrameError as exc:
        assert exc.response["error"] == "bad-json" and exc.fatal
        return None
    if frame is None:  # a blank line is skipped, then EOF: no message
        return None
    msg, payload, raw = frame
    assert payload is None and raw == line + b"\n"
    return msg


#: header lines (newline added by the test) and whether one is a message
LINES = {
    "compact": (b'{"op":"ping","id":1}', True),
    "spaced": (b'  { "op" : "ping" ,\t"id" : 2 }\t\r', True),
    "empty-object": (b"{}", True),
    "nested": (b'{"a":[1,{"b":null}],"c":{"d":[true,false]}}', True),
    "non-ascii": ('{"s":"h\u00e9llo \u2713"}'.encode(), True),
    "escapes": (b'{"s":"\\u00e9\\n\\"\\\\\\ud83d\\ude00"}', True),
    "nan-and-infinities": (b'{"a":NaN,"b":Infinity,"c":-Infinity}', True),
    "overflowing-float": (b'{"timeout":1e400}', True),
    "huge-int": (b'{"id":' + b"9" * 300 + b"}", True),
    "duplicate-keys": (b'{"id":1,"id":2}', True),
    "form-feed-padding": (b'\x0c{"id":3}\x0b', True),
    "trailing-garbage": (b'{"id":1} x', False),
    "trailing-comma": (b'{"id":1,}', False),
    "two-objects": (b'{"id":1}{"id":2}', False),
    "two-objects-spaced": (b'{"id":1} {"id":2}', False),
    "bom": (b'\xef\xbb\xbf{"id":1}', False),
    "bare-array": (b"[1,2]", False),
    "bare-string": (b'"ping"', False),
    "bare-number": (b"7", False),
    "null": (b"null", False),
    "unterminated": (b'{"id":1', False),
    "single-quotes": (b"{'id':1}", False),
    "lowercase-nan": (b'{"a":nan}', False),
    "leading-zero": (b'{"a":01}', False),
    "control-char-in-string": (b'{"s":"a\x01b"}', False),
    "unknown-escape": (b'{"s":"\\x"}', False),
    "not-utf8": (b'{"s":"\xff"}', False),
    "trailing-nbsp": ('{"id":1}\u00a0'.encode(), False),
    "trailing-comment": (b'{"id":1} // note', False),
}


@pytest.mark.parametrize("case", sorted(LINES))
def test_recv_rejects_exactly_the_lines_json_loads_rejects(case):
    line, is_message = LINES[case]
    want, got = _verdict_by_json_loads(line), _verdict_by_recv(line)
    assert (want is not None) == is_message
    assert (got is not None) == is_message
    # NaN is not equal to itself: compare the values by their spelling
    assert json.dumps(got) == json.dumps(want)


@given(st.text(alphabet='{}[]":,.-+ 0129eEaINn\\/\txé\ufeff',
               max_size=24))
@settings(max_examples=400, deadline=None)
def test_recv_agrees_with_json_loads_on_any_line(text):
    line = text.encode()
    want, got = _verdict_by_json_loads(line), _verdict_by_recv(line)
    assert json.dumps(got) == json.dumps(want)
