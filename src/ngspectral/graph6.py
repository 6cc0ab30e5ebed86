"""graph6 text serialization, bit-exact per the published format.

Order prefix: a single byte n+63 for n <= 62, or '~' followed by three
6-bit bytes for 63 <= n <= 258047.  Data bytes pack the upper triangle in
column-major pair order, six bits per character, most significant first.
The optional '>>graph6<<' header is accepted on input and never emitted.
The order that graph6 strings put on masks lives in `graphs`.
"""

from __future__ import annotations

import numpy as np

from ngspectral.graphs import Graph, bitarray_to_mask, check_order, mask_to_bitarray

HEADER = ">>graph6<<"
_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.int64)
_SHIFTS = np.array([5, 4, 3, 2, 1, 0], dtype=np.uint8)


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    raise ValueError(f"graph6 order {n} beyond supported range (<= 258047)")


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 string for g (no header, no trailing newline)."""
    m = g.pair_count
    bits = mask_to_bitarray(g.bits, m)
    pad = (-m) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    values = bits.reshape(-1, 6) @ _WEIGHTS
    data = (values + 63).astype(np.uint8).tobytes().decode("ascii")
    return _encode_order(g.n) + data


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; strict except for an optional header and
    trailing newline.  An order below 63 must take the one-byte prefix."""
    s = text.rstrip("\r\n")
    if s.startswith(HEADER):
        s = s[len(HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    try:
        raw = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError("graph6 string contains non-ASCII characters") from exc
    data = np.frombuffer(raw, dtype=np.uint8)
    if np.any(data < 63) or np.any(data > 126):
        raise ValueError("graph6 characters must be in the byte range 63..126")

    if data[0] != 126:  # '~'
        n, body = int(data[0]) - 63, data[1:]
    else:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6 eight-byte order form exceeds supported range")
        if len(data) < 4:
            raise ValueError("truncated graph6 order prefix")
        n, body = int(np.dot(data[1:4] - 63, (4096, 64, 1))), data[4:]  # three 6-bit digits
        if n <= 62:
            raise ValueError(f"graph6 order {n} takes the one-byte prefix, not '~'")
    if n == 0:
        raise ValueError("graph6 order 0 not supported (order must be positive)")
    check_order(n)

    m = n * (n - 1) // 2
    expected = (m + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 data length {len(body)} does not match order {n} (expected {expected})"
        )
    if expected == 0:
        return Graph(n, 0)
    values = (body - 63).astype(np.uint8)
    bits = ((values[:, None] >> _SHIFTS[None, :]) & 1).ravel()
    if np.any(bits[m:]):
        raise ValueError("graph6 padding bits must be zero")
    return Graph(n, bitarray_to_mask(bits[:m]))
