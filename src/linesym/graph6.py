"""graph6 encoding: printable bytes 63..126, six bits per byte.

The header is N(n): one byte n+63 for n <= 62, or '~' followed by three
bytes carrying an 18-bit big-endian n up to 258047.  The body packs the
upper triangle of the adjacency matrix column by column ((0,1), (0,2),
(1,2), (0,3), ...), zero-padded to a multiple of six bits.  Column j
lists the lower neighbours of j in order, so reading the columns in turn
fills every adjacency row already sorted; writing sets one bit per edge.
"""

from __future__ import annotations

import itertools

from .graphs import Graph

_HEADER = b">>graph6<<"
_MAX_LONG_N = 258047
_SEXTETS = [tuple(v >> shift & 1 for shift in range(5, -1, -1)) for v in range(64)]


def _bit_count(n: int) -> int:
    return n * (n - 1) // 2


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 string; strict about padding and length."""
    if isinstance(data, str):
        data = data.encode("ascii")
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    data = data.rstrip(b"\n")
    if not data:
        raise ValueError("empty graph6 input")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graphs beyond 258047 vertices are out of scope")
        if len(data) < 4:
            raise ValueError("truncated long-form header")
        chunk = [b - 63 for b in data[1:4]]
        if any(not 0 <= c <= 63 for c in chunk):
            raise ValueError("malformed long-form header byte")
        n = (chunk[0] << 12) | (chunk[1] << 6) | chunk[2]
        body = data[4:]
    else:
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise ValueError(f"malformed header byte {data[0]}")
        body = data[1:]
    if n == 0:
        raise ValueError("the empty graph is not representable")
    nbits = _bit_count(n)
    need = (nbits + 5) // 6
    if len(body) < need:
        raise ValueError(f"body holds {len(body)} bytes, needs {need}")
    if len(body) > need:
        raise ValueError("trailing garbage after graph body")
    bits = []
    for b in body:
        val = b - 63
        if not 0 <= val <= 63:
            raise ValueError(f"byte {b} outside the printable graph6 range")
        bits.extend(_SEXTETS[val])
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits")
    rows: list[list[int]] = [[] for _ in range(n)]
    for j in range(1, n):  # column j, the pairs (i, j) with i < j, starts at bit j(j-1)/2
        k = j * (j - 1) // 2
        rows[j] = list(itertools.compress(range(j), bits[k:k + j]))
        for i in rows[j]:  # each row takes its lower neighbours, then its upper ones
            rows[i].append(j)
    return Graph(n, tuple(map(tuple, rows)))


def emit_graph6(g: Graph) -> bytes:
    """Encode a Graph as canonical graph6 bytes (zero padding, minimal header)."""
    n = g.n
    if n > _MAX_LONG_N:
        raise ValueError("graphs beyond 258047 vertices are out of scope")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    body = bytearray((_bit_count(n) + 5) // 6)
    for j, row in enumerate(g.adj):
        for i in row:
            if i > j:
                break
            k = j * (j - 1) // 2 + i  # the bit of pair (i, j), i < j
            body[k // 6] |= 32 >> k % 6
    return head + bytes(b + 63 for b in body)
