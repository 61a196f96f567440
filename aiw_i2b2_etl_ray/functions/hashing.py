"""Hashing kernels: content digests, stable partition keys, fingerprints.

- ``sha256_hex`` implements the per-row content invariant required by
  BASELINE.json (`content sha256 equality`).
- ``bucket_hash`` is the shuffle partitioner: polars' xxhash64 of
  :func:`key_expr` mod num_buckets.  Placement that must outlast a process
  (the replay's partitions) goes through ``stages.routing``, whose
  ``routing.routing_id()`` checks that the hash still routes as it did.
"""

from __future__ import annotations

import hashlib

import numpy as np
import polars as pl
import pyarrow as pa

_EMPTY_SHA = hashlib.sha256(b"").hexdigest()


def _digest_rows(col: pa.Array | pa.ChunkedArray, factory, hexed: bool) -> list:
    """Per-row cryptographic digests over an Arrow utf8/binary column,
    hashing the data buffer DIRECTLY through zero-copy memoryview slices
    (a string array's buffer already holds the utf8 bytes, so digests are
    identical to ``factory(s.encode("utf-8"))``) — no per-row Python string
    materialization.  Profiled 1.6x over the to_pylist loop; the residue is
    the C compression, the cryptographic floor.  Null rows stay None."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list = []
    for ch in chunks:
        if len(ch) == 0:
            continue
        big = pa.types.is_large_string(ch.type) or pa.types.is_large_binary(ch.type)
        odt = np.int64 if big else np.int32
        bufs = ch.buffers()
        off = np.frombuffer(
            bufs[1],
            dtype=odt,
            count=len(ch) + 1,
            offset=ch.offset * np.dtype(odt).itemsize,
        )
        data = memoryview(bufs[2])
        if hexed:
            if ch.null_count == 0:
                out.extend(
                    factory(data[off[i] : off[i + 1]]).hexdigest()
                    for i in range(len(ch))
                )
            else:
                valid = ch.is_valid().to_numpy(zero_copy_only=False)
                out.extend(
                    factory(data[off[i] : off[i + 1]]).hexdigest() if valid[i] else None
                    for i in range(len(ch))
                )
        else:
            if ch.null_count == 0:
                out.extend(
                    factory(data[off[i] : off[i + 1]]).digest() for i in range(len(ch))
                )
            else:
                valid = ch.is_valid().to_numpy(zero_copy_only=False)
                out.extend(
                    factory(data[off[i] : off[i + 1]]).digest() if valid[i] else None
                    for i in range(len(ch))
                )
    return out


def sha256_hex(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Hex sha256 of each utf8 value; null stays null (see _digest_rows —
    zero-copy buffer slices, no per-row Python strings)."""
    return pa.array(_digest_rows(col, hashlib.sha256, hexed=True), type=pa.string())


def sha256_bin(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Raw 32-byte sha256 digests — the shuffle-side representation (half
    the bytes of hex; hex-encode only at the output edge).  This is the
    replay hot path: the digest was 88% of the Normalizer's per-batch cost
    before the zero-copy rewrite (see _digest_rows)."""
    return pa.array(_digest_rows(col, hashlib.sha256, hexed=False), type=pa.binary())


def md5_hex(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Hex md5 of each utf8 value; null stays null (fingerprints and chunk
    ids — same zero-copy buffer walk as the sha kernels)."""
    return pa.array(_digest_rows(col, hashlib.md5, hexed=True), type=pa.string())


def bin_to_hex(col) -> pa.Array:
    """Vectorized binary->hex (polars kernel)."""
    import polars as pl

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(
        pl.Series(pl.from_arrow(col)).bin.encode("hex").to_list(), pa.string()
    )


def key_expr(cols: list[str]) -> pl.Expr:
    """The multi-column key as one string: values joined by ``"\x1f"``
    (a separator '/'-bearing paths never contain), nulls as ``"\x00"``."""
    return pl.concat_str([pl.col(c).fill_null("\x00") for c in cols], separator="\x1f")


def bucket_hash(
    t: pa.Table, cols: list[str], num_buckets: int, *, seed: int = 0
) -> pa.Array:
    """polars' xxhash64 of :func:`key_expr` mod ``num_buckets`` -> int32."""
    df = pl.from_arrow(t.select(cols))
    h = df.select(key_expr(cols).hash(seed=seed))[:, 0].to_numpy()
    return pa.array((h % np.uint64(num_buckets)).astype(np.int32))


def rolling_fingerprint(col: pa.Array | pa.ChunkedArray, *, window: int = 8) -> pa.Array:
    """Document fingerprint: min-of-rolling-polynomial-hash over the byte
    stream (a winnowing-style fingerprint).

    Fully vectorized ACROSS the batch: the utf-8 bytes come straight from
    the Arrow string buffers (zero-copy — no per-row ``as_py``/``encode``),
    ONE flat rolling-hash pass covers every document, windows that cross a
    document boundary are masked via a difference-array sweep, and the
    per-document minima fold with ``np.minimum.reduceat``.  Documents
    shorter than the window accumulate whole-document polynomials in a
    ``window``-bounded masked loop.  Null/empty rows fingerprint to 0.

    Near-identical documents (same bytes) share fingerprints; used by the
    text-analysis query family, not by the CDC core.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n_rows = len(col)
    out = np.zeros(n_rows, dtype=np.uint64)
    if n_rows == 0:
        return pa.array(out.view(np.int64))
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    offs = (
        np.frombuffer(bufs[1], off_dtype)[col.offset : col.offset + n_rows + 1]
        .astype(np.int64)
    )
    flat = (
        np.frombuffer(bufs[2], np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    start = offs[0]
    offs = offs - start
    data = flat[start : start + offs[-1]]
    lens = np.diff(offs)
    # honor the validity bitmap: Arrow permits null slots with NON-zero
    # offset extents (validity-masked pre-filled buffers, some compute/IPC
    # paths) — such a slot must fingerprint to 0, and its garbage bytes
    # must not leak into a neighboring row's reduceat segment
    null_rows = np.empty(0, np.int64)
    if bufs[0] is not None:
        bits = np.frombuffer(bufs[0], np.uint8)
        idx = np.arange(col.offset, col.offset + n_rows)
        valid = ((bits[idx >> 3] >> (idx & 7)) & 1).astype(bool)
        null_rows = np.flatnonzero(~valid)
        lens = lens.copy()
        lens[null_rows] = 0
    base = np.uint64(1099511628211)
    pw = np.empty(window, dtype=np.uint64)
    pw[0] = np.uint64(1)
    with np.errstate(over="ignore"):  # modular 2^64 arithmetic by design
        for k in range(1, window):
            pw[k] = pw[k - 1] * base

    long_rows = np.flatnonzero(lens >= window)
    if long_rows.size:
        nacc = data.size - window + 1
        acc = np.zeros(nacc, dtype=np.uint64)
        for k in range(window):
            acc += data[k : k + nacc] * pw[window - 1 - k]
        # mask windows that start in row i but cross into row i+1 (and
        # every window starting inside a too-short row): positions in
        # [max(end_i - window + 1, start_i), end_i) are invalid
        delta = np.zeros(nacc + 1, dtype=np.int64)
        inv_lo = np.clip(np.maximum(offs[1:] - (window - 1), offs[:-1]), 0, nacc)
        inv_hi = np.clip(offs[1:], 0, nacc)
        np.add.at(delta, inv_lo, 1)
        np.add.at(delta, inv_hi, -1)
        if null_rows.size:
            # mask the WHOLE extent of null slots, not just their tails
            np.add.at(delta, np.clip(offs[:-1][null_rows], 0, nacc), 1)
            np.add.at(delta, np.clip(offs[1:][null_rows], 0, nacc), -1)
        acc[np.cumsum(delta[:-1]) > 0] = np.uint64(0xFFFFFFFFFFFFFFFF)
        out[long_rows] = np.minimum.reduceat(acc, offs[:-1][long_rows])

    short_rows = np.flatnonzero((lens > 0) & (lens < window))
    if short_rows.size:
        acc_s = np.zeros(short_rows.size, dtype=np.uint64)
        starts = offs[:-1][short_rows]
        slens = lens[short_rows]
        for k in range(window - 1):
            m = slens > k
            acc_s[m] = acc_s[m] * base + data[starts[m] + k]
        out[short_rows] = acc_s
    return pa.array(out.view(np.int64))


# --- vectorized single-block MD5 (RFC 1321) -----------------------------------
#
# The mixing family's sampling decisions are keyed on md5(str(doc_id)) for
# DuckDB-oracle portability (DuckDB `md5()`).  A decimal int64 is <= 20
# characters, i.e. always ONE 64-byte MD5 block, so the whole compression
# function vectorizes over numpy lanes — no per-row Python loop; every op
# below is a C-level array op over the batch.

_MD5_S = np.array(
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4,
    dtype=np.uint32,
)
_MD5_K = (
    np.floor(np.abs(np.sin(np.arange(1, 65, dtype=np.float64))) * (2.0**32))
    .astype(np.uint64)
    .astype(np.uint32)
)
_MD5_INIT = np.array([0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476], np.uint32)
_HEX_LUT = np.frombuffer(b"0123456789abcdef", np.uint8)


def md5_digests_of_ints(ids: np.ndarray) -> np.ndarray:
    """``hashlib.md5(str(i).encode()).digest()`` for every non-negative int,
    vectorized: returns an (n, 16) uint8 digest matrix.  Only single-block
    messages are supported (any decimal int64 fits with room to spare)."""
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        return np.empty((0, 16), np.uint8)
    if ids.min() < 0:
        # a negative id would wrap to a signless 20-digit decimal (wrong
        # vs DuckDB md5(CAST(id AS VARCHAR)) AND outside the word-0..4
        # nonzero assumption below) — fail loudly instead
        raise ValueError("md5_digests_of_ints requires non-negative ids")
    # decimal digits, pure numpy (np.char.* is per-element Python): extract
    # right-aligned then left-shift each row by its leading-zero count
    digits = np.zeros((n, 20), np.uint8)
    x = ids.astype(np.uint64)
    for pos in range(19, -1, -1):
        digits[:, pos] = x % 10
        x //= 10
    lead = np.where((digits != 0).any(axis=1), (digits != 0).argmax(axis=1), 19)
    lens = 20 - lead
    cols = np.arange(20)[None, :]
    src = np.minimum(cols + lead[:, None], 19)
    shifted = np.take_along_axis(digits, src, axis=1)
    msg = np.zeros((n, 64), np.uint8)
    msg[:, :20] = np.where(cols < lens[:, None], shifted + 0x30, 0)
    msg[np.arange(n), lens] = 0x80
    msg.view("<u8")[:, 7] = (lens * 8).astype(np.uint64)  # bit length, LE

    m = msg.view("<u4")  # (n, 16) little-endian words
    a, b, c, d = (np.full(n, _MD5_INIT[j], np.uint32) for j in range(4))
    for i in range(64):
        if i < 16:
            f, g = (b & c) | (~b & d), i
        elif i < 32:
            f, g = (d & b) | (~d & c), (5 * i + 1) % 16
        elif i < 48:
            f, g = b ^ c ^ d, (3 * i + 5) % 16
        else:
            f, g = c ^ (b | ~d), (7 * i) % 16
        f = (f + a + _MD5_K[i]).astype(np.uint32)
        if g < 5 or g == 14:  # words 5-13 and 15 are always zero here
            f = (f + m[:, g]).astype(np.uint32)
        s = int(_MD5_S[i])
        a, d, c = d, c, b
        b = (b + ((f << np.uint32(s)) | (f >> np.uint32(32 - s)))).astype(
            np.uint32
        )
    out = np.empty((n, 4), "<u4")
    out[:, 0] = a + _MD5_INIT[0]
    out[:, 1] = b + _MD5_INIT[1]
    out[:, 2] = c + _MD5_INIT[2]
    out[:, 3] = d + _MD5_INIT[3]
    return out.view(np.uint8).reshape(n, 16)


def md5_hex_from_digests(dig: np.ndarray) -> np.ndarray:
    """Lowercase-hex of an (n, 16) digest matrix as a numpy U32 array
    (hex string order == digest byte order, so it sorts like the oracle)."""
    hx = np.empty((dig.shape[0], 32), np.uint8)
    hx[:, 0::2] = _HEX_LUT[dig >> 4]
    hx[:, 1::2] = _HEX_LUT[dig & 0x0F]
    return hx.view("S32").ravel().astype("U32")


def md5_uniform52_from_digests(dig: np.ndarray) -> np.ndarray:
    """First 52 bits of an (n, 16) digest matrix as uniform float64 in
    [0, 1) — shares one compression pass with the hex rank (the uniform
    is a PREFIX of the hex order)."""
    u64 = dig[:, :8].copy().view(">u8").ravel()
    return (u64 >> np.uint64(12)).astype(np.float64) / float(1 << 52)


def md5_hex_of_ints(ids: np.ndarray) -> np.ndarray:
    """Lowercase-hex md5(str(i)) per int — == ``hashlib.md5(...).hexdigest()``
    and DuckDB's ``md5(CAST(i AS VARCHAR))``."""
    return md5_hex_from_digests(md5_digests_of_ints(ids))


def md5_uniform32_of_ints(ids: np.ndarray) -> np.ndarray:
    """First 8 hex digits of md5(str(i)) as a uniform float64 in [0, 1) —
    the mixing family's keep-probability draw."""
    dig = md5_digests_of_ints(ids)
    u32 = dig[:, :4].copy().view(">u4").ravel()
    return u32.astype(np.float64) / float(1 << 32)


def md5_uniform52_of_ints(ids: np.ndarray) -> np.ndarray:
    """First 13 hex digits (52 bits — mantissa-exact) of md5(str(i)) as a
    uniform float64 in [0, 1) — the A-ES weighted-sampling draw."""
    return md5_uniform52_from_digests(md5_digests_of_ints(ids))
