"""``%.17g`` text for float64 arrays, byte for byte, without a call per value.

`format_g17` gives each value the bytes of ``format(x, ".17g")``.  The 17
significant digits are the integer nearest |x| 10^(16 - k), k the decimal
exponent, computed as a double-double: the frexp mantissa times a hi + lo
pair for 10^(16 - k) / 2^s, built exactly from Python integers on first
use, by Dekker's exact product, then scaled by 2^s.  Its error is below
1e-14, so that integer is the correctly rounded one unless the fraction lies
near 1/2 (Adams, "Ryu revisited: printf floating point conversion", OOPSLA
2019).  k comes from ``log10`` and is settled by the exact signs of
hi + lo - 1e16 and hi + lo - 1e17.

The text is assembled in three little-endian uint64 words per value: the
digits are shifted into place, and byte masks looked up by (sign, k,
significant digits) insert the point and the sign and cut the trailing
zeros, as printf's f and e styles lay them out.

Python's ``%`` still writes the values the digits cannot decide: within
1e-6 of a rounding tie of an inexact product, subnormal or not finite.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["CHUNK", "format_g17"]

# values per numpy pass; larger chunks allocate temporaries above malloc's
# mmap threshold and pay a page fault per 4 KiB on every pass
CHUNK = 8192
WIDTH = 24  # the longest text, "-1.2345678901234567e-308"
_TIE_BAND = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_P_MIN, _P_MAX = -293, 325  # 16 - k for every normal double's k, give or take 1
_K_MIN, _K_MAX = -5, 17  # k as the layout sees it: the ends stand for e style
_SPAN = _K_MAX - _K_MIN + 1
_ZEROS = 0x30303030303030  # seven '0' bytes


def _words(chars):
    """Rows of WIDTH byte values as a (3, rows) array of little-endian uint64 words."""
    flat = np.ascontiguousarray(chars, dtype=np.uint8).reshape(-1, WIDTH)
    return np.ascontiguousarray(flat.view("<u8").astype(np.uint64).T)


@lru_cache(maxsize=1)
def _lookup():
    """The tables, built on first use: 10^p / 2^s as hi + lo with hi's split,
    4-digit texts and their trailing zeros, and the text layouts."""
    rows = []
    for p in range(_P_MIN, _P_MAX + 1):
        # 10^p / 2^s in [1, 2) as the integer ratio num / den
        power = 10 ** abs(p)
        if p >= 0:
            s = power.bit_length() - 1
            num, den = power, 1 << s
        else:
            s = -power.bit_length()
            num, den = 1 << -s, power
        hi = num / den  # correctly rounded, as is lo
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den), s))
    hi, lo, shift = (np.array(col) for col in zip(*rows))
    t = _SPLIT * hi
    top = t - (t - hi)
    quad = np.arange(10000)
    places = np.array([1000, 100, 10, 1])
    texts = (quad[:, None] // places % 10 + ord("0")).astype(np.uint8)

    # the layout of every (sign, k, significant digits): `lead` zeros before
    # the digits, the point's column, the text's length
    sign, k, count, col = np.ix_(range(2), range(_K_MIN, _K_MAX + 1), range(1, 18), range(WIDTH))
    fixed = (k > _K_MIN) & (k < _K_MAX)
    lead = np.maximum(-k, 0) * fixed
    point = sign + np.maximum(k, 0) * fixed + 1
    length = np.where(lead + count > point - sign, sign + lead + count + 1, point)
    inside = col < length
    minus = (sign == 1) & (col == 0)
    keep = (col < point) & inside & ~minus
    moved = (col > point) & inside
    chars = np.where(minus, ord("-"), np.where(col == point, ord("."), 0)) * inside
    masks = [_words(np.broadcast_to(m, chars.shape)) for m in (keep * 0xFF, moved * 0xFF, chars)]
    return {
        "scale": np.stack((hi, lo, top, hi - top)),
        "shift": shift.astype(np.int32),
        "quads": texts.view("<u4").ravel().astype(np.uint64),
        "trailing": sum(quad % (10 * place) == 0 for place in places),
        "right": np.broadcast_to(8 * (7 - lead - sign), (2, _SPAN, 17, 1)).astype(np.uint64).ravel(),
        "length": length.ravel(),
        "masks": masks,
    }


def _scaled(m, e, k):
    """|x| 10^(16 - k) as hi + lo, for |x| = m 2^e with m in [0.5, 1)."""
    tab = _lookup()
    row = 16 - k - _P_MIN
    f_hi, f_lo, f_top, f_bottom = np.take(tab["scale"], row, axis=1)
    t = _SPLIT * m
    m_top = t - (t - m)
    m_bottom = m - m_top
    hi = m * f_hi
    lo = ((m_top * f_top - hi) + m_top * f_bottom + m_bottom * f_top) + m_bottom * f_bottom
    lo += m * f_lo
    scale = e + tab["shift"][row]
    return np.ldexp(hi, scale), np.ldexp(lo, scale)


def _out_of_range(hi, lo):
    """Exact signs: is hi + lo below 1e16 or at least 1e17?"""
    return (hi - 1e16) + lo < 0.0, (hi - 1e17) + lo >= 0.0


def _digits(x):
    """17 significant digits of |x| as an integer, its decimal exponent k,
    and the mask of values left to ``%``."""
    mag = np.abs(x)
    normal = (mag >= np.finfo(np.float64).tiny) & (mag < np.inf)
    fallback = ~normal & (mag != 0.0)
    mag[~normal] = 1.0
    m, e = np.frexp(mag)
    k = np.floor(np.log10(mag)).astype(np.intp)
    hi, lo = _scaled(m, e, k)
    below, above = _out_of_range(hi, lo)
    moved = np.flatnonzero(below | above)
    if moved.size:  # log10 was one off, next to a power of ten
        k[moved] += np.where(above[moved], 1, -1)
        hi[moved], lo[moved] = _scaled(m[moved], e[moved], k[moved])
        below, above = _out_of_range(hi[moved], lo[moved])
        fallback[moved[below | above]] = True
    step = np.rint(lo)
    near = np.flatnonzero(np.abs(np.abs(lo - step) - 0.5) < _TIE_BAND)
    # where 10^(16 - k) / 2^s is a double the product is exact, and rint
    # breaks its ties to even as % does
    fallback[near[_lookup()["scale"][1, 16 - k[near] - _P_MIN] != 0.0]] = True
    digits = hi.astype(np.intp) + step.astype(np.intp)
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    return digits, k, fallback


def _layout(x, digits, k):
    """The texts of signs, digits and exponents as WIDTH-byte strings."""
    tab = _lookup()
    quads, trailing = tab["quads"], tab["trailing"]
    upper = digits // 10**8
    first = upper // 10**8
    # four groups of four digits, as separate arrays: writing and reading
    # them as strided rows of one (4, n) array costs a fifth of the format
    groups = []
    for half in (upper - first * 10**8, digits - upper * 10**8):
        quotient = half // 10**4
        groups += [quotient, half - quotient * 10**4]
    count = 17 - trailing[groups[3]]  # significant digits
    for j in (2, 1, 0):  # a group of zeros carries the run into the one above
        run = np.flatnonzero(count == 4 * j + 5)
        count[run] -= trailing[groups[j][run]]

    # bytes 7..23 of a row led by seven '0' bytes hold the digits; the text
    # is its window from byte 7 - lead - sign, with the point and sign put in
    row = np.empty((3, x.size), np.uint64)
    row[0] = ((first.astype(np.uint64) + np.uint64(ord("0"))) << np.uint64(56)) | np.uint64(_ZEROS)
    row[1] = quads[groups[0]] | (quads[groups[1]] << np.uint64(32))
    row[2] = quads[groups[2]] | (quads[groups[3]] << np.uint64(32))
    del groups
    sign = np.signbit(x)
    case = (sign * _SPAN + np.clip(k, _K_MIN, _K_MAX) - _K_MIN) * 17 + count - 1
    right = tab["right"][case]
    word = row >> right
    word[:2] |= row[1:] << (np.uint64(64) - right)
    del row
    shifted = word << np.uint64(8)
    shifted[1:] |= word[:2] >> np.uint64(56)
    keep, moved, chars = tab["masks"]
    word &= np.take(keep, case, axis=1)
    shifted &= np.take(moved, case, axis=1)
    word |= shifted
    word |= np.take(chars, case, axis=1)

    sci = np.flatnonzero((k <= _K_MIN) | (k >= _K_MAX))
    if sci.size:  # e, the exponent's sign, then 2 or 3 of its 4-digit text, as one word
        power = k[sci]
        exponent = quads[np.abs(power)]  # byte j holds the j-th of 4 digits
        suffix = np.where(power < 0, ord("-"), ord("+")).astype(np.uint64) << np.uint64(8)
        suffix |= np.uint64(ord("e"))
        wide = np.abs(power) >= 100
        figures = np.where(wide, exponent >> np.uint64(8), exponent >> np.uint64(16))
        suffix |= figures << np.uint64(16)
        at = tab["length"][case[sci]]  # the suffix's first byte: word at // 8, bit 8 (at % 8)
        bit = ((at & 7) << 3).astype(np.uint64)
        word[at >> 3, sci] |= suffix << bit
        word[np.minimum((at >> 3) + 1, 2), sci] |= suffix >> (np.uint64(64) - bit)
    words = np.ascontiguousarray(word.T, dtype="<u8")
    text = words.view(np.uint8)

    zeros = np.flatnonzero(x == 0.0)
    if zeros.size:
        text[zeros] = 0
        text[zeros, 0] = np.where(sign[zeros], ord("-"), ord("0"))
        text[zeros[sign[zeros]], 1] = ord("0")
    return words.view(f"S{WIDTH}").ravel()


def _texts(x):
    """``%.17g`` of a float64 vector as WIDTH-byte strings, and the mask left to ``%``."""
    digits, k, fallback = _digits(x)
    return _layout(x, digits, k), fallback


def format_g17(values) -> np.ndarray:
    """``format(x, ".17g")`` of every value in ravel order, as ASCII bytes.

    The texts come as WIDTH-byte strings padded with NUL bytes, which
    ``tolist`` strips.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    chunks = []
    for start in range(0, flat.size, CHUNK):
        part = flat[start : start + CHUNK]
        texts, fallback = _texts(part)
        for i in np.flatnonzero(fallback).tolist():
            texts[i] = b"%.17g" % float(part[i])
        chunks.append(texts)
    if len(chunks) == 1:
        return chunks[0]  # no copy for the common case of one chunk
    return np.concatenate(chunks) if chunks else np.empty(0, f"S{WIDTH}")
