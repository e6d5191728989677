"""Exact decimal text of numbers, in both directions, by numpy integer
arithmetic.

``_certify`` and ``_parse_plain`` read the plain fields of a catalog CSV
block in place, giving the doubles ``float`` gives; ``_format_rows`` writes
``%d``, ``%.12g`` and ``%r`` fields with the bytes ``%`` gives. Both take
their 128-bit products from ``_mul_64``. The arithmetic stays in uint64
(``_U64``): numpy 1.x turns uint64 mixed with a Python int into float64,
which loses digits.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

_U64 = np.uint64

# CSV rows formatted per write: one format call per chunk, bounded memory
_CHUNK_ROWS = 8192

# byte classes of _certify, as a bytes.translate table
_DIGIT, _NUMBER, _COMMA, _NEWLINE, _OTHER = range(5)
_BYTE_CLASS = bytes(
    _DIGIT if c in b"0123456789"
    else _NUMBER if c in b".eE+-"
    else _COMMA if c == ord(",")
    else _NEWLINE if c == ord("\n")
    else _OTHER
    for c in range(256)
)
# bytes of _DIGIT class after a block's classes: an id's 3 words reach 23
# bytes past the start of the last line
_ID_PAD = 24


def _certify(
    buf: bytes, n_cols: int, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, ends, plain, commas, first)``: per line of ``buf``, which
    ends with a newline, its byte span and whether it is certified for bulk
    parsing; the offsets of the commas of ``buf``, and per line the index
    into ``commas`` of its first one. A certified line has only bytes from
    ``0-9 . e E + - ,``, ``n_cols - 1`` commas, an id of 1 to 19 digits, no
    empty ra or dec (an empty magnitude is missing), and at most ``max_len``
    bytes, the csv module's field size limit."""
    # the classes, and _DIGIT (0) bytes past the end for the id words below
    cls = np.frombuffer(buf.translate(_BYTE_CLASS) + bytes(_ID_PAD), dtype=np.uint8)
    ends = np.flatnonzero(cls == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))[: len(ends)]
    commas = np.flatnonzero(cls == _COMMA)
    # each line's first comma, as an index into commas, gives its comma
    # count and the end of its id field
    first = np.searchsorted(commas, starts)
    id_end = np.minimum(np.append(commas, len(buf))[first], ends)
    id_len = id_end - starts
    plain = np.diff(first, append=len(commas)) == n_cols - 1
    plain &= (id_len >= 1) & (id_len <= 19) & (ends - starts <= max_len)
    # only digits in the id field: its classes, read as words from its
    # start with the bytes past its end masked off, are all zero; the
    # second and third words only for the ids that reach them
    words = np.ndarray((len(cls) - 7,), np.dtype("<u8"), cls, strides=(1,))
    plain &= words[starts] & _LOW_BYTES[np.minimum(id_len, 8)] == _U64(0)
    for k in (8, 16):
        more = np.flatnonzero(plain & (id_len > k))
        rest = _LOW_BYTES[np.minimum(id_len[more] - k, 8)]
        plain[more] = words[starts[more] + k] & rest == _U64(0)
    after = cls[commas + 1]
    empty = np.flatnonzero((after == _COMMA) | (after == _NEWLINE))  # commas before an empty field
    line = np.searchsorted(ends, commas[empty])
    # a line's k-th comma (from 0) begins field k + 1: 1 is ra, 2 dec
    plain[line[empty - first[line] < 2]] = False
    plain[np.searchsorted(ends, np.flatnonzero(cls == _OTHER))] = False
    return starts, ends, plain, commas, first


# Tables of _parse_plain. Bytes are read 8 at a time as little-endian uint64
# words, so a word's first byte is its lowest.
# zero bytes before and after a block: an id's words reach 7 bytes before
# its start, and a fraction's 20 bytes after a field's end
_PAD = 24
# lines of a block parsed in one pass: a pass's arrays, of about 100 kB,
# reuse the allocator's memory, where those of a whole block took fresh
# pages each time, and page faults were near half of the parse's time
_PARSE_LINES = 4096
# the low k bytes of a word, k in [0, 8]
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# 10**(8 + j): I's 8-digit group is I * 10**(8 - j) when its digits end at
# byte j - 1 of their word, and times this it is I * 10**16
_POINT_SCALE = np.array([10 ** (8 + j) for j in range(5)], np.uint64)
# T = 2**165 / 5**16 rounded up, so 10**-16 is just below T * 2**-181; as
# 2**37 < 5**16 < 2**38, T has 128 bits: its high and low 64
_T_HI, _T_LO = (np.uint64(t) for t in divmod((1 << 165) // 5**16 + 1, 1 << 64))


def _parse_plain(buf: bytes, starts: np.ndarray, ends: np.ndarray, commas: np.ndarray,
                 first: np.ndarray, cols: Sequence[int], n_cols: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, values, parsed)`` of the certified lines of ``buf`` that span
    ``starts`` to ``ends``, their first comma being ``commas[first]``: the
    uint64 id of each, the float64 fields ``cols`` of each as a (len(cols),
    lines) array, and whether every such field is a number. An empty field
    is NaN.

    The fields are read in place, 8 bytes at a time (``_digit_groups``): an
    id, 1 to 19 digits, from the words that end at its end, and a field
    ``[-]I.F``, I of at most 3 digits and F of at most 16, as w * 10**-16
    for w = I * 10**16 + F * 10**(16 - len F) < 2**64, which
    ``_times_ten_to_minus_16`` rounds. Every other field, such as one with
    an exponent or more digits, goes through ``float``; ``parsed`` is False
    for a line with a field that ``float`` refuses, such as "--1"."""
    data = np.zeros(len(buf) + 2 * _PAD, np.uint8)
    data[_PAD:-_PAD] = np.frombuffer(buf, np.uint8)
    # the word of the 8 bytes from each offset of data
    words = np.ndarray((len(data) - 7,), np.dtype("<u8"), data, strides=(1,))
    ids = np.empty(len(first), np.uint64)
    values = np.empty((len(cols), len(first)))
    parsed = np.ones(len(first), bool)
    for at in range(0, len(first), _PARSE_LINES):
        part = slice(at, at + _PARSE_LINES)
        n = len(first[part])
        # field k of a line runs from after bounds[k] to bounds[k + 1]: its
        # commas, with the byte before the line and its end around them
        bounds = np.empty((n, n_cols + 1), np.intp)
        bounds[:, 0] = starts[part] - 1
        bounds[:, 1:-1] = commas[first[part, None] + np.arange(n_cols - 1)]
        bounds[:, -1] = ends[part]
        bounds += _PAD
        ids[part] = _id_values(words, bounds[:, 1] - bounds[:, 0] - 1, bounds[:, 1])
        lo = bounds[:, list(cols)].T.ravel() + 1
        hi = bounds[:, [k + 1 for k in cols]].T.ravel()
        got, decided = _float_values(words, lo, hi)
        rest = np.flatnonzero(~decided)
        for k, a, b in zip(rest.tolist(), (lo[rest] - _PAD).tolist(), (hi[rest] - _PAD).tolist()):
            try:
                got[k] = float(buf[a:b])
            except ValueError:
                parsed[at + k % n] = False
        values[:, part] = got.reshape(len(cols), n)
    return ids, values, parsed


def _digit_groups(word: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(groups, bad)``: the 8-digit number that the bytes of each word
    that ``keep`` holds spell, the others read as "0", and whether one of
    those bytes is no digit. The digits' values are joined into pairs,
    quads and the octet, each step one multiplication that adds the higher
    part, times 10, 100 or 10**4, to the lower one above it."""
    v = (word & keep) - (keep & _U64(0x3030303030303030))
    # a byte below "0" borrows, and one above "9" reaches 0x80 plus 0x76
    bad = ((v + _U64(0x7676767676767676)) | v) & _U64(0x8080808080808080) != _U64(0)
    v = (v * _U64(10 << 8 | 1)) >> _U64(8) & _U64(0x00FF00FF00FF00FF)
    v = (v * _U64(100 << 16 | 1)) >> _U64(16) & _U64(0x0000FFFF0000FFFF)
    return (v * _U64(10000 << 32 | 1)) >> _U64(32), bad


def _id_values(words: np.ndarray, length: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The uint64 values of the digit fields of 1 to 19 ``length`` bytes
    that end at ``end`` in the data of ``words``: the last 8 digits, plus
    10**8 times the value of those before them."""
    value = _digit_groups(words[end - 8], ~_LOW_BYTES[8 - np.minimum(length, 8)])[0]
    more = np.flatnonzero(length > 8)
    if len(more):
        value[more] += _id_values(words, length[more] - 8, end[more] - 8) * _U64(10**8)
    return value


def _float_values(words: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(values, decided)`` of the number fields from ``lo`` to ``hi`` in
    the data whose 8-byte ``words`` are given: an empty field is NaN, and
    one of the form ``[-]I.F`` (see ``_parse_plain``) its double, where
    decided."""
    head = words[lo]
    neg = head & _U64(0xFF) == _U64(ord("-"))
    # the first "." of the field's first 5 bytes is a zero byte of x; the
    # lowest set bit of found marks it, bit 8j + 7 for byte j
    x = head ^ _U64(0x2E2E2E2E2E)
    found = (x - _U64(0x0101010101)) & ~x & _U64(0x8080808080)
    # 2**8j times bytes 4, 3, 2, 1, 0 (high to low) puts j in byte 4
    j = ((found & (~found + _U64(1))) >> _U64(7)) * _U64(0x0001020304) >> _U64(32) & _U64(0xFF)
    j = j.astype(np.intp)
    point = lo + j
    frac = hi - point - 1  # digits after the point
    # I in the bytes of head before the point and after a sign; F's first 8
    # and next 8 digits in the words after the point, left-aligned
    at = np.concatenate((lo, point + 1, point + 9))
    keep = np.concatenate((_LOW_BYTES[j] ^ _LOW_BYTES[neg.view(np.uint8)],
                           _LOW_BYTES[np.clip(frac, 0, 8)], _LOW_BYTES[np.clip(frac - 8, 0, 8)]))
    g, bad = _digit_groups(words[at], keep)
    g, bad = g.reshape(3, -1), bad.reshape(3, -1).any(0)
    w = g[0] * _POINT_SCALE[j] + g[1] * _U64(10**8) + g[2]
    bits = _times_ten_to_minus_16(w)
    bits |= neg.astype(np.uint64) << _U64(63)
    values = bits.view(np.float64)
    empty = lo == hi
    values[empty] = np.nan
    decided = (found != _U64(0)) & (frac >= 0) & (frac <= 16) & (j - neg + frac > 0) & ~bad
    decided &= j - neg <= 3
    return values, decided | empty


def _times_ten_to_minus_16(w: np.ndarray) -> np.ndarray:
    """The bits of the double nearest w * 10**-16 for the uint64 values
    ``w`` below 10**19; +0.0 for w = 0.

    This is the Eisel-Lemire method (Lemire, "Number Parsing at a Gigabyte
    per Second", 2021) for one power. W = w * 2**z, 2**63 <= W < 2**64,
    makes x = w * 10**-16 = E * 2**-(181 + z) for E = W * 2**165 / 5**16,
    and W * T - E = W * (T - 2**165 / 5**16) is in (0, 2**64), T as for
    _T_HI. The double nearest x, a normal one, is the top 54 bits of p =
    floor(E / 2**128), 2**62 <= p < 2**64, rounded half up: x is never
    halfway between two doubles, as w would then be 5**16 times an odd
    number above 2**53, over 10**19. E / 2**128 = W * 2**37 / 5**16 is a
    multiple of 1 / 5**16 > 2**-64, so if it is within 2**-64 of an
    integer k, it is k. The product W * _T_HI = (h, l) in 64-bit halves
    puts E / 2**128 in (h + (l - 1) / 2**64, h + l / 2**64 + 1), so p is h
    or h + 1, and the two differ from bit 9 up only if h ends in 9 one
    bits. For those few, l plus the high half of W * _T_LO makes (h, l)
    floor(W * T / 2**64) exactly, which puts E / 2**128 in (h + (l - 1) /
    2**64, h + (l + 1) / 2**64), so p is h."""
    zero = w == _U64(0)
    w = np.maximum(w, _U64(1))
    # the shift z, from the float exponent; a w that rounds up to a power of
    # two takes one more
    z = (64 - np.frexp(w.astype(np.float64))[1]).astype(np.uint64)
    w <<= z
    short = (w >> _U64(63)) ^ _U64(1)
    w <<= short
    z += short
    hi, lo = _mul_64(w, _T_HI)
    wide = np.flatnonzero(hi & _U64(0x1FF) == _U64(0x1FF))
    if len(wide):
        carried = lo[wide] + _mul_64(w[wide], _T_LO)[0]
        hi[wide] += carried < lo[wide]
    top = hi >> _U64(63)
    m = ((hi >> (top + _U64(9))) + _U64(1)) >> _U64(1)
    # x = m * 2**(top - z - 43), whose exponent field is 1032 + top - z for
    # m in [2**52, 2**53): m's 2**52 bit adds the 1, and m = 2**53 after a
    # carry adds 2 with a zero fraction
    bits = ((_U64(1031) + top - z) << _U64(52)) + m
    bits[zero] = 0
    return bits


def _mul_64(a: np.ndarray, b: np.ndarray | np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit products of the uint64 array
    ``a`` and the uint64 values ``b``, the high from their 32-bit halves and
    the low as uint64 arithmetic wraps it: the one 128-bit product of the
    parse and of ``%r``'s digits."""
    low32, half = _U64(2**32 - 1), _U64(32)
    al, ah = a & low32, a >> half
    bl, bh = b & low32, b >> half
    ll = al * bl
    hl = ah * bl
    cross = (ll >> half) + (hl & low32) + al * bh  # below 2**64
    return (hl >> half) + (cross >> half) + ah * bh, a * b


def _format_rows(row_format: str, columns: Sequence, part: int = 0, parts: int = 1
                 ) -> Iterator[str]:
    """The rows of ``columns`` (equal-length arrays or tuples; none for no
    rows), each formatted by ``row_format``, one string per _CHUNK_ROWS rows:
    chunks ``part``, ``part + parts``, ... of them, so all by default.

    ``row_format`` is ``%d``, ``%.12g`` and ``%r`` fields joined by commas
    and ended by a newline, such as a cross-match's ``%d,%d,%.12g\\n`` or a
    catalog's ``%d,%r,%r,%r\\n``. Its ``%d`` columns must hold unsigned
    64-bit integers and its other columns floats. The rows are written by
    numpy digit arithmetic (``_format_numeric``) with the bytes of ``%``."""
    fields = row_format[:-1].split(",")
    n = len(columns[0]) if columns else 0
    for start in range(part * _CHUNK_ROWS, n, parts * _CHUNK_ROWS):
        yield _format_numeric(fields, [col[start : start + _CHUNK_ROWS] for col in columns])


# Tables of _format_numeric. A field is laid out in fixed-width machine words
# whose unused bytes are NUL, and the NULs are deleted from the chunk's bytes
# at the end, so a table entry is a whole word and no byte is ever shifted.
# A word built from bytes is read back as the same bytes on any byte order.


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The word tables of 4-digit groups, ``(_INT_WORDS, _SIG_WORDS)``."""
    group = np.arange(10000, dtype=np.int32)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int32)  # of each digit, left to right
    ascii_digits = (group // place % 10 + ord("0")).astype(np.uint8)
    int_words = np.zeros((3, 10000, 4), np.uint8)
    int_words[1] = ascii_digits * ((group >= place) | (place == 1))
    int_words[2] = ascii_digits
    sig_words = np.zeros((2, 10000, 8), np.uint8)
    sig_words[:, :, ::2] = ascii_digits
    sig_words[1, :, ::2] *= group % (10 * place) != 0  # a nonzero digit here or right of it
    return int_words.view(np.uint32).ravel(), sig_words.view(np.uint64).ravel()


# 4-digit groups of a %d field, as uint32 words, at 10000 * kind + group: kind 0
# for a group left of the first digit (all NUL), 1 for the group holding it
# (its leading zeros NUL; "0" for 0), 2 for any later group. 4 significant
# digits of a float field, as uint64 words: each digit followed by a NUL byte
# that may become the decimal point; at 10000 * kind + group, kind 1 with
# trailing zeros NUL.
_INT_WORDS, _SIG_WORDS = _digit_words()
# 10**k, exact as doubles for k <= 22
_POW10 = np.array([float(10**k) for k in range(23)])
# 5**p for the scales 10**p of %r's digits, p in [0, 27]: all below 2**63
_POW5 = np.array([5**p for p in range(28)], np.uint64)


def _words(strings: Iterator[bytes], width: int, dtype) -> np.ndarray:
    """Byte strings, each NUL-padded to ``width`` bytes, as machine words."""
    return np.frombuffer(b"".join(s.ljust(width, b"\0") for s in strings), dtype)


def _g12_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, e + 11, decided)`` of ``%.12g`` for the float64 values ``x``:
    the 12-digit mantissa and decimal exponent e it prints, where decided.

    With e = floor(log10 |x|), |x| is scaled by the exact double 10**(11 - e)
    in one multiplication or division, so the scaled value s is within 1.2e-4
    of the exact product while s < 1e12. Where s is at least 1e-3 from a
    half-integer, rint(s) is the exact product rounded, as %g rounds it; where
    also 1e11 <= s and rint(s) < 1e12, that is the 12-digit mantissa and e the
    exponent %g prints (s just above 1e11 with the exact product just below
    is the carry of 99..9.5, which %g too prints as 1 and e). Every other
    value, NaN, an infinity, 0 and e outside [-11, 33] included, is
    undecided."""
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        ok = np.abs(11 - e) <= 22
        scale = 11 - np.where(ok, e, 11).astype(np.intp)
        p = _POW10[np.abs(scale)]
        s = a * p
        np.divide(a, p, out=s, where=scale < 0)
        m = np.rint(s)
        decided = ok & (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) > 1e-3)
    return m, 22 - scale, decided


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, e + 11, decided)`` of ``%r`` for the float64 values ``x``: the
    shortest round-trip digits, as a 17-digit mantissa with trailing zeros,
    and their decimal exponent e, where decided.

    For |x| = m2 * 2**b with 2**52 <= m2 < 2**53, e = floor(log10 |x|), p =
    16 - e and s = -(b + p), the product P = m2 * 5**p is exact in 128 bits
    and |x| * 10**p = P / 2**s, with Q = P >> s and r = P mod 2**s. A decimal
    D * 10**-p lies inside x's rounding interval, which is open, exactly when
    2 * |D * 2**s - P| < 5**p (5**p is odd, so the two never tie). ``repr``
    gives the fewest digits that lie inside, the nearest such value. The
    interval is at most 22 units of the 17th digit wide, so a value of 15 or
    fewer digits inside it is the nearest multiple of 100, D15; else the
    nearest multiple of 10, D16, if inside; else Q rounded, D17, which always
    is. A D more than 12 from Q is outside, as 5**p / 2**s = (P / 2**s) /
    m2 < 1e17 / 2**52 < 22.3 makes the half-width 5**p / 2**(s + 1) below
    12 units: |D * 2**s - P| > (|D - Q| - 1) * 2**s >= 12 * 2**s. So D15 - Q,
    at most 50 in size, is cut to [-13, 13], which leaves such a D outside
    and keeps |D - Q| * 2**s + r below 14 * 2**59 < 2**63 for s <= 59.
    Undecided: 0, subnormals, NaN and infinities; m2 = 2**52, whose interval
    is lopsided; p outside [0, 27] or s outside [1, 59]; Q outside [1e16,
    1e17) (a log10 off by one) or a D that carries to 1e17; and the ties r =
    2**(s - 1) and Q ending in 5 with r = 0, which ``repr`` breaks to even.
    The arithmetic stays in uint64 (see _format_int)."""
    bits = x.view(np.uint64)
    biased = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    frac = bits & _U64(2**52 - 1)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(np.abs(x)))
        e = np.where(np.isfinite(e), e, 0).astype(np.intp)
    p = 16 - e
    s = 1075 - biased - p
    decided = (biased > 0) & (biased < 0x7FF) & (frac != 0)
    decided &= (p >= 0) & (p <= 27) & (s >= 1) & (s <= 59)
    f = _POW5[np.where(decided, p, 0)]
    s = np.where(decided, s, 1).astype(np.uint64)
    # P = hi * 2**64 + lo. Q < 1e18 < 2**60 even for a log10 off by one, so
    # hi < 2**s and Q fits in 64 bits.
    hi, lo = _mul_64(frac | _U64(2**52), f)
    q = (hi << (_U64(64) - s)) | (lo >> s)
    r = lo & ((_U64(1) << s) - _U64(1))
    tie = _U64(1) << (s - _U64(1))
    decided &= (q >= _U64(10**16)) & (q < _U64(10**17)) & (r != tie)
    # (D - Q) * 2**s - r, wrapped to 64 bits, read as signed; inside when
    # its size is at most (5**p - 1) / 2
    within = (f >> _U64(1)).view(np.int64)
    d15 = (q + _U64(50)) // _U64(100) * _U64(100)
    d16 = (q + _U64(5)) // _U64(10) * _U64(10)
    near15 = np.clip((d15 - q).view(np.int64), -13, 13).view(np.uint64)
    in15 = np.abs(((near15 << s) - r).view(np.int64)) <= within
    in16 = np.abs((((d16 - q) << s) - r).view(np.int64)) <= within
    decided &= (r != _U64(0)) | (d16 - q != _U64(5))
    m = np.where(in15, d15, np.where(in16, d16, q + (r > tie)))
    decided &= m < _U64(10**17)
    return m, e + 11, decided


class _Notation(NamedTuple):
    """A float format as _format_float writes it, in uint64 words per value:
    a lead (sign and fixed notation's "0.0..."), the significant digits 4 to
    a word, each followed by a slot for the point, and a suffix ("e+dd").
    Its tables cover the decimal exponents e in [-11, top], at e + 11."""

    fmt: bytes  # applied by % to each value ``digits_of`` leaves undecided
    digits_of: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    digits: int  # significant digits of the mantissa
    lead: np.ndarray  # at e + 11 without a sign, after those with "-"
    suffix: np.ndarray
    # (digit words, exponents): in fixed notation with e >= 0, "0" in each
    # digit byte left of the point; OR-ed in, it restores integer zeros a
    # strip removed. With ``repr``'s point it also holds the point and a "0"
    # after it, the ".0" of an integral value.
    zeros: np.ndarray
    # the digit after which the point goes when a nonzero digit follows it
    # (0 in exponent notation); -1 where the lead or ``zeros`` holds it
    point_after: np.ndarray

    @property
    def words(self) -> int:
        """uint64 words per value: lead, digits and suffix."""
        return -(-self.digits // 4) + 2


def _notation(fmt: bytes, digits_of, digits: int, fixed_below: int, top: int) -> _Notation:
    """The tables of a format that prints e in [-4, fixed_below) in fixed
    notation. ``%r`` always prints a point in fixed notation; ``%g`` only
    before a nonzero digit."""
    exponents = range(-11, top + 1)
    fixed = [-4 <= e < fixed_below for e in exponents]
    point = fmt == b"%r"
    words = -(-digits // 4)
    return _Notation(
        fmt, digits_of, digits,
        _words((sign + (b"0." + b"0" * (-e - 1) if f and e < 0 else b"") for sign in (b"", b"-")
                for e, f in zip(exponents, fixed)), 8, np.uint64),
        _words((b"" if f else b"e%+03d" % e for e, f in zip(exponents, fixed)), 8, np.uint64),
        np.ascontiguousarray(_words(
            (b"" if not f or e < 0 else b"0\0" * e + b"0.0" if point else b"0\0" * (e + 1)
             for e, f in zip(exponents, fixed)), 8 * words, np.uint64,
        ).reshape(-1, words).T),
        np.array([(-1 if e < 0 or point else e) if f else 0 for e, f in zip(exponents, fixed)]),
    )


_FLOAT_FIELDS = {
    "%.12g": _notation(b"%.12g", _g12_digits, 12, fixed_below=12, top=33),
    "%r": _notation(b"%r", _repr_digits, 17, fixed_below=16, top=15),
}
_COMMA_WORD, _NEWLINE_WORD = _words((b",", b"\n"), 4, np.uint32)


def _format_numeric(fields: Sequence[str], columns: Sequence) -> str:
    """One chunk of rows whose ``fields`` are each ``%d``, ``%.12g`` or
    ``%r``, separated by commas and ended by newlines, with the bytes ``%``
    gives. Each field becomes a block of uint32 words per row, followed by
    one separator word; the row matrix's NUL bytes are deleted at the end."""
    n = len(columns[0])
    values, widths = [], []
    for field, col in zip(fields, columns):
        if field == "%d":
            q = np.asarray(col, dtype=np.uint64)
            values.append(q)
            widths.append(-(-len(str(int(q.max()))) // 4))
        else:
            values.append(np.asarray(col, dtype=np.float64))
            widths.append(2 * _FLOAT_FIELDS[field].words)
    words = np.empty((n, sum(widths) + len(widths)), np.uint32)  # every word is written
    end = 0
    for field, v, width in zip(fields, values, widths):
        block = words[:, end : end + width]
        if field == "%d":
            _format_int(v, block)
        else:
            out = np.empty((n, width // 2), np.uint64)
            _format_float(v, out, _FLOAT_FIELDS[field])
            block[...] = out.view(np.uint32)
        words[:, end + width] = _COMMA_WORD
        end += width + 1
    words[:, -1] = _NEWLINE_WORD
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _format_int(q: np.ndarray, out: np.ndarray) -> None:
    """Write ``%d`` of the uint64 values ``q`` into the uint32 words ``out``,
    one per 4 digits (the widest value's count, rounded up), left to right.
    The arithmetic stays in uint64: numpy 1.x turns uint64 mixed with a
    signed integer into float64, which loses digits."""
    width = out.shape[1]
    rest = q
    for k in range(width - 1, -1, -1):
        above = rest // np.uint64(10000)
        group = (rest - above * np.uint64(10000)).astype(np.intp)
        # digits right of this group; a value of more holds digits in or left of it
        right = 10 ** (4 * (width - 1 - k))
        kind = (q >= np.uint64(right)).astype(np.intp) if k < width - 1 else 1
        if k > 0:
            kind += q >= np.uint64(right * 10000)
        out[:, k] = _INT_WORDS[group + 10000 * kind]
        rest = above


def _format_float(x: np.ndarray, out: np.ndarray, notation: _Notation) -> None:
    """Write the float64 values ``x`` in ``notation`` into the uint64 words
    ``out`` (n, notation.words): sign and lead, the significant digits with
    their point slots, and the exponent suffix. 0 is written as e = 0 with
    no significant digit ("0", "-0", "0.0", "-0.0"); each value
    ``notation.digits_of`` leaves undecided, by ``%``."""
    m, at, decided = notation.digits_of(x)
    zero = x == 0
    blank = zero | ~decided
    m[blank] = 0
    at[blank] = 11
    # the mantissa's 4-digit groups, left to right; the last is padded on
    # the right with the zeros that make it 4 digits
    groups = []
    words = notation.words - 2
    rest, size = m.astype(np.uint64), notation.digits - 4 * (words - 1)
    for _ in range(words - 1):
        above = rest // _U64(10**size)
        group = rest - above * _U64(10**size)
        groups.append(group * _U64(10 ** (4 - size)) if size < 4 else group)
        rest, size = above, 4
    groups.append(rest)
    out[:, 0] = notation.lead[at + len(notation.suffix) * np.signbit(x)]
    trailing = np.ones(len(x), bool)  # every group right of this one is zero
    for k, group in enumerate(groups):  # right to left
        word = words - k
        out[:, word] = _SIG_WORDS[group.astype(np.intp) + 10000 * trailing]
        out[:, word] |= notation.zeros[word - 1][at]
        trailing &= group == _U64(0)
    out[:, -1] = notation.suffix[at]
    # a point in the slot after digit d where a digit byte follows it
    slot = 9 + 2 * notation.point_after[at] + 8 * notation.words * np.arange(len(x))
    u8 = out.reshape(-1).view(np.uint8)
    rows = np.flatnonzero((notation.point_after[at] >= 0) & (u8[slot + 1] != 0))
    u8[slot[rows]] = ord(".")
    bad = np.flatnonzero(~(decided | zero))
    if len(bad):
        out[bad] = _words((notation.fmt % v for v in x[bad].tolist()), 8 * notation.words,
                          np.uint64).reshape(-1, notation.words)
