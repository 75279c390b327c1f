"""Exact float64 <-> ``%.17g`` CSV text, vectorized in numpy.

The writer turns a block of doubles into the bytes Python's ``b"%.17g" % v``
gives, row by row, joined by "," and ended by "\\n", after optional leading
integer columns.  It scales each |x| by 10^(16 - k) as a double-double (an
exact Dekker product with a correctly rounded (hi, lo) power of ten), rounds
to 17 digits in an int64, and renders the digits through a 4-digit lookup
table into a 24-byte cell, those after the point one byte later.  The cells
are copied to their offsets in the output in order, each over the bytes the
one before leaves undefined; signs, points, separators, exponents and line
ends are written after.  A row holding a value the fast path cannot decide is formatted by
``%`` whole: a value within the error bound of a rounding tie, or one that
is not finite or lies outside [FAST_MIN, FAST_MAX).

The reader parses text of the writer's grammar: rows of integer columns
``-?d+`` then value columns ``-?d+(.d+)?(e[+-]d+)?``, each row with the
header's field count.  It reads READ_BLOCK bytes of whole lines at a time,
reads each token's digits from the 24 bytes that end it as SWAR words, and
rounds m * 10^q by the same double-double product; a token whose rounding it
cannot decide, or that the words do not hold, goes to ``float``.  Text
outside the grammar makes it return None, so its caller can hand the file to
``np.loadtxt``.  Both directions agree with ``%`` and ``float`` bit for bit
(correct rounding; Adams 2019, "Ryu revisited"; Lemire 2021,
arXiv:2101.11408).

The power and digit tables are built on first use, not at import.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from types import SimpleNamespace
from typing import BinaryIO

import numpy as np

#: the fast paths handle magnitudes in [FAST_MIN, FAST_MAX), far from
#: subnormals and overflow, where every partial product stays normal
FAST_MIN, FAST_MAX = 1e-250, 1e250
#: exponents j of the double-double table of 10^j
POW_MIN, POW_MAX = -290, 300
#: a scaled value within this of a half-integer is a possible rounding tie;
#: its error is below 2^-47 (relative 2^-104 of at most 10^17 < 2^57)
TIE_WIDTH = 2.0 ** -40
#: bytes of text the reader parses at a time, rounded to whole lines
READ_BLOCK = 1 << 18
#: values the writer formats at a time
WRITE_BLOCK = 1 << 12

_SPLIT = 134217729.0          # 2^27 + 1, Veltkamp's splitter
_ZEROS = 0x3030303030303030   # eight ASCII "0"s as a little-endian word
_E16, _E17 = 10 ** 16, 10 ** 17
_GRAMMAR = re.compile(rb"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")
_U = np.uint64


@functools.cache
def _tables() -> SimpleNamespace:
    """Correctly rounded double-double powers of ten and the digit tables."""
    hi, lo = [], []
    for j in range(POW_MIN, POW_MAX + 1):
        if j >= 0:
            h = float(10 ** j)
            rest = float(10 ** j - int(h))
        else:
            h = 1 / 10 ** -j
            num, den = h.as_integer_ratio()
            rest = (den - num * 10 ** -j) / (den * 10 ** -j)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    # Veltkamp halves of hi, of 26 bits each, split at a scale where the split cannot overflow
    mant, exp = np.frexp(hi)
    top = mant * _SPLIT
    top -= top - mant
    # column j - POW_MIN: 10^j = hi + lo, hi = a + b
    t = SimpleNamespace(pow=np.stack([hi, lo, np.ldexp(top, exp), np.ldexp(mant - top, exp)]))
    # dig4[g]: the four digits of g < 10^4 as ASCII in a little-endian word; tz4[g]: how
    # many of them end it as zeros
    four = np.arange(10000, dtype=np.int16)
    digits = np.stack([four // 10 ** p % 10 for p in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    t.dig4 = (digits + np.uint8(48)).view("<u4").ravel().astype(_U)
    t.tz4 = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    # head[:, q]: the bytes before byte q of 24, as three words
    t.head = ((np.arange(24) < np.arange(18)[:, None]) * np.uint8(255)).view("<u8").T.copy()
    # row X + 330 of a value of decimal exponent X: the zeros after its "0.", the
    # characters before its point, and the bits "0000000" D is shifted by to start
    # with those zeros
    x = np.arange(-330, 331)
    t.zeros = -x * ((x < 0) & (x >= -4))
    t.point = 1 + x * ((x >= 0) & (x < 17))
    t.shift = (56 - 8 * t.zeros).astype(_U)
    # row X + 330: the text that follows the digits of a value of decimal exponent X
    ends = [b"," if -4 <= x < 17 else b"e%+03d," % x for x in range(-330, 331)]
    t.ends = np.frombuffer(b"".join(e.ljust(8, b"\0") for e in ends), "V8")
    t.end_len = np.array([len(e) for e in ends])
    # keep[:, l]: the last l bytes of 24, as three words
    t.keep = ((np.arange(24) >= 24 - np.arange(25)[:, None]) * np.uint8(255)).view("<u8").T.copy()
    t.p10 = 10 ** np.arange(19, dtype=np.int64)
    return t


def _view(buf: np.ndarray, width: int) -> np.ndarray:
    """Every run of ``width`` bytes of a uint8 buffer, one void item each:
    item i is buf[i:i + width]."""
    return np.ndarray((len(buf) - width + 1,), f"V{width}", buf, 0, (1,))


def _scale(xh: np.ndarray, j: np.ndarray, xl: np.ndarray | None = None):
    """(hi, lo) with hi = fl(hi + lo) and hi + lo = (xh + xl) * 10^j to a
    relative 2^-102: Dekker's exact product of xh and the power's hi part,
    plus the rounded cross terms (xl, when given, is at most 2^-53 xh)."""
    ph, pl, pa, pb = _tables().pow.take(j - POW_MIN, axis=1)
    c = xh * _SPLIT
    xa = c - xh
    np.subtract(c, xa, out=xa)
    xb = xh - xa
    p = xh * ph
    err = xa * pa
    err -= p
    xa *= pb
    err += xa
    for a, b in ((xb, pa), (xb, pb), (xh, pl)) + (() if xl is None else ((xl, ph),)):
        err += np.multiply(a, b, out=c)
    hi = p + err
    p -= hi
    p += err
    return hi, p


# ---------------------------------------------------------------------------
# writer: a value's cell is 24 bytes, three little-endian words, that hold
# the characters of |value| before its exponent from byte 0 on
# ---------------------------------------------------------------------------

def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive a in the fast range: D in [10^16, 10^17) and X with
    round(a / 10^(X - 16)) = D, and a mask of the values whose rounding
    is decided (not within TIE_WIDTH of a tie)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    d, ok, hi, lo = _round17(a, k)
    # k is right once 10^16 <= a * 10^(16 - k) < 10^17, or that rounds up to 10^17;
    # log10 is off by one at most next to a power of ten
    todo = np.flatnonzero((hi < 1.0000000000000002e16) | (hi >= 9.999999999999998e16))
    hi, lo = hi[todo], lo[todo]
    for _ in range(3):
        dd = d[todo]
        down = (dd < _E16) | ((dd == _E16) & ((hi < _E16) | ((hi == _E16) & (lo < 0))))
        up = dd > _E17
        move = down | up
        todo = todo[move]
        if not len(todo):
            break
        k[todo] += up[move].astype(np.int64) - down[move]
        d[todo], ok[todo], hi, lo = _round17(a[todo], k[todo])
    else:
        ok[todo] = False
    carry = d == _E17
    d[carry] = _E16
    return d, k + carry, ok


def _round17(a: np.ndarray, k: np.ndarray):
    """round(a * 10^(16 - k)) as an int64, whether that is decided, and the
    double-double product."""
    hi, lo = _scale(a, 16 - k)
    fl = np.floor(lo)
    frac = lo - fl                               # exact
    d = hi.astype(np.int64)
    d += fl.astype(np.int64)
    d += frac >= 0.5
    frac -= 0.5
    return d, np.abs(frac) > TIE_WIDTH, hi, lo


def _value_cells(v: np.ndarray):
    """The cells of m doubles as (m, 3) words and, per value, its decimal
    exponent X, the q characters before its point, the keep characters of
    its digits (with the zeros after a leading "0."), and whether its cell
    is undecided (``%.17g`` formats its row).  A cell holds the characters
    of |v| before its exponent from byte 0 on, those after the point one
    byte later; byte q, where the point goes, and the bytes after the last
    character are left as they come."""
    t = _tables()
    a = np.abs(v)
    fast = (a >= FAST_MIN) & (a < FAST_MAX)
    d, x, decided = _digits17(np.where(fast, a, 1.0))
    d *= fast                                   # a zero is D = 0, X = 0: "0"
    x *= fast
    slow = ~(fast & decided) & (a != 0)

    h = d // 10 ** 8
    g34 = d - h * 10 ** 8
    lead = h // 10 ** 8
    g12 = h - lead * 10 ** 8
    g1 = g12 // 10 ** 4
    g2 = g12 - g1 * 10 ** 4
    g3 = g34 // 10 ** 4
    g4 = g34 - g3 * 10 ** 4
    # trailing zeros of the last group, and of the groups before it where it is 0000
    tz = t.tz4[g4]
    run = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        tz[run] += t.tz4[g[run]]
        run = run[g[run] == 0]
    xi = x + 330
    q = t.point.take(xi)
    keep = np.maximum(t.zeros.take(xi) + 17 - tz, q)
    # the zeros and the digits from byte 0 on: "0000000" D shifted right
    sh = t.shift.take(xi)
    back = _U(64) - sh
    text = [_U(0x0030303030303030) | ((lead.astype(_U) + _U(48)) << _U(56)),
            t.dig4[g1] | (t.dig4[g2] << _U(32)), t.dig4[g3] | (t.dig4[g4] << _U(32))]
    w = [(text[0] >> sh) | (text[1] << back), (text[1] >> sh) | (text[2] << back),
         text[2] >> sh]
    head = t.head.take(q, axis=1)
    cells = np.empty((len(v), 3), _U)
    for i in (2, 1, 0):
        # bytes 0..q - 1 from w, the others from w one byte later
        later = w[i] << _U(8)
        if i:
            later |= w[i - 1] >> _U(56)
        w[i] ^= later
        w[i] &= head[i]
        w[i] ^= later
        cells[:, i] = w[i]
    return cells, x, q, keep, slow


def csv_rows(values: np.ndarray, lead: np.ndarray | None, chunk: int) -> Iterator[bytes]:
    """The rows of an (r, c) float64 array as CSV bytes, ``%.17g`` per value,
    after the (r, l) integer ``lead`` columns as ``%d``: one chunk of bytes
    per ``chunk`` rows.  Equal to ``b"%d,...,%.17g,...\\n" % row`` row by row.
    An integer below 2^53 in magnitude is a double whose %.17g is its %d, so
    the lead columns are written as values."""
    t = _tables()
    r = len(values)
    c = values.shape[1] + (0 if lead is None else lead.shape[1])
    block = max(chunk, WRITE_BLOCK // max(c, 1) // chunk * chunk)
    for a in range(0, r, block):
        v = np.asarray(values[a:a + block], dtype=np.float64)
        if lead is not None:
            v = np.concatenate([lead[a:a + block], v], axis=1, dtype=np.float64)
        v = v.ravel()
        cells, x, q, keep, slow = _value_cells(v)
        neg = np.signbit(v)
        point = keep > q
        xi = x + 330
        tail = t.end_len.take(xi)
        width = keep + point
        end = neg + width
        end += tail
        end = np.cumsum(end)
        at = end - tail                         # where each value's "," or exponent starts
        begin = at - width                      # where its digits start
        out = np.empty(end[-1] + 24, np.uint8)
        # numpy writes a one-dimensional fancy assignment item by item in index
        # order, so each cell writes over the bytes the one before leaves undefined;
        # the tests against % would see any other order
        _view(out, 24)[begin] = cells.view("V24").ravel()
        out[at] = 44                            # ","
        out[begin + q] = np.where(point, np.uint8(46), np.uint8(44))      # "." or ","
        # a sign, or the first digit again
        out[begin - neg] = np.where(neg, np.uint8(45), cells[:, 0].astype(np.uint8))
        expo = np.flatnonzero(tail > 1)
        for size in (5, 6):                     # "e-05," and "e-100,"
            sel = expo[tail[expo] == size]
            if len(sel):
                ends = np.ndarray((len(t.ends),), f"V{size}", t.ends, 0, (8,))
                _view(out, size)[at[sel]] = ends[xi[sel]]
        out[end[c - 1::c] - 1] = 10             # "\n"
        slow = slow.reshape(-1, c).any(axis=1)
        stops = np.concatenate([[0], end[c - 1::c]])
        for b in range(0, len(slow), chunk):
            text = out[stops[b]:stops[min(b + chunk, len(slow))]].tobytes()
            redo = np.flatnonzero(slow[b:b + chunk])
            if len(redo):                       # each row is one line, made again by %
                lines = text.split(b"\n")
                for i in redo.tolist():
                    row = v[(b + i) * c:(b + i + 1) * c]
                    lines[i] = b",".join([b"%.17g" % y for y in row.tolist()])
                text = b"\n".join(lines)
            yield text


# ---------------------------------------------------------------------------
# reader: a block is a uint8 buffer of 24 bytes of "0" and then whole lines;
# token positions index the buffer
# ---------------------------------------------------------------------------

def _digit_words(buf: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The 24 bytes before each ``end`` as (3, m) little-endian words of
    digit values (each byte ^ "0"), all but the last ``length`` cleared."""
    w = np.ascontiguousarray(_view(buf, 24)[end - 24].view("<u8").reshape(-1, 3).T)
    w ^= _U(_ZEROS)
    w &= _tables().keep.take(length, axis=1)
    return w


def _nondigits(w: np.ndarray) -> np.ndarray:
    """Nonzero bytes where a byte of w is not a digit value 0-9.  A byte of
    0x8a or more carries into the next, which then reads as a non-digit too."""
    return ((w + _U(0x7676767676767676)) | w) & _U(0x8080808080808080)


def _values8(w: np.ndarray) -> np.ndarray:
    """The integer of each word of digit values, first digit in the lowest
    byte (Lemire's eight-digit parse: pairs, then fours, then all eight),
    computed in w's own memory."""
    w *= _U(2561)
    w >>= _U(8)
    w &= _U(0x00FF00FF00FF00FF)
    w *= _U(6553601)
    w >>= _U(16)
    w &= _U(0x0000FFFF0000FFFF)
    w *= _U(42949672960001)
    w >>= _U(32)
    return w.view(np.int64)


#: digits after a point in byte j of word i of a mantissa's words, plus one,
#: in byte 7 - j of row i
_AFTER = np.array([[0x1817161514131211], [0x100F0E0D0C0B0A09], [0x0807060504030201]], _U)


def _mantissas(w: np.ndarray, length: np.ndarray):
    """For the (3, m) digit words of mantissas of ``length`` <= 24 characters
    ending at byte 23: whether each is d+(.d+)?, its digits as an integer, and
    its count of digits after the point.  The integer is right below 10^18.
    The words are overwritten."""
    point = _nondigits(w)
    point >>= _U(7)                             # 1 in each non-digit byte
    # the one non-digit may be a point (0x1e), not first or last: its digit reads as 0
    work = point * _U(0x1E)
    w ^= work
    np.multiply(point, _U(255), out=work)
    work &= w                                   # nonzero where a non-digit is no point
    good = (work[0] | work[1] | work[2]) == 0
    np.multiply(point, _U(0x0101010101010101), out=work)
    work >>= _U(56)
    count = (work[0] + work[1] + work[2]).view(np.int64)
    np.multiply(point, _AFTER, out=work)
    work >>= _U(56)
    frac = (work[0] + work[1] + work[2]).view(np.int64) - count
    del point, work
    v = _values8(w)
    good &= (v[0] < 100) & (length >= 1) & (
        (count == 0) | ((count == 1) & (frac >= 1) & (frac <= length - 2)))
    value = v[0] * 10 ** 8
    value += v[1]
    value *= 10 ** 8
    value += v[2]
    return good, value, frac


def _exponents(w: np.ndarray, e3: np.ndarray):
    """For the last eight bytes, as digit words, of tokens that end in "e",
    a sign and two digits, or three where ``e3``: whether the sign and digits
    are, and the exponent."""
    sign = (w >> (_U(40) - _U(8) * e3.astype(_U))) & _U(255)
    d5, d6, d7 = [((w >> _U(s)) & _U(255)).astype(np.int64) for s in (40, 48, 56)]
    ok = (d6 < 10) & (d7 < 10) & (~e3 | (d5 < 10)) & ((sign == 0x1B) | (sign == 0x1D))
    return ok, (d6 * 10 + d7 + e3 * d5 * 100) * (1 - 2 * (sign == 0x1D))


def _parse_block(buf: np.ndarray, ints: int, fields: int):
    """(int64 (rows, ints), float64 (rows, fields - ints)) of whole lines of
    the writer's grammar, or None for text outside it."""
    t = _tables()
    # ",", "\n", and "+", which only an exponent may hold: any other byte below "-"
    # is outside the grammar, and the checks below find it
    ends = np.flatnonzero(buf <= 44)
    seps = buf[ends]
    if (seps == 43).any():
        keep = seps != 43
        ends, seps = ends[keep], seps[keep]
    rows = len(ends) // fields
    if len(ends) != rows * fields or (seps[fields - 1::fields] != 10).any() or (
            np.count_nonzero(seps == 44) != len(ends) - rows):
        return None
    begin = np.empty_like(ends)
    begin[0] = 24
    begin[1:] = ends[:-1] + 1
    neg = buf[begin] == 45                      # "-"
    begin += neg
    length = ends - begin
    begin, ends, length, neg = (a.reshape(rows, fields) for a in (begin, ends, length, neg))

    size = length[:, :ints].ravel()
    if ((size < 1) | (size > 8)).any():
        return None
    w = _view(buf, 8)[ends[:, :ints].ravel() - 8].view("<u8")
    w ^= _U(_ZEROS)
    w &= t.keep[2, size]
    if _nondigits(w).any():
        return None
    out_ints = _values8(w) * (1 - 2 * neg[:, :ints].ravel())

    begin, end, size, sign = (a[:, ints:].ravel() for a in (begin, ends, length, neg))
    # "e" four or five bytes from the end, after one character at least, starts an exponent
    e2 = (buf[end - 4] == 101) & (size >= 5)
    e3 = ~e2 & (buf[end - 5] == 101) & (size >= 6)
    e2 |= e3
    cut = e2 * 4
    cut += e3
    size -= cut
    w = _digit_words(buf, end - cut, np.minimum(size, 24))
    good, mant, frac = _mantissas(w, size)
    power = np.zeros(len(end), np.int64)
    expo = np.flatnonzero(e2)
    if len(expo):
        w = _view(buf, 8)[end[expo] - 8].view("<u8") ^ _U(_ZEROS)
        ok, power[expo] = _exponents(w, e3[expo])
        good[expo] &= ok
    # the words hold 24 characters, and an int64 the mantissas below 10^18
    good &= size <= 24
    rest = mant % t.p10[np.minimum(frac, 18)]
    mant -= (frac > 0) * (mant - (mant - rest) // 10 - rest)    # without the point's 0
    q = power - frac
    ok = good & (q >= POW_MIN) & (q <= POW_MAX)
    q *= ok
    zero = ok & (mant == 0)
    mh = mant.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = _scale(mh, q, (mant - mh.astype(np.int64)).astype(np.float64))
        # hi is the rounding of hi + lo, and of the exact value too while |lo| and
        # its error bound (2^-98 hi) stay below half an ulp on lo's side, which is
        # at least 2^-54 hi; a value written as %.17g is within 5e-17 hi of hi
        ok &= (hi >= FAST_MIN) & (hi < FAST_MAX) & (np.abs(lo) < hi * (2.0 ** -54 - 2.0 ** -98))
    ok |= zero
    # hi is not negative (a zero's hi is 0): the sign is its top bit
    vals = (hi.view(np.int64) | (sign.astype(np.int64) << 63)).view(np.float64)
    for i in np.flatnonzero(~ok).tolist():
        token = buf[begin[i] - sign[i]:end[i]].tobytes()
        if not good[i] and not _GRAMMAR.fullmatch(token):
            return None
        vals[i] = float(token)
    return out_ints.reshape(rows, ints), vals.reshape(rows, fields - ints)


def read_csv(f: BinaryIO, ints: int, fields: int):
    """Parse the rest of a binary file of rows of ``ints`` integer columns and
    ``fields - ints`` float columns, as the writer writes them.

    Returns (int64 (rows, ints), float64 (rows, fields - ints)), equal to what
    ``np.loadtxt`` parses from the same text, or None when a row or token
    is outside the writer's grammar.  The tables start at a little less than
    the rows the first block's bytes per row predict and grow in place to
    the rows read (``resize`` reallocates, which moves a large block's pages
    without copying them), so the peak holds one table and one block.
    """
    start = f.tell()
    size = f.seek(0, 2) - start
    f.seek(start)
    table = [np.empty((0, ints), np.int64), np.empty((0, fields - ints))]
    rows, done = 0, 0
    data = bytearray(b"0" * 24)                 # the first tokens' words look back 24 bytes
    while True:
        chunk = f.read(READ_BLOCK)
        data += chunk
        if not chunk and len(data) > 24 and data[-1] != 10:
            data += b"\n"                       # the last line may lack its "\n"
        cut = data.rfind(b"\n") + 1
        if cut:
            parsed = _parse_block(np.frombuffer(data, np.uint8, cut), ints, fields)
            if parsed is None:
                return None
            done += cut - 24
            new = rows + len(parsed[0])
            guess = new + (size - done) * new // done * 31 // 32 if not rows else 0
            for part, block in zip(table, parsed):
                if new > len(part):
                    part.resize((max(new, guess), part.shape[1]), refcheck=False)
                part[rows:new] = block
            rows = new
            del data[24:cut]                    # the partial last line moves to the front
        if not chunk:
            break
    for part in table:
        part.resize((rows, part.shape[1]), refcheck=False)
    return tuple(table)
