"""The '%.17g' text of many doubles at once, from exact integer digits.

A finite x with 2**-36 <= |x| < 2**51 is m * 2**(e - 53) with m < 2**53,
so its 17 significant digits at decimal exponent k are
round(m * 5**p / 2**s) for p = 16 - k in 1..27 and s = 37 - e + k in
1..62: a 116-bit product in two uint64 limbs, shifted, and rounded half
to even, as Python's dtoa rounds. Zeros are "0" and "-0". Any other
finite value (a subnormal, one below 2**-36 or one from 2**51 on) is
formatted on its own with '%.17g'.

Every value in the kernel's range gets the same WIDTH = 56 bytes:
"-0.000", "-" and its digits, its digits again with a point before the
first fraction digit, "e-XX" and its terminator. A mask then keeps the
bytes of its '%g' layout (fixed for -4 <= k < 17, otherwise d.ddde-XX,
with trailing zeros and a bare point stripped), at most three runs a
value, so the layout costs one row of a table per value.

ioformats imports this module when it writes its first field, so a run
that writes none neither compiles it nor builds its tables.
"""

from __future__ import annotations

import numpy as np

WIDTH = 56  # bytes per value, 7 words
_K_MIN, _K_MAX = -11, 15  # the decimal exponents of 2**-36 and 2**51
_ZERO = _K_MAX - _K_MIN + 1  # the class of 0 and -0, after the exponent classes
_POW5 = np.array([5**p for p in range(28)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_LEAD = np.frombuffer(b"-0.000-\0", np.uint64)[0]  # word 0; the first digit goes in its byte 7
_WHOLE, _FRACTION, _EXPONENT, _TERMINATOR = 7, 31, 48, 52  # where the two digit copies, "e-XX" and the terminator start


def _digits_needed(k, neg):
    """For each of its 56 bytes, the fewest significant digits, trailing
    zeros stripped, at which the '%.17g' text of a value with sign neg and
    decimal exponent k (None for zero) keeps the byte; 18 if never."""
    need = np.full(WIDTH, 18)
    need[_TERMINATOR] = 0
    if k is None:
        need[[0] * neg + [1]] = 0
    elif -4 <= k < 0:  # "0." and -k - 1 zeros
        need[[0] * neg + [*range(1, 2 - k)]] = 0
        need[_WHOLE : _WHOLE + 17] = np.arange(1, 18)
    else:  # the point goes after digit `last`, which the integer part ends with
        last = k if k >= 0 else 0
        need[[6] * neg + [*range(_WHOLE, _WHOLE + last + 1)]] = 0
        need[_FRACTION + last] = last + 2  # the point, before digit last + 1
        need[_FRACTION + last + 1 : _FRACTION + 17] = np.arange(last + 2, 18)
        if k < 0:
            need[_EXPONENT : _EXPONENT + 4] = 0
    return need


# The 4-digit groups 0000-9999 as ascii in the low half of a word, and their
# trailing zeros; each class's "e-XX" word; and, per class and digit count,
# the mask of the bytes kept. Every array is below 128 kB, which malloc
# serves from its heap.
_GROUPS = np.zeros((10000, 8), np.uint8)
_GROUPS[:, :4] = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
_TRAILING_ZEROS = np.cumprod(_GROUPS[:, 3::-1] == ord("0"), axis=1, dtype=np.uint8).sum(axis=1, dtype=np.int64)
_GROUPS = _GROUPS.view(np.uint64)[:, 0]
_CLASSES = [(k, neg) for k in [*range(_K_MIN, _K_MAX + 1), None] for neg in (0, 1)]
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d\0\0\0\0" % (k or 0) for k, _ in _CLASSES), np.uint64)
_KEEP = (np.array([_digits_needed(k, neg) for k, neg in _CLASSES])[:, None, :] <= np.arange(18)[:, None]).reshape(-1, WIDTH)


def _product(m, f):
    """m * f as its high and low uint64 limbs, for uint64 arrays with m < 2**53 and f < 2**63."""
    m0, m1, f0, f1 = m & _LOW32, m >> 32, f & _LOW32, f >> 32
    lo, cross = m0 * f0, m0 * f1
    mid = (cross & _LOW32) + (lo >> 32)
    hi = m1 * f1 + (cross >> 32)
    cross = m1 * f0
    mid += cross & _LOW32
    hi += (cross >> 32) + (mid >> 32)
    return hi, (lo & _LOW32) | (mid << 32)


def _round_scaled(m, p, s):
    """round(m * 5**p / 2**s), half to even, and its floor, for uint64 arrays
    with m < 2**53, p <= 27 and 1 <= s <= 62."""
    hi, lo = _product(m, _POW5[p])
    floor = (hi << (64 - s)) | (lo >> s)
    rem, half = lo & ((1 << s) - 1), 1 << (s - 1)
    return floor + ((rem > half) | ((rem == half) & (floor & 1).astype(bool))), floor


def _decimal(v):
    """Which finite entries of v the integer kernel takes, and for those
    their 17 significant digits as an integer and their decimal exponent."""
    a = np.abs(v)
    fast = (a >= 2.0**-36) & (a < 2.0**51)
    a = np.where(fast, a, 1.0)
    f, e = np.frexp(a)
    m = np.ldexp(f, 53).astype(np.uint64)
    k = np.floor(np.log10(a)).astype(np.int64)  # may be one off next to a power of 10
    digits, floor = _round_scaled(m, (16 - k).astype(np.uint64), (37 - e + k).astype(np.uint64))
    off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if off.size:
        k[off] += np.where(floor[off] < 10**16, -1, 1)
        p, s = (16 - k[off]).astype(np.uint64), (37 - e[off] + k[off]).astype(np.uint64)
        digits[off] = _round_scaled(m[off], p, s)[0]
    # No double in the range lies within half a unit of the 17th digit
    # below a power of 10, so the rounding never carries to 10**17.
    return fast, digits, k


def format_columns(values, terminators: bytes, text, keep):
    """The '%.17g' text of each finite entry of a (rows, columns) array,
    each followed by its column's terminator, into text, a (rows, columns,
    WIDTH) byte array, with keep (bool, same shape) marking the bytes of
    text, which stay in row-major order."""
    v = values.ravel()
    fast, digits, k = _decimal(v)
    shape = values.shape  # of every per-value array below, and of text and keep less their last axis
    high = (digits // 10**8).astype(np.int64)
    low = digits.astype(np.int64) - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    groups = []
    for eight in (high, low):
        first = eight // 10**4
        groups += [first, eight - first * 10**4]
    words = text.view(np.uint64)
    lead = (lead.astype(np.uint64) + ord("0")) << 56
    words[..., 0], words[..., 3] = (_LEAD | lead).reshape(shape), lead.reshape(shape)
    words[..., 1] = words[..., 4] = (_GROUPS[groups[0]] | _GROUPS[groups[1]] << 32).reshape(shape)
    words[..., 2] = words[..., 5] = (_GROUPS[groups[2]] | _GROUPS[groups[3]] << 32).reshape(shape)
    trailing = 0
    for group in groups:
        trailing = np.where(group == 0, trailing + 4, _TRAILING_ZEROS[group])
    cls = 2 * np.where(fast, k - _K_MIN, _ZERO) + np.signbit(v)
    words[..., 6] = _EXPONENTS[cls].reshape(shape) | np.frombuffer(terminators, np.uint8).astype(np.uint64) << 32
    # The point replaces the second copy of the last integer digit, or of the first in d.ddde-XX.
    text[np.arange(shape[0])[:, None], np.arange(shape[1]), _FRACTION + np.clip(k, 0, 16).reshape(shape)] = ord(".")
    np.take(_KEEP, (cls * 18 + 17 - trailing).reshape(shape), axis=0, out=keep, mode="clip")
    for i in np.flatnonzero(~fast & (v != 0)):
        row, col = divmod(i, shape[1])
        chars = b"%.17g" % v[i]
        text[row, col, : len(chars)] = np.frombuffer(chars, np.uint8)
        keep[row, col] = np.arange(WIDTH) < len(chars)
        keep[row, col, _TERMINATOR] = True
