"""Byte-exact vectorised ``"%.12e" % v`` for float64 arrays.

``cells(values)`` returns one fixed-width row of ASCII bytes per value,
padded with NUL bytes, whose non-NUL bytes are exactly ``FLOAT_FMT % v``.
The table writer lays these rows into a byte matrix beside literal
separators and then drops every NUL byte.

For 1e-290 <= |v| <= 1e290 the thirteen significant digits come from the
scaled value s = |v| * 10**(12 - k), which lies in [1e12, 1e13):

* 10**(12 - k) is Python's correctly rounded ``float("1e%d" % (12 - k))``
  and s is one float64 product: two correctly rounded operations, so s is
  off by a relative 2u + u**2 at most (u = 2**-53), under 2.3e-3 in
  absolute terms below 1e13.  Rounding s to an integer is then exact
  wherever its fractional part r lies _TIE = 5e-3, about twice that bound,
  or more from 1/2.  Within the fast range the product is a normal double;
* k starts from ``floor(log10 |v|)`` and is corrected by one where the
  unrounded s falls outside [1e12, 1e13); a corrected s can miss that range
  only by the product's error, so it rounds to 1e12 or to 1e13, and
  rounding s up to 1e13 moves the exponent by one more;
* the digits come from splitting the rounded s into 1 + 4 + 4 + 4 digits
  (exact float64 quotients, since s < 2**53) and a lookup table of the
  10,000 four-digit groups, read as 4-byte words.

Values the fast path cannot decide or does not cover are formatted by
``FLOAT_FMT % v``: near-ties (|r - 1/2| < _TIE, about 1% of values, where
the product cannot tell which side of the tie the binary value lies on),
zeros, subnormals, nan, +-inf and |v| outside [1e-290, 1e290].
"""

import numpy as np

FLOAT_FMT = "%.12e"
WIDTH = 24  # six 4-byte words: "-d." | dddd | dddd | dddd | "e-dd" | "d"

_FAST_MIN, _FAST_MAX = 1e-290, 1e290
# Decimal exponents the tables cover: the fast range's -291..290, one more
# each way for the log10 estimate, and the carry of a rounding to 1e13.
_K_MIN, _K_MAX = -292, 291
_TIE = 5e-3  # > (2u + u**2) * 1e13 = 2.2e-3, the error of s below 1e13
_POWERS = np.array([float("1e%d" % (12 - k)) for k in range(_K_MIN, _K_MAX + 1)])
# byte groups read and written through little-endian words
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
_DIGITS4 = np.concatenate(np.broadcast_arrays(_DIGITS2[:, None], _DIGITS2[None, :]),
                          axis=2).view("<u4").ravel()
_EXP10 = np.frombuffer(  # "e+dd" or "e-ddd", NUL-padded to 8 bytes
    b"".join((b"e%+03d" % k).ljust(8, b"\0") for k in range(_K_MIN, _K_MAX + 1)), "<u8")
_HEAD = np.frombuffer(
    b"".join(b"%s%d.\0" % (sign, d) for sign in (b"\0", b"-") for d in range(10)), "<u4")


def _scaled(a, k):
    """floor(s) and s - floor(s) for s = a * 10**(12 - k), rounded."""
    s = a * _POWERS.take(k - _K_MIN)
    fl = np.floor(s)
    return fl, s - fl


def cells(values) -> np.ndarray:
    """(n, WIDTH) uint8 rows: each row's non-NUL bytes are FLOAT_FMT % v."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    fl, r = _scaled(a, k)
    off = (fl < 1e12).view(np.int8) - (fl >= 1e13).view(np.int8)
    j = np.flatnonzero(off)
    if j.size:
        # log10 rounded across a power of ten, so k is one too high where
        # s < 1e12 and one too low where s >= 1e13: rescale from the
        # unrounded s, never from the rounded one
        k[j] -= off[j]
        fl[j], r[j] = _scaled(a[j], k[j])
    fast &= np.abs(r - 0.5) >= _TIE  # near-ties fall back to FLOAT_FMT % v
    n = fl + (r > 0.5)
    carry = n == 1e13
    n[carry] = 1e12
    k += carry

    # n < 1e13, so every quotient below is exact in float64
    q4 = np.floor(n / 1e4)
    q8 = np.floor(q4 / 1e4)
    lead = np.floor(q8 / 1e4)
    out = np.empty((v.size, WIDTH), np.uint8)
    words = out.view("<u4")
    words[:, 0] = _HEAD.take((lead + 10.0 * (v < 0)).astype(np.intp))
    words[:, 1] = _DIGITS4.take((q8 - lead * 1e4).astype(np.intp))
    words[:, 2] = _DIGITS4.take((q4 - q8 * 1e4).astype(np.intp))
    words[:, 3] = _DIGITS4.take((n - q4 * 1e4).astype(np.intp))
    out.view("<u8")[:, 2] = _EXP10.take(k - _K_MIN)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([(FLOAT_FMT % x).encode() for x in v[slow].tolist()],
                        dtype=f"S{WIDTH}")
        out[slow] = text.view(np.uint8).reshape(-1, WIDTH)
    return out
