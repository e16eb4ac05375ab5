"""CSV traces and sweep tables: the one module that knows the CSV format.

Both kinds of trace go through ``write_trace_csv`` and one float kernel; every
float cell is exactly ``format(x, ".17g")``, and every line ends in "\\n".
"""

from __future__ import annotations

import functools
from dataclasses import fields

import numpy as np

from .dispatch import IterationTrace, StopReason
from .dynamics import SimulationTrace
from .experiments import MethodConvergence, SweepRecord

__all__ = ["write_sweep_csv", "write_trace_csv"]

# Cells per CSV block, at most: _csv_rows cuts every trace into blocks of as many
# whole rows as fit. The size comes from a cost model, measured on 2 x86 cores
# with numpy 2.4.6 by writing a 1000-unit trace at 2,048 to 16,384 cells a block.
# A block costs about 75 us whatever its size, 60 us of it the some 60 numpy calls
# of one _csv_cells call, and a cell about 95 ns, 55 ns of it in the kernel. So
# the fixed part adds 18 ns a cell at 4,096 cells and under 5 ns at 16,384.
# The ceiling is memory: a block's temporaries come to about 170 B a cell, 2.8 MB
# under tracemalloc for that trace. Past this size they outgrow a core's 2 MiB L2,
# and a float64 array of the block passes 128 KiB, glibc's mmap threshold: at
# 32,768 cells the 1000-unit trace was written no faster and a 2-unit one slower.
_CSV_BLOCK_CELLS = 16384


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(trace, sink) -> None:
    """Write a solver or simulation trace to ``sink`` as CSV with round-trip-exact
    floats: ``k,lambda,p_1..p_N,imbalance,delta_f`` for an ``IterationTrace``, whose
    p matrix is never built (each block's powers come from its prices), and
    ``t,p_1..p_N,delta_f,marginal_cost_1..marginal_cost_N`` for a ``SimulationTrace``.

    Each kind gives only its header and ``block(rows)``, its float64 rows; one
    ``_csv_rows`` call writes both kinds' cells, each exactly ``format(x, ".17g")``.
    Any other type raises TypeError before anything is written.
    """
    if isinstance(trace, IterationTrace):
        n = len(trace.power(float(trace.lam[0])))
        header = ["k", "lambda", *(f"p_{i + 1}" for i in range(n)), "imbalance", "delta_f"]
        k = np.arange(len(trace.lam), dtype=np.float64)  # a count far below 2**53 prints as str(k)

        def block(rows: slice) -> np.ndarray:
            p = np.array(list(map(trace.power, trace.lam[rows].tolist())))
            return np.column_stack([k[rows], trace.lam[rows], p,
                                    trace.imbalance[rows], trace.delta_f[rows]])
    elif isinstance(trace, SimulationTrace):
        columns = trace.scenario.columns
        n = len(columns.a)
        header = ["t", *(f"p_{i + 1}" for i in range(n)), "delta_f",
                  *(f"marginal_cost_{i + 1}" for i in range(n))]

        def block(rows: slice) -> np.ndarray:
            p = trace.p[rows]
            return np.column_stack([trace.t[rows], p, trace.delta_f[rows], columns.marginal(p)])
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__} as a trace")
    sink.write(",".join(header) + "\n")
    sink.writelines(_csv_rows(len(trace.delta_f), len(header), block))


# The CSV float kernel. A nonzero cell x with 1e-280 <= |x| <= 1e280 has a
# decimal exponent e in _EXPONENTS, and j = e - _EXPONENTS[0] is its row in the
# tables below. Its 17-digit significand n = round(|x| * 10**(16 - e)) comes
# from Dekker's exact product of |x| with the high part of 10**(16 - e), held as
# hi + lo to about 2**-106, so the rounding fraction is known to about 1e-14.
# A cell is four 8-byte words, NUL-padded and written little-endian ("<u8"),
# so a word's byte i is its bits 8i..8i+7:
#   word 0: the sign, the "0.000" prefix of -4 <= e <= -1 and the first digit d0;
#   words 1-3: T, digits d1..d16 with "." inserted at byte q, then in bytes 1-6
#   of word 3 the exponent "e+XX" or "e+XXX" and the separator.
# Trailing zeros past the point and every unused byte stay NUL, and translate drops them.
_EXPONENTS = np.arange(-282, 282)  # the window's exponents and one step either side
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's split of a double into two 26-bit halves


def _powers_of_ten(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi = fl(10**k) and lo = fl(10**k - hi) for each k of ``ks``, which falls by one
    from ks[0] >= 0 to ks[-1] < 0. They come from the exact integers 5**|k|, since
    10**k = 5**k * 2**k and ldexp scales by 2**k exactly."""
    hi, lo, five = [], [], 1
    for _ in range(ks[0] + 1):  # int to float rounds correctly
        hi.append(float(five))
        lo.append(float(five - int(hi[-1])))
        five *= 5
    hi.reverse()
    lo.reverse()
    five = 1
    for _ in range(-ks[-1]):  # 1/5**k - m/d = (d - m * 5**k) / (d * 5**k), rounded once
        five *= 5
        m, d = (h := 1 / five).as_integer_ratio()
        hi.append(h)
        lo.append((d - m * five) / (d * five))
    return np.ldexp(hi, ks), np.ldexp(lo, ks)


@functools.cache  # built on first use, not at import; read-only
def _csv_tables() -> dict:
    """The kernel's tables. Those read at one index are stacked, one row each, and
    gathered together: "scale" and "layout" by exponent row j, "point" by q and
    "keep" by the count of T's bytes kept."""
    u, e = np.uint64, _EXPONENTS
    hi, lo = _powers_of_ten(16 - e)
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    # digit i of the groups "0000" to "9999", as axis i of a 10x10x10x10 grid
    digits = [np.arange(10).reshape([10 if j == i else 1 for j in range(4)]) for i in range(4)]
    # the last nonzero digit of each group, -64 for "0000"
    last = functools.reduce(np.maximum, [np.where(x != 0, i, -64) for i, x in enumerate(digits)])
    last = last.ravel().astype(np.int8)
    fixed, neg, ae = (e >= -4) & (e < 17), e < 0, np.abs(e)
    exp_bytes = [np.full(e.shape, 101), np.where(neg, 45, 43),
                 np.where(ae >= 100, ae // 100 + 48, 0), ae // 10 % 10 + 48, ae % 10 + 48]

    def words(values, count):  # Python ints as (count, len(values)) uint64 words
        return np.array([[v >> 64 * i & 2 ** 64 - 1 for v in values] for i in range(count)],
                        dtype=u)

    tables = {
        "scale": np.stack([hi, hh, hi - hh, lo]),  # 10**(16 - e) as hi + lo, and hi's halves
        "quad": sum(x + 48 << 8 * i for i, x in enumerate(digits)).ravel().astype(u),
        "z": last + np.array([[1], [5], [9], [13]], np.int8),  # as an index among d0..d16
        "layout": np.stack([
            # the "0.000" prefix of word 0, and word 3's exponent "e+XX" or "e+XXX"
            np.array([int.from_bytes(b"\0" + b"0.000"[:1 - k], "little") if -4 <= k < 0
                      else 0 for k in e.tolist()], dtype=u),
            np.where(fixed, u(0), sum(b.astype(u) << u(8 * i)
                                      for i, b in enumerate(exp_bytes, start=1))),
            np.where(fixed, np.where(neg, 16, e), 0),  # q: "." after d_q; at 16 it never shows
            np.where(fixed & ~neg, e, 0),  # kp: the last digit of the integer part
        ]).astype(u),
        "d0": np.arange(48, 58, dtype=u) << u(48), "sign": np.array([0, 45], dtype=u),
        "point": np.concatenate([  # T's bytes before q, then the "." at byte q
            words([(1 << 8 * q) - 1 for q in range(17)], 2),
            words([46 << 8 * q if q < 16 else 0 for q in range(17)], 2)]),
        "keep": words([(1 << 8 * c) - 1 | (1 << 192) - (1 << 136) for c in range(18)], 3),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, j: np.ndarray):
    """a * 10**(16 - e) as p + r, with p = fl(a * hi) and |r| < 32."""
    b, bh, bl, lo = np.take(_csv_tables()["scale"], j, axis=1)
    p = a * b
    ah = a * _SPLIT - (a * _SPLIT - a)
    al = a - ah
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo


def _significands(x: np.ndarray):
    """(n, j, special): |x| rounds to n * 10**(e - 16) with n of 17 digits, except
    where special (a zero, or a cell to format alone), where n = 0 and e = 0."""
    a = np.abs(x)
    special = ~((a >= 1e-280) & (a <= 1e280))
    a[special] = 1.0
    j = np.floor(np.log10(a)).astype(np.intp)  # e, or one off next to a power of ten
    j -= _EXPONENTS[0]
    p, r = _scaled(a, j)
    off = ((p - 1e16) + r < 0) | ((p - 1e17) + r >= -0.5)  # n would not have 17 digits
    if off.any():
        i = np.flatnonzero(off)
        j[i] += np.where((p[i] - 1e16) + r[i] < 0, -1, 1)
        p[i], r[i] = _scaled(a[i], j[i])
        special[i] |= ((p[i] - 1e16) + r[i] < 0) | ((p[i] - 1e17) + r[i] >= -0.5)
    rn = np.rint(r)
    special |= np.abs(r - rn) > 0.5 - 1e-6
    n = p.astype(np.int64) + rn.astype(np.int64)  # p >= 1e16 > 2**53 is an integer
    n[special] = 0
    j[special] = -_EXPONENTS[0]
    return n, j, special


def _digit_word(eight: np.ndarray, z_hi: np.ndarray, z_lo: np.ndarray):
    """Eight digits as one word of their ASCII bytes, and the index of the last nonzero one."""
    quad = _csv_tables()["quad"]
    hi = eight // 10 ** 4
    lo = eight - hi * 10 ** 4
    return quad[hi] | quad[lo] << np.uint64(32), np.maximum(z_hi[hi], z_lo[lo])


_COMMA = np.uint64(ord(",") << 48)  # byte 6 of word 3, a cell's separator


def _csv_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Lay out each cell of the 1-D float64 x, followed by a comma, in a row of
    out, an (x.size, 4) "<u8" buffer.

    Each temporary is dropped once used, since they set the writer's peak memory.
    """
    t = _csv_tables()
    n, j, special = _significands(x)
    prefix, exp, q, kp = np.take(t["layout"], j, axis=1)
    q, kp = q.view(np.int64), kp.view(np.int64)
    del j
    d0 = n // 10 ** 16
    n -= d0 * 10 ** 16
    out[:, 0] = t["d0"][d0] | prefix | t["sign"][np.signbit(x).view(np.int8)]
    del d0, prefix
    hi8 = n // 10 ** 8
    n -= hi8 * 10 ** 8
    A, last_a = _digit_word(hi8, t["z"][0], t["z"][1])  # d1..d8
    B, last_b = _digit_word(n, t["z"][2], t["z"][3])  # d9..d16
    del hi8, n
    last = np.maximum(np.maximum(last_a, last_b), kp)  # the last digit shown
    keep = last + (last > q)  # bytes of T kept: the point shows only before a digit
    out[:, 3] = exp | _COMMA
    del last, last_a, last_b, exp, kp
    low_a, low_b, dot_a, dot_b = np.take(t["point"], q, axis=1)
    mask_a, mask_b, mask_c = np.take(t["keep"], keep, axis=1)
    del q, keep
    low_a &= A
    A ^= low_a  # now the bytes from q on, which move up one byte
    out[:, 1] = (low_a | A << np.uint64(8) | dot_a) & mask_a
    del low_a, dot_a, mask_a
    low_b &= B
    B ^= low_b
    out[:, 2] = (low_b | B << np.uint64(8) | A >> np.uint64(56) | dot_b) & mask_b
    out[:, 3] |= B >> np.uint64(56) & mask_c
    cells = out.view(np.uint8)
    for i in np.flatnonzero(special & (x != 0)):
        text = _fmt(x[i]).encode()
        cells[i, :30] = 0  # the separator stays
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)


def _csv_rows(rows: int, cols: int, block):
    """Yield a table of rows x cols float64 cells as CSV text, block by block: a
    line per row, every cell exactly ``format(x, ".17g")``, comma-separated.
    ``block(s)`` returns the table's rows ``s``, a slice, as a 2-D array. A block
    is as many whole rows as fit in ``_CSV_BLOCK_CELLS`` cells, and at least one,
    so only one block of the table is in memory at a time.

    Only the cells whose bits differ from the cell above them go through the
    kernel; for a block's first row, the cell above is in the last row of the
    block before. Each other cell's 32-byte slot is copied, by one ``take``
    per block, from the slot of the nearest such cell above it in its column.
    A settled trace repeats most of its cells, and a repeated cell then costs
    only the copy and its share of the NUL-dropping ``translate``.

    A cell the kernel cannot certify is formatted alone: a rounding fraction
    within 1e-6 of a tie, a non-finite value, and a nonzero |x| outside
    [1e-280, 1e280]. Signed zeros are in the kernel.
    """
    step = max(1, _CSV_BLOCK_CELLS // cols)
    # buf holds the slots of the last row written, then those of the block's new
    # cells; the first block is the largest, so buf is sized for it once
    buf = np.zeros((cols * (1 + min(rows, step)), 4), np.dtype("<u8"))
    above = None
    for i in range(0, rows, step):
        table = block(slice(i, i + step))
        size = table.size
        bits = table.view(np.uint64)
        new = np.empty(table.shape, bool)
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        new[0] = True if above is None else bits[0] != above
        above = bits[-1].copy()
        if new.all():  # nothing to copy: the new cells' slots are the block's
            slots = buf[cols:cols + size]
            _csv_cells(table.ravel(), slots)
        else:
            _csv_cells(table[new], buf[cols:cols + np.count_nonzero(new)])
            # a new cell's slot in buf; a repeat's is the last row's for now, then
            # the nearest new cell's above
            src = np.where(new, np.cumsum(new, dtype=np.intp).reshape(new.shape) + (cols - 1),
                           np.arange(cols))
            np.maximum.accumulate(src, axis=0, out=src)
            slots = buf.take(src.ravel(), axis=0)
            del src
        buf[:cols] = slots[-cols:]
        cells = slots.view(np.uint8)
        cells[cols - 1::cols, 30] = ord("\n")  # each row ends its last cell with a newline
        yield cells.tobytes().translate(None, b"\0").decode("ascii")
        del slots, cells  # before the next block's kernel runs


def _cell(x) -> str:
    """A sweep CSV cell: None empty, a bool true or false, an int as is, a stop
    reason its value and a float ``.17g``."""
    if x is None:
        return ""
    if isinstance(x, int):  # a bool too: str(True).lower() is "true"
        return str(x).lower()
    return x.value if isinstance(x, StopReason) else _fmt(x)


def write_sweep_csv(records, sink) -> None:
    """A row per ``SweepRecord`` and a column per field, where a ``MethodConvergence``
    field spreads into a column per field of its own (``dual_iterations``, ...)."""
    method = [m.name for m in fields(MethodConvergence)]
    columns = [(f.name, m) for f in fields(SweepRecord)
               for m in (method if "MethodConvergence" in str(f.type) else [None])]
    sink.write(",".join(name if m is None else f"{name}_{m}" for name, m in columns) + "\n")
    for rec in records:  # a method the sweep did not run is None: its cells stay empty
        cells = (getattr(rec, name) if m is None else getattr(getattr(rec, name), m, None)
                 for name, m in columns)
        sink.write(",".join(map(_cell, cells)) + "\n")
