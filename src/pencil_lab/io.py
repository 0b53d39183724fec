"""Deterministic artifact writers: CSV grids, OBJ meshes, JSON reports.

Every file embeds the digest of the canonicalized configuration that
produced it, and identical configurations yield byte-identical files:
numbers are printed as ``"%.17g" % float(x)``, line endings are LF, and JSON
keys are sorted.

CSV and OBJ numbers are printed by one numpy kernel, ``_fields``, whose
bytes are those of ``"%.17g"``: it rounds each double to 17 digits exactly
(Dekker's product with an exact power of ten), reads the digits off a table
by fours and lays the text out by sign, exponent and trailing zeros.  A
value it cannot prove, such as zero, inf, NaN or one of magnitude below
1e-6 or from 1e16 on, is printed by ``"%.17g"`` itself.  Rows are built as
NUL-padded cells, the NULs dropped, and written in blocks of _BLOCK_ROWS
rows; complex or text values raise TypeError.  A CSV coordinate is printed
once per axis sample and an OBJ vertex number once per grid shape, and
their text is copied to the rows that use it.  The kernel's tables are
built on first use, so importing this module builds none.

``run_forked`` maps a function over items in this process and forked
children; ``cli`` runs its shift tasks and its writers through it.  Two
threads write no faster than one, so a second core can only help as a
second process.  ``_shares`` deals a run's files, whole and by size, into
one share per process; each file is still made by the same writer from the
same arrays, so its bytes do not depend on the split.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys

import numpy as np

__all__ = ["canonical_digest", "write_csv_grid", "write_obj",
           "write_json_report", "run_forked"]

# Rows per formatted block: enough to amortize the numpy calls, few enough
# that a block's temporaries (about 1 kB a row) do not raise the peak RSS.
_BLOCK_ROWS = 1024
# Bytes per printed number: the longest "%.17g" text of a double is
# "-1.2345678901234567e-308".
_WIDTH = 24
# A number's source row in _fields is 7 words of 4 ASCII bytes: "000"
# and its first digit, then its other 16 digits, then the other bytes a
# text may need.  So digit t is byte 3 + t, and these are the bytes:
_ZERO, _DOT, _MINUS, _E, _FIVE, _SIX, _NUL = 0, 20, 21, 22, 23, 24, 25
_SPARE = np.frombuffer(b".-e56\0\0\0", np.uint32)
_SOURCE = 28
# The exponents the fast path of _fields prints: -6 <= X <= 15.
_LOWEST, _HIGHEST = -6, 15


def canonical_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.cache
def _tables():
    """The tables of _fields, built on first use so that importing this
    module builds none: the four ASCII digits of each of 0..9999 as one
    uint32 and the count of its trailing zeros (4 for 0), the exact doubles
    10^0..10^22, and for each (sign, exponent X, count of digits kept) the
    source bytes of the text."""
    d = np.arange(10000)
    digits4 = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10],
                        axis=1) + ord("0")).astype(np.uint8)
    zeros4 = sum(d % 10 ** j == 0 for j in range(1, 5))
    pow10 = np.array([float(10 ** p) for p in range(23)])
    layouts = np.array([_layout(neg, x, kept) for neg in (False, True)
                        for x in range(_LOWEST, _HIGHEST + 1)
                        for kept in range(1, 18)], np.intp)
    return digits4.view(np.uint32).ravel(), zeros4, pow10, layouts


def _layout(neg: bool, x: int, kept: int) -> list:
    """Source bytes of the "%.17g" text of a number with exponent x whose
    17 digits end in 17 - kept zeros."""
    digits = [3 + t for t in range(17)]
    out = [_MINUS] if neg else []
    if x >= 0:
        out += digits[:x + 1]
        if kept > x + 1:
            out += [_DOT, *digits[x + 1:kept]]
    elif x >= -4:
        out += [_ZERO, _DOT, *[_ZERO] * (-x - 1), *digits[:kept]]
    else:
        out += [digits[0], *([_DOT, *digits[1:kept]] if kept > 1 else []),
                _E, _MINUS, _ZERO, _FIVE if x == -5 else _SIX]
    return out + [_NUL] * (_WIDTH - len(out))


def _split(a: np.ndarray):
    """Veltkamp's split of a into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a: np.ndarray, b: np.ndarray, p: np.ndarray):
    """a*b - p exactly, for p = fl(a*b) (Dekker's two-product)."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fields(x: np.ndarray) -> np.ndarray:
    """The text "%.17g" % v of each v of the float64 vector x, as rows of
    _WIDTH bytes padded with NUL.

    For 1e-6 <= |v| < 1e16 with k = floor(log10|v|) and p = 16 - k, 10^p is
    an exact double and |v|*10^p is exactly hi + lo (_product_error).  When
    that lies in [1e16, 1e17), hi is an even integer, so hi + rint(lo) is
    |v|*10^p rounded half to even, as "%.17g" rounds: its 17 digits come
    from the table by fours and are laid out by sign, exponent and the
    count left once trailing zeros go.  Each value this does not prove
    (zero, inf, NaN, |v| out of that range, a k that log10 misjudged) is
    printed by "%.17g" itself (_printf).
    """
    digits4, zeros4, pow10, layouts = _tables()
    a = np.abs(x)
    fast = (a >= 1e-6) & (a < 1e16)
    a[~fast] = 1.0
    k = np.clip(np.floor(np.log10(a)), _LOWEST, _HIGHEST).astype(np.intp)
    scale = pow10[16 - k]
    hi = a * scale
    lo = _product_error(a, scale, hi)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (n < 10 ** 17)

    top, rest = np.divmod(n, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    groups = [top, *np.divmod(upper, 10000), *np.divmod(lower, 10000)]
    src = np.empty((x.size, _SOURCE // 4), np.uint32)
    for j, g in enumerate(groups):
        src[:, j] = digits4[g]
    src[:, 5:] = _SPARE
    zeros = zeros4[groups[4]]
    for m, g in enumerate(reversed(groups[1:4]), 1):  # past zero groups
        zeros += (zeros == 4 * m) * zeros4[g]
    case = ((x < 0) * (_HIGHEST - _LOWEST + 1) + k - _LOWEST) * 17 + 16 - zeros
    index = layouts.take(case, axis=0)
    index += np.arange(0, x.size * _SOURCE, _SOURCE)[:, None]
    out = np.take(src.view(np.uint8).ravel(), index)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _printf(x[slow])
    return out


def _printf(x: np.ndarray) -> np.ndarray:
    """_fields of x by "%.17g" itself, one value at a time."""
    texts = np.array([b"%.17g" % v for v in x.tolist()], f"S{_WIDTH}")
    return texts.view(np.uint8).reshape(-1, _WIDTH)


def _int_fields(ids: np.ndarray, width: int) -> np.ndarray:
    """The decimal text of each positive integer of ids, below 10^width
    (width a multiple of 4), as rows of width bytes led by NUL padding."""
    digits4 = _tables()[0]
    groups = np.empty((ids.size, width // 4), np.uint32)
    for j in reversed(range(width // 4)):
        ids, rest = np.divmod(ids, 10000)
        groups[:, j] = digits4[rest]
    out = groups.view(np.uint8)
    out[np.logical_and.accumulate(out == ord("0"), axis=1)] = 0
    return out


def _real(values) -> np.ndarray:
    """values as float64; complex or text values raise TypeError, as they
    would in "%.17g"."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise TypeError(f"cannot print {a.dtype} values as real numbers")
    return a.astype(np.float64, copy=False)


def _blocks(table: np.ndarray):
    return (table[i:i + _BLOCK_ROWS]
            for i in range(0, len(table), _BLOCK_ROWS))


def _join(lead: bytes, cells: list, seps: list) -> bytes:
    """Rows of ``lead`` and then each cell followed by its separator, with
    every NUL dropped; a cell is an array (rows, w) of NUL-padded text."""
    pieces = [np.frombuffer(lead, np.uint8)]
    for cell, sep in zip(cells, seps):
        pieces += [cell, np.frombuffer(sep, np.uint8)]
    buf = np.empty((len(cells[0]), sum(p.shape[-1] for p in pieces)),
                   np.uint8)
    start = 0
    for p in pieces:
        buf[:, start:start + p.shape[-1]] = p
        start += p.shape[-1]
    return buf[buf != 0].tobytes()


@functools.lru_cache(maxsize=4)
def _face_text(m1: int, m2: int) -> bytes:
    """The face rows of an m1 x m2 grid mesh; they depend on the shape only.
    Each vertex number is printed once and copied to the faces that use it."""
    vid = np.arange(m1 * m2).reshape(m1, m2)
    p, q, r, s = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]
    faces = np.stack([p, q, r, p, r, s], axis=-1).reshape(-1, 3)
    ids = _int_fields(vid.ravel() + 1, 4 * -(-len(str(m1 * m2)) // 4))
    text = []
    for block in _blocks(faces):
        cells = [np.take(ids, block[:, c], axis=0) for c in range(3)]
        text.append(_join(b"f ", [c for c in cells for _ in range(2)],
                          [b"//", b" ", b"//", b" ", b"//", b"\n"]))
    return b"".join(text)


def write_csv_grid(path, chart, columns: dict, digest: str) -> None:
    """Grid CSV: coordinate columns first, then named value columns.

    Rows run in row-major order over the grid; values use 17 significant
    digits so a re-read reproduces the doubles exactly.  Each coordinate is
    printed once per axis sample and copied to the rows that share it.
    """
    table = np.empty((int(np.prod(chart.shape)), len(columns)))
    for j, v in enumerate(columns.values()):
        table[:, j] = _real(np.ravel(v))
    axes = [_fields(ax) for ax in chart.axes()]
    head = ",".join([f"R{d + 1}" for d in range(chart.n)] + list(columns))
    seps = [b","] * (chart.n + len(columns) - 1) + [b"\n"]
    with open(path, "wb") as fh:
        fh.write(f"# config={digest}\n{head}\n".encode())
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            at = np.unravel_index(np.arange(start, start + len(block)),
                                  chart.shape)
            vals = _fields(block.ravel()).reshape(block.shape + (_WIDTH,))
            cells = [np.take(ax, i, axis=0) for ax, i in zip(axes, at)]
            cells += [vals[:, j] for j in range(block.shape[1])]
            fh.write(_join(b"", cells, seps))


def write_obj(path, vertices, normals, digest: str) -> None:
    """Structured-grid quad mesh as OBJ, each quad split into two triangles.

    vertices and normals have shape (m1, m2, 3); vertex numbering is
    row-major and 1-based as OBJ requires.
    """
    m1, m2, _ = vertices.shape
    with open(path, "wb") as fh:
        fh.write(f"# config={digest}\n".encode())
        for tag, arr in ((b"v ", vertices), (b"vn ", normals)):
            for block in _blocks(_real(arr).reshape(m1 * m2, 3)):
                f = _fields(block.ravel()).reshape(len(block), 3, _WIDTH)
                fh.write(_join(tag, [f[:, 0], f[:, 1], f[:, 2]],
                               [b" ", b" ", b"\n"]))
        fh.write(_face_text(m1, m2))


def write_json_report(path, report: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_forked(fn, items, workers: int):
    """``[fn(item) for item in items]``, the items dealt round-robin to this
    process and ``workers - 1`` children forked at once, with no other
    thread alive (``cli._pool_map`` sees to it).  Each process stops at its
    first failure; a child pickles its results and that failure through a
    pipe.  The lowest-index failure is raised, as ``pool.map`` does, and a
    child that exits without sending raises ChildProcessError.  The children
    are always reaped, killed first on an error here or a failed item 0."""
    import pickle  # numpy has loaded it; only this path needs the name

    def share(w):  # (results, failure or None) of items w, w + workers, ...
        done = []
        try:
            for item in items[w::workers]:
                done.append(fn(item))
        except Exception as e:
            return done, e
        return done, None

    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes = [], []  # per child: its pid, the two ends of its pipe
    try:
        for w in range(1, workers):
            pipes.append([os.fdopen(fd, mode)
                          for fd, mode in zip(os.pipe(), ("rb", "wb"))])
            pids.append(os.fork())
            if pids[-1] == 0:  # the child, which never returns
                try:
                    pipes[-1][1].write(pickle.dumps(share(w)))
                    pipes[-1][1].close()
                    os._exit(0)
                finally:
                    os._exit(1)
            pipes[-1][1].close()
        shares = [share(0)]
        if shares[0][1] is not None and not shares[0][0]:
            raise shares[0][1]  # no failure can precede item 0's
        sent = [r.read() for r, _ in pipes]
    except BaseException:
        import signal  # only this path needs it; importing costs setup time
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end in (end for pipe in pipes for end in pipe):
            end.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for code in filter(None, codes):
        raise ChildProcessError(f"a forked worker exited with status {code}"
                                " before sending its result")
    shares += [pickle.loads(data) for data in sent]
    for k in range(len(items)):  # a worker's results end at its failure
        done, failure = shares[k % workers]
        if k // workers == len(done):
            raise failure
    return [shares[k % workers][0][k // workers] for k in range(len(items))]


def _size(job) -> int:
    """The values a job formats: the sizes of its array arguments and of the
    arrays in a dict argument (the CSV columns)."""
    arrays = []
    for a in job[1]:
        arrays += a.values() if isinstance(a, dict) else [a]
    return sum(a.size for a in arrays if isinstance(a, np.ndarray))


def _shares(jobs: list, count: int) -> list:
    """The writer jobs ``(writer, args)`` in at most ``count`` shares: largest
    first, each to the lightest share so far (the first on a tie); empty
    shares are dropped."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for job in sorted(jobs, key=_size, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(job)
        loads[k] += _size(job)
    return [share for share in shares if share]
