"""Deterministic artifact writers: CSV grids, OBJ meshes, JSON reports.

Every file embeds the digest of the canonicalized configuration that
produced it, and identical configurations yield byte-identical files:
numbers are printed as ``"%.17g" % float(x)``, line endings are LF, and JSON
keys are sorted.  CSV and OBJ rows are formatted and written in blocks of
_BLOCK_ROWS rows; complex or text values raise TypeError.  The OBJ face rows
depend on the grid shape only, so their text is formatted once per shape and
reused, and a CSV coordinate value is formatted once per axis sample.

``write_all`` runs a command's writer jobs.  Formatting holds the GIL, so a
second core can only help as a second process: given two or more workers it
forks up to ``workers - 1`` children in one go, where ``os.fork`` exists and
no other thread is alive, and splits the files, whole, between them and this
process.  Each file is still made by the same writer from the same arrays,
so its bytes do not depend on the split.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import traceback

import numpy as np

__all__ = ["canonical_digest", "write_csv_grid", "write_obj",
           "write_json_report", "write_all"]

# Rows per %-operation: amortizes the call, keeps a block's text small.
_BLOCK_ROWS = 4096


def canonical_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _format_rows(row: str, table: np.ndarray):
    """Yield the text of a 2-D table through the %-template ``row``, by block."""
    for block in np.split(table, range(_BLOCK_ROWS, len(table), _BLOCK_ROWS)):
        yield (row * len(block)) % tuple(block.ravel().tolist())


@functools.lru_cache(maxsize=4)
def _face_text(m1: int, m2: int) -> str:
    """The face rows of an m1 x m2 grid mesh; they depend on the shape only."""
    vid = np.arange(1, m1 * m2 + 1).reshape(m1, m2)
    p, q, r, s = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]
    faces = np.stack([p, p, q, q, r, r, p, p, r, r, s, s], axis=-1)
    return "".join(_format_rows(
        "f %d//%d %d//%d %d//%d\nf %d//%d %d//%d %d//%d\n",
        faces.reshape(-1, 12)))


def write_csv_grid(path, chart, columns: dict, digest: str) -> None:
    """Grid CSV: coordinate columns first, then named value columns.

    Rows run in row-major order over the grid; values use 17 significant
    digits so a re-read reproduces the doubles exactly.
    """
    vals = [np.ravel(c) for c in columns.values()]
    # one table in the dtype the values share with the coordinates, so that
    # integers print as doubles and complex or text values reach "%.17g"
    table = np.empty((chart.mesh()[0].size, len(vals)),
                     np.result_type(np.float64, *vals))
    for j, v in enumerate(vals):
        table[:, j] = v
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config={digest}\n")
        fh.write(",".join([f"R{d + 1}" for d in range(chart.n)] + list(columns)) + "\n")
        fh.writelines(_grid_rows(chart, table))


def _grid_rows(chart, table: np.ndarray):
    """Yield the CSV rows of ``table`` by block, each led by its grid point.

    A coordinate is the same double on every row that shares its axis
    index, so each axis sample is formatted once and its text goes into
    the %-template of the block; only the values are formatted per cell.
    A line of rows along the last axis is one ``lead`` (the text of the
    other coordinates) joined with the row templates of that axis.
    """
    texts = [["%.17g" % x for x in ax.tolist()] for ax in chart.axes()]
    rows = [t + ",%.17g" * table.shape[1] + "\n" for t in texts[-1]]
    leads = map("".join, itertools.product(
        *[[t + "," for t in ax] for ax in texts[:-1]]))
    per_block = max(1, _BLOCK_ROWS // len(rows))
    start = 0
    for group in iter(lambda: list(itertools.islice(leads, per_block)), []):
        for j in range(0, len(rows), _BLOCK_ROWS):
            part = rows[j:j + _BLOCK_ROWS]
            stop = start + len(group) * len(part)
            template = "".join([lead + lead.join(part) for lead in group])
            yield template % tuple(table[start:stop].ravel().tolist())
            start = stop


def write_obj(path, vertices, normals, digest: str) -> None:
    """Structured-grid quad mesh as OBJ, each quad split into two triangles.

    vertices and normals have shape (m1, m2, 3); vertex numbering is
    row-major and 1-based as OBJ requires.
    """
    m1, m2, _ = vertices.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config={digest}\n")
        fh.writelines(_format_rows("v %.17g %.17g %.17g\n",
                                   np.asarray(vertices).reshape(m1 * m2, 3)))
        fh.writelines(_format_rows("vn %.17g %.17g %.17g\n",
                                   np.asarray(normals).reshape(m1 * m2, 3)))
        fh.write(_face_text(m1, m2))


def write_json_report(path, report: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_all(jobs: list, workers: int) -> list:
    """Run the writer jobs ``(writer, args)``; return the paths they wrote.

    ``writer(*args)`` writes the file ``args[0]``.  With two or more
    ``workers``, two or more jobs, ``os.fork`` and no other thread alive,
    the jobs are dealt greedily by size (``_size``) into at most ``workers``
    shares of whole files; the first share is written here and each other
    one by a child forked for it, after stdout and stderr are flushed.  The
    children are always reaped: a failed child raises OSError, and an error
    here kills them first.  Otherwise the jobs run here in order.
    """
    paths = [args[0] for _, args in jobs]
    count = min(workers, len(jobs))
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        _run(jobs)
        return paths
    own, *others = _shares(jobs, count)
    sys.stdout.flush()
    sys.stderr.flush()
    pids = []
    try:
        for share in others:
            pid = os.fork()
            if pid == 0:
                _run_and_exit(share)
            pids.append(pid)
        _run(own)
    except BaseException:
        import signal  # only this path needs it; importing costs setup time
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for share, code in zip(others, codes):
        if code != 0:
            names = ", ".join(str(args[0]) for _, args in share)
            raise OSError(f"writing {names} failed in a child process "
                          f"(exit status {code})")
    return paths


def _size(job) -> int:
    """The values a job formats: the sizes of its array arguments and of the
    arrays in a dict argument (the CSV columns)."""
    arrays = []
    for a in job[1]:
        arrays += a.values() if isinstance(a, dict) else [a]
    return sum(a.size for a in arrays if isinstance(a, np.ndarray))


def _shares(jobs: list, count: int) -> list:
    """The jobs in at most ``count`` shares: largest first, each to the
    lightest share so far (the first on a tie); empty shares are dropped."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for job in sorted(jobs, key=_size, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(job)
        loads[k] += _size(job)
    return [share for share in shares if share]


def _run(jobs: list) -> None:
    for writer, args in jobs:
        writer(*args)


def _run_and_exit(jobs: list) -> None:
    """The body of a forked child: it never returns into its caller."""
    code = 1
    try:
        _run(jobs)
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
