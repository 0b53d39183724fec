"""Deterministic artifact writers: CSV grids, OBJ meshes, JSON reports.

Every file embeds the digest of the canonicalized configuration that
produced it, and identical configurations yield byte-identical files:
numbers are printed as ``"%.17g" % float(x)``, line endings are LF, and JSON
keys are sorted.  CSV and OBJ rows are formatted and written in blocks of
_BLOCK_ROWS rows; complex or text values raise TypeError.  The OBJ face rows
depend on the grid shape only, so their text is formatted once per shape and
reused.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

__all__ = ["canonical_digest", "write_csv_grid", "write_obj",
           "write_json_report"]

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
    flat = [np.ravel(c) for c in chart.mesh() + list(columns.values())]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config={digest}\n")
        fh.write(",".join([f"R{d + 1}" for d in range(chart.n)] + list(columns)) + "\n")
        fh.writelines(_format_rows(",".join(["%.17g"] * len(flat)) + "\n",
                                   np.column_stack(flat)))


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
