"""Every file format of the package: CSV tables, JSON documents and id lists.

No other module opens a file for writing or parses CSV or JSON itself. Four
primitives carry every format:

  * ``read_table``: a CSV streamed row by row through a converter, each
    bad row reported as ``file:line``;
  * ``write_table``: a header and rows as CSV;
  * ``read_json`` / ``write_json``: one JSON object (indent 2, sorted keys,
    trailing newline).

CSV conventions:
  * matrices: header row = gene ids, first column = cell/spot id
  * coordinates: header ``spot_id,x,y``
  * labels: header ``id,label``
  * latents: header ``id,z0,...,z{d-1}``

Floats are written as Python floats, which ``csv`` formats with ``repr``,
so files are deterministic and round-trip exactly. Every file is written
through ``atomic_write``, so it appears whole or not at all.
"""

import csv
import io
import json
import os

import numpy as np

from .errors import DataError
from .preprocess import CountMatrix


def read_table(path, convert, header=None):
    """The CSV at ``path`` as ``(header, [convert(row), ...])``.

    Blank lines are skipped. Every row must have as many fields as the
    header, and a given ``header`` must match the file's (cells stripped).
    Each row is converted as soon as it is read, so the file's text is never
    held whole; a ``ValueError`` or ``OverflowError`` from ``convert``
    becomes a DataError naming ``path:line``.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    with fh:
        rows = ((lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row)
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        names = first[1]
        if header is not None and [h.strip() for h in names] != list(header):
            raise DataError(f"{path}:{first[0]}: expected header {','.join(header)}, got {names}")
        out = []
        for lineno, row in rows:
            if len(row) != len(names):
                raise DataError(f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}")
            try:
                out.append(convert(row))
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return names, out


def write_table(path, header, rows):
    """Write ``header`` and then ``rows`` as CSV through ``atomic_write``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def read_json(path):
    """The JSON object at ``path``.

    An unreadable file, bad JSON or a document that is not an object is a
    DataError naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def write_json(path, obj):
    """Write ``obj`` as JSON (indent 2, sorted keys, trailing newline) through ``atomic_write``."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_id_list(path):
    with open(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    if not ids:
        raise DataError(f"{path}: no ids found")
    return ids


def write_id_list(path, ids):
    atomic_write(path, "".join(f"{i}\n" for i in ids))


def _int_row(row):
    return row[0], np.array([int(v) for v in row[1:]], dtype=np.int64)


def _float_row(row):
    values = np.array([float(v) for v in row[1:]])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite value {row[bad[0] + 1]!r} in column {bad[0] + 2}")
    return row[0], values


def _stack(path, rows, dtype):
    """``[(id, values), ...]`` from ``read_table`` -> (ids, [n, d] array)."""
    if not rows:
        raise DataError(f"{path}: no data rows")
    ids, values = zip(*rows)
    return list(ids), np.array(values, dtype=dtype)


def read_counts_csv(path) -> CountMatrix:
    """Dense CSV: header = gene ids, first column = cell id, integer cells."""
    header, rows = read_table(path, _int_row)
    if len(header) < 2:
        raise DataError(f"{path}:1: header has no gene columns")
    row_ids, counts = _stack(path, rows, np.int64)
    return CountMatrix(row_ids, header[1:], counts)


def write_counts_csv(path, m: CountMatrix):
    write_table(path, ["id"] + list(m.col_ids),
                ([rid, *row] for rid, row in
                 zip(m.row_ids, m.counts.astype(np.int64, copy=False).tolist())))


def read_matrix_csv(path):
    """Dense float CSV in the count-matrix layout -> (row_ids, col_ids, matrix)."""
    header, rows = read_table(path, _float_row)
    row_ids, matrix = _stack(path, rows, np.float64)
    return row_ids, header[1:], matrix


def write_matrix_csv(path, row_ids, col_ids, matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise DataError(f"matrix shape {matrix.shape} does not match ids")
    write_table(path, ["id"] + list(col_ids),
                ([rid, *row] for rid, row in zip(row_ids, matrix.tolist())))


def read_coords_csv(path):
    """Coordinates CSV with header spot_id,x,y -> (spot_ids, [n,2] array)."""
    _, rows = read_table(path, _float_row, header=("spot_id", "x", "y"))
    return _stack(path, rows, np.float64)


def write_coords_csv(path, spot_ids, coords):
    write_table(path, ["spot_id", "x", "y"],
                ([rid, *xy] for rid, xy in
                 zip(spot_ids, np.asarray(coords, dtype=np.float64).tolist())))


def read_labels_csv(path):
    """Labels CSV with header id,label -> dict id -> label."""
    out = {}

    def add(row):
        if row[0] in out:
            raise ValueError(f"duplicate id {row[0]!r}")
        out[row[0]] = row[1]

    read_table(path, add, header=("id", "label"))
    return out


def write_labels_csv(path, pairs):
    write_table(path, ["id", "label"], pairs)


def read_latent_csv(path):
    """Latent CSV with header id,z0..z{d-1} -> (ids, [n,d] array)."""
    row_ids, col_ids, mat = read_matrix_csv(path)
    if not all(c.startswith("z") for c in col_ids):
        raise DataError(f"{path}: expected latent columns z0..z{{d-1}}, got {col_ids[:3]}...")
    return row_ids, mat


def write_latent_csv(path, row_ids, codes):
    codes = np.asarray(codes, dtype=np.float64)
    cols = [f"z{j}" for j in range(codes.shape[1])]
    write_matrix_csv(path, row_ids, cols, codes)


def write_edge_list(path, edges):
    """Debug export: one ``i j`` pair per line."""
    atomic_write(path, "".join(f"{i} {j}\n" for i, j in edges))


def atomic_write(path, data):
    """Write ``data`` (str or bytes) to ``path`` through a temporary file and a rename.

    A crash or a failed write leaves the previous file (or none) in place,
    never a partial one; ``newline=""`` writes a text's line endings as given.
    """
    tmp = f"{path}.tmp"
    if isinstance(data, bytes):
        with open(tmp, "wb") as fh:
            fh.write(data)
    else:
        with open(tmp, "w", newline="") as fh:
            fh.write(data)
    os.replace(tmp, path)
