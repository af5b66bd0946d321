"""File formats: count matrices (dense CSV), panels, coordinates, labels,
and latent matrices.

CSV conventions:
  * matrices: header row = gene ids, first column = cell/spot id
  * coordinates: header ``spot_id,x,y``
  * labels: header ``id,label``
  * latents: header ``id,z0,...,z{d-1}``

Floats are written as Python floats, which ``csv`` formats with ``repr``,
so files are deterministic and round-trip exactly. Matrices, coordinates,
labels, latents and edge lists are written through ``atomic_write``, so
they appear whole or not at all.
"""

import csv
import io
import os

import numpy as np

from .errors import DataError
from .preprocess import CountMatrix


def read_id_list(path):
    with open(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    if not ids:
        raise DataError(f"{path}: no ids found")
    return ids


def write_id_list(path, ids):
    with open(path, "w") as fh:
        for i in ids:
            fh.write(f"{i}\n")


def _read_csv_rows(path):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if row:
                yield lineno, row


def _finite(path, linenos, matrix):
    """``matrix`` unchanged when every value is finite; else DataError at the first bad line."""
    bad = ~np.isfinite(matrix)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"{path}:{linenos[r]}: non-finite value {matrix[r, c]!r} in column {c + 2}")
    return matrix


def read_counts_csv(path) -> CountMatrix:
    """Dense CSV: header = gene ids, first column = cell id, integer cells."""
    rows = _read_csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    col_ids = header[1:]
    if not col_ids:
        raise DataError(f"{path}:1: header has no gene columns")
    row_ids, data = [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        row_ids.append(row[0])
        try:
            data.append([int(v) for v in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer count: {exc}") from exc
    if not row_ids:
        raise DataError(f"{path}: no data rows")
    return CountMatrix(row_ids, col_ids, np.asarray(data, dtype=np.int64))


def write_counts_csv(path, m: CountMatrix):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + list(m.col_ids))
        writer.writerows([rid, *row] for rid, row in
                         zip(m.row_ids, m.counts.astype(np.int64, copy=False).tolist()))


def read_matrix_csv(path):
    """Dense float CSV in the count-matrix layout -> (row_ids, col_ids, matrix)."""
    rows = _read_csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    col_ids = header[1:]
    row_ids, data, linenos = [], [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        row_ids.append(row[0])
        linenos.append(lineno)
        try:
            data.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad number: {exc}") from exc
    if not row_ids:
        raise DataError(f"{path}: no data rows")
    return row_ids, col_ids, _finite(path, linenos, np.asarray(data, dtype=np.float64))


def write_matrix_csv(path, row_ids, col_ids, matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise DataError(f"matrix shape {matrix.shape} does not match ids")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id"] + list(col_ids))
    writer.writerows([rid, *row] for rid, row in zip(row_ids, matrix.tolist()))
    atomic_write(path, buf.getvalue())


def read_coords_csv(path):
    """Coordinates CSV with header spot_id,x,y -> (spot_ids, [n,2] array)."""
    rows = _read_csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if [h.strip() for h in header] != ["spot_id", "x", "y"]:
        raise DataError(f"{path}:1: expected header spot_id,x,y, got {header}")
    ids, xy, linenos = [], [], []
    for lineno, row in rows:
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        ids.append(row[0])
        linenos.append(lineno)
        try:
            xy.append([float(row[1]), float(row[2])])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
    return ids, _finite(path, linenos, np.asarray(xy, dtype=np.float64))


def write_coords_csv(path, spot_ids, coords):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["spot_id", "x", "y"])
    writer.writerows([rid, *xy] for rid, xy in
                     zip(spot_ids, np.asarray(coords, dtype=np.float64).tolist()))
    atomic_write(path, buf.getvalue())


def read_labels_csv(path):
    """Labels CSV with header id,label -> dict id -> label."""
    rows = _read_csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if [h.strip() for h in header] != ["id", "label"]:
        raise DataError(f"{path}:1: expected header id,label, got {header}")
    out = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        if row[0] in out:
            raise DataError(f"{path}:{lineno}: duplicate id {row[0]!r}")
        out[row[0]] = row[1]
    return out


def write_labels_csv(path, pairs):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "label"])
    for rid, label in pairs:
        writer.writerow([rid, label])
    atomic_write(path, buf.getvalue())


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
