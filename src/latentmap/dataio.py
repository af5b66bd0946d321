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

Numeric tables (counts, matrices, latents, coordinates) take a vectorized
path. Their writers write each float as ``%.17g``: 17 significant digits
name every IEEE double exactly, so files are deterministic and round-trip
bit for bit (``0.1`` is written ``0.10000000000000001``, ``3.0`` as ``3``,
``-0.0`` as ``-0``). The texts are made with array arithmetic, byte for byte
those of ``'%.17g' % x``, in row blocks of at most 8192 values: a finite
value that ``%g`` writes in fixed notation (decimal exponent -4 to 16) has
its 17 digits rounded exactly by an error-free product (``_decimal``), and
every other value (±0, nan, ±inf, |x| < 1e-4 or >= 1e17) is written by
``'%.17g' % x`` itself. Integer counts are written as ``str`` writes them:
each row indexes one object array of the texts ``str(0) .. str(B - 1)``,
built once per file with B = min(max + 1, 4096), and the few counts of B or
more are patched with ``str``. Only the id cell is quoted, with the bytes
``csv`` would write. A file in the canonical form these writers emit is
parsed by ``np.loadtxt``, counts a block of rows at a time, each block
narrowed as it is read; any other file goes through ``read_table``, which
gives the same values and the same errors. ``write_table`` (histories, ``bench``
tables) is the exception: it writes floats with ``repr``, as ``csv`` writes
Python floats. Text is UTF-8. Every file is written through a temporary file
and a rename, so it appears whole or not at all.
"""

import contextlib
import csv
import io
import itertools
import json
import os
import re

import numpy as np

from .errors import DataError, DependencyError
from .preprocess import CountMatrix, GenePanel, first_duplicate

# The characters of a field after the first in a canonical numeric table, on
# which np.loadtxt and int()/float() accept the same strings with the same
# values. Outside them loadtxt is laxer: it takes \x1c-\x1f and some
# non-ASCII characters next to a number, which int() and float() reject.
_NUMBER_BYTES = b"0123456789+-.eE,"

# A cell holding none of these is written by csv (QUOTE_MINIMAL) as it is.
_CSV_SPECIAL = re.compile('[,"\r\n]')

# Counts below this take their text from a table of ``str(0) ..`` built per
# write; the rare larger ones (real UMI data has some) are patched with ``str``.
_COUNT_TABLE_BOUND = 1 << 12

# A numeric table is formatted this many values at a time (or one row, if a
# row is longer). The float formatter's working arrays grow with the block:
# writing a 1000 x 2000 matrix peaked at 1.5 MiB (tracemalloc), 2.8 MiB with
# twice the block, and half the block cost about 4% more time.
_BLOCK_VALUES = 1 << 13

# A canonical count table is parsed this many values at a time (or one row),
# each block narrowed as it is read: 32 rows of the README corpus's 2000
# genes. A block is one np.loadtxt call, so smaller blocks slow the parse
# (4-row blocks by about a quarter).
_PARSE_BLOCK_VALUES = 1 << 16

# 10**k is an exact double for k <= 22 (5**22 < 2**53), so each product of
# the cumulative product is exact.
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_VELTKAMP = 2.0 ** 27 + 1

# A float's text is laid out in a field of _FIELD_WIDTH bytes, five uint64
# words, and the NUL bytes are deleted when a block is joined, so one layout
# serves every exponent x in [-4, 16]: bytes 0-5 hold the sign and, below 1,
# "0." and -x - 1 zeros; byte 6 + 2i holds digit i of the 17, and byte 7 + 2i
# the point if it follows digit i; byte 39 takes the comma or newline.
_FIELD_WIDTH = 40


def _format_tables():
    """The float formatter's lookup tables, built with array operations.

    * ``digits[q]``, for q in 0000 .. 9999: q's four digits, each followed
      by a NUL, as one uint64; ``digits[10000 + q]`` holds only q's last
      digit, where the leading digit of the 17 goes;
    * ``zeros[q]``: q's trailing decimal zeros (four for 0000);
    * ``pattern[(x + 4) * 2 + sign]``: the sign, ``0.`` and zeros, and the
      point of a text with exponent x, one field each;
    * ``keep[k]``: 0xff on the bytes of a text whose last digit is digit k,
      and 0 past them, one field each.
    """
    q = np.arange(10000, dtype=np.uint16)[:, None]
    digits = np.zeros((2, 10000, 8), dtype=np.uint8)
    digits[0, :, 0::2] = q // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
    digits[1, :, 6:7] = q % 10 + ord("0")
    zeros = (q % np.array([10, 100, 1000, 10000], dtype=np.uint16) == 0).sum(axis=1, dtype=np.uint8)
    c = np.arange(_FIELD_WIDTH)
    x = np.arange(-4, 17).repeat(2)[:, None]
    neg = np.arange(42)[:, None] % 2 == 1
    pattern = np.select(
        [neg & (c == 0), (x < 0) & ((c == 1) | ((c >= 3) & (c <= 1 - x))),
         ((x < 0) & (c == 2)) | ((x >= 0) & (c == 7 + 2 * x))],
        [ord("-"), ord("0"), ord(".")], 0)
    keep = np.where(c < 7 + 2 * np.arange(17)[:, None], 0xFF, 0)
    return (digits.view(np.uint64).ravel(), zeros,
            *(t.astype(np.uint8).view(f"V{_FIELD_WIDTH}").ravel() for t in (pattern, keep)))


_DIGITS8, _TRAILING_ZEROS4, _PATTERN, _KEEP = _format_tables()


@contextlib.contextmanager
def _text_input(path):
    """``path`` open as UTF-8 text; an OSError or a non-UTF-8 byte becomes a DataError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def read_table(path, convert, header=None):
    """The CSV at ``path`` as ``(header, [convert(row), ...])``.

    Blank lines are skipped. Every row must have as many fields as the
    header, and a given ``header`` must match the file's (cells stripped).
    Each row is converted as soon as it is read, so the file's text is never
    held whole; a ``ValueError`` or ``OverflowError`` from ``convert``
    becomes a DataError naming ``path:line``.
    """
    with _text_input(path) as fh:
        reader = csv.reader(fh)
        rows = ((lineno, row) for lineno, row in enumerate(reader, start=1) if row)
        try:
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            names = first[1]
            if header is not None and [h.strip() for h in names] != list(header):
                raise DataError(f"{path}:{first[0]}: expected header {','.join(header)}, "
                                f"got {names}")
            out = []
            for lineno, row in rows:
                if len(row) != len(names):
                    raise DataError(f"{path}:{lineno}: expected {len(names)} fields, "
                                    f"got {len(row)}")
                try:
                    out.append(convert(row))
                except (ValueError, OverflowError) as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return names, out


@contextlib.contextmanager
def _atomic_file(path, binary=False):
    """A temporary file beside ``path`` that replaces ``path`` once the block succeeds.

    If the block or the rename fails, the temporary file is removed and
    ``path`` keeps its previous content (or stays absent); an OSError (say,
    a missing directory) becomes a DataError naming ``path``.
    """
    tmp = f"{path}.tmp"
    try:
        with (open(tmp, "wb") if binary else
              open(tmp, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc
        raise


def make_dirs(path):
    """``os.makedirs(path, exist_ok=True)``; a path that cannot be a directory is a DataError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot create directory: {exc.strerror or exc}") from exc


def remove_file(path):
    """Remove ``path`` if it exists; any other OSError is a DataError naming it."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise DataError(f"{path}: cannot remove: {exc.strerror or exc}") from exc


def write_table(path, header, rows):
    """Write ``header`` and then ``rows`` as CSV, streamed into a temporary file."""
    with _atomic_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def read_bytes(path):
    """The bytes of the file at ``path``, read in one call.

    A missing file is a DependencyError; any other OSError (a directory, a
    file that cannot be read) is a DataError naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DependencyError(f"missing file: {path}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def write_json(path, obj):
    """Write ``obj`` as JSON (indent 2, sorted keys, trailing newline) through ``atomic_write``."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_id_list(path):
    with _text_input(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    if not ids:
        raise DataError(f"{path}: no ids found")
    return ids


def read_panel(path) -> GenePanel:
    """The gene panel in the id list at ``path``; a repeated gene is a DataError naming the file."""
    try:
        return GenePanel(read_id_list(path))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


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


def _canonical_ids(path, header):
    """``(header cells, row ids)`` of the numeric table at ``path`` if it is canonical, else None.

    Canonical is the form the numeric writers emit. On it ``csv`` splits each
    line at its commas and nothing else, and ``np.loadtxt`` reads the values
    that ``int`` or ``float`` would:
      * every line ends in ``\\n`` and holds no ``"``, ``\\r`` or NUL, and no
        field longer than ``csv.field_size_limit()``;
      * the first line is the header, with at least one comma, and matches
        ``header`` (cells stripped) when one is given;
      * every later line has as many commas as the header, and its fields
        after the first hold only ``_NUMBER_BYTES``;
      * there is at least one such line.
    A file that cannot be read or is not UTF-8 is not canonical either.
    """
    limit = csv.field_size_limit()

    def plain(line):
        return (line.endswith(b"\n") and b'"' not in line and b"\r" not in line
                and b"\0" not in line
                and (len(line) <= limit or max(map(len, line.split(b","))) <= limit))

    try:
        with open(path, "rb") as fh:
            top = fh.readline()
            if not plain(top):
                return None
            names = top[:-1].decode("utf-8").split(",")
            if len(names) < 2 or (header is not None
                                  and [h.strip() for h in names] != list(header)):
                return None
            ids = []
            for line in fh:
                cut = line.find(b",")
                if (cut < 0 or not plain(line) or line.count(b",") != len(names) - 1
                        or line[cut + 1:].translate(None, _NUMBER_BYTES) != b"\n"):
                    return None
                ids.append(line[:cut].decode("utf-8"))
    except (OSError, UnicodeDecodeError):
        return None
    return (names, ids) if ids else None


def _parse_narrow(path, n_fields):
    """The integers of the canonical table at ``path``, parsed a block of rows at a time.

    Each block is parsed as int64 by ``np.loadtxt`` and kept in the narrowest
    dtype that holds its values, so the int64 parse of the whole table never
    exists; joining the blocks promotes them to a dtype that holds them all.
    """
    step = max(1, _PARSE_BLOCK_VALUES // (n_fields - 1))
    blocks = []
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()
        while lines := list(itertools.islice(fh, step)):
            block = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None,
                               usecols=range(1, n_fields), ndmin=2)
            blocks.append(block.astype(np.result_type(np.min_scalar_type(block.min()),
                                                      np.min_scalar_type(block.max()))))
    return np.concatenate(blocks)


def _read_numeric(path, convert, dtype, header=None, min_fields=1):
    """``(header cells, row ids, [n, d] values)`` of a numeric table.

    A canonical file (see ``_canonical_ids``) is parsed by ``np.loadtxt``
    straight from ``path``, integers a block of rows at a time
    (``_parse_narrow``). Any other file, or one whose block loadtxt
    rejects or finds non-finite, goes through ``read_table`` with
    ``convert``, which accepts the same files with the same values and names
    every error's line. There a header of fewer than ``min_fields`` cells is
    an error once the rows have been read.
    """
    found = _canonical_ids(path, header)
    if found is not None:
        names, ids = found
        try:
            if np.dtype(dtype).kind == "i":
                values = _parse_narrow(path, len(names))
            else:
                values = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                                    usecols=range(1, len(names)), ndmin=2, encoding="utf-8")
        except (ValueError, OverflowError):
            pass
        else:
            if (values.shape == (len(ids), len(names) - 1)
                    and (values.dtype.kind != "f" or np.isfinite(values).all())):
                return names, ids, values
    names, rows = read_table(path, convert, header)
    if len(names) < min_fields:
        raise DataError(f"{path}:1: header has no gene columns")
    return (names, *_stack(path, rows, dtype))


def _csv_cell(cell):
    """``cell`` as ``csv`` writes it as one field of a row of several."""
    if isinstance(cell, str) and not _CSV_SPECIAL.search(cell):
        return cell
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([cell, ""])
    return buf.getvalue()[:-2]


def _write_numeric(path, header, row_ids, values, format_rows):
    """Write ``header``, then per id the id and its row of ``values`` as ``format_rows`` gives it.

    ``format_rows`` takes a block of rows, ``_BLOCK_VALUES`` values or one
    row, and returns each row's fields joined by commas. The id cell gets
    ``csv``'s quoting. A row of one field is left to ``write_table``, as
    ``csv`` quotes an empty one.
    """
    if values.shape != (len(row_ids), len(header) - 1):
        raise DataError(f"matrix shape {values.shape} does not match ids")
    if len(header) == 1:
        return write_table(path, header, ([rid] for rid in row_ids))
    step = max(1, _BLOCK_VALUES // values.shape[1])
    with _atomic_file(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, len(row_ids), step):
            texts = format_rows(values[start:start + step])
            fh.write("".join(f"{_csv_cell(rid)},{text}\n"
                             for rid, text in zip(row_ids[start:start + step], texts)))


def _split(a):
    """Veltkamp's split: (high, low) of at most 26 significant bits each, summing to ``a``."""
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _scaled(a, k):
    """``(p, e)``: p = fl(a * 10**k) and p + e == a * 10**k exactly (Dekker's two-product)."""
    ah, al = _split(a)
    bh, bl = _POW10_HIGH[k], _POW10_LOW[k]
    p = a * _POW10[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _outside(p, e):
    """``(below, above)``: whether p + e < 10**16, and whether p + e >= 10**17."""
    return (p < 1e16) | ((p == 1e16) & (e < 0)), (p > 1e17) | ((p == 1e17) & (e >= 0))


def _decimal(v):
    """``(exact, x, d)``: each value of ``v`` as ±d * 10**(x - 16), 10**16 <= d < 10**17.

    d holds the 17 significant digits ``%.17g`` writes and x its exponent,
    for the finite values where x lies in [-4, 16] (``exact``), the ones
    ``%g`` writes in fixed notation. With k = 16 - x, |v| * 10**k lies in
    [10**16, 10**17), so its double p is an even integer (at least 2**53) and
    p + e (``_scaled``) is exact: d = p + rint(e) is |v| * 10**k rounded half
    to even, as CPython's dtoa rounds. x starts from log10, which is off by
    at most one, and moves where p + e falls outside. d never rounds up to
    10**17: no double lies within half a unit of the 17th digit below a power
    of ten from 1e-4 to 1e17, so rounding never carries into x + 1. Where
    ``exact`` is False, x is 0 and d is of no use.
    """
    a = np.abs(v)
    exact = np.isfinite(a)
    a[~exact] = 1.0
    exact &= (a >= 1e-4) & (a < 1e17)
    a[~exact] = 1.0
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, e = _scaled(a, 16 - x)
    below, above = _outside(p, e)
    moved = np.flatnonzero(below | above)
    if moved.size:
        x[moved] += above[moved].astype(np.intp) - below[moved]
        inside = (x[moved] >= -4) & (x[moved] <= 16)
        exact[moved[~inside]] = False
        redo = moved[inside]
        p[redo], e[redo] = _scaled(a[redo], 16 - x[redo])
        below, above = _outside(p[redo], e[redo])
        exact[redo[below | above]] = False
    x[~exact] = 0
    return exact, x, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _fixed_fields(v):
    """``(exact, fields)``: the ``%.17g`` text of each value ``_decimal`` gives exactly.

    ``fields`` holds one ``_FIELD_WIDTH``-byte item per value of ``v`` (see
    ``_FIELD_WIDTH``); the items of the other values are of no use. Digit i
    is kept up to the last digit of the integer part or the last nonzero
    digit, whichever comes later, so trailing fractional zeros and a bare
    point are NUL.
    """
    exact, x, d = _decimal(v)
    quads = np.empty((len(v), 5), dtype=np.intp)  # d in base 10000, most significant first
    for j in range(4, 0, -1):
        q = d // 10000
        quads[:, j] = d - q * 10000
        d = q
    quads[:, 0] = d + 10000
    zeros = _TRAILING_ZEROS4.take(quads[:, 1])
    for j in range(2, 5):
        z = _TRAILING_ZEROS4.take(quads[:, j])
        zeros = z + (z == 4) * zeros
    fields = _DIGITS8.take(quads)
    fields |= _PATTERN.take((x + 4) * 2 + np.signbit(v)).view(np.uint64).reshape(-1, 5)
    fields &= _KEEP.take(np.maximum(x, 16 - zeros)).view(np.uint64).reshape(-1, 5)
    return exact, fields.view(f"V{_FIELD_WIDTH}").ravel()


def _float_rows(block):
    """Each row of the float64 ``block`` as its ``'%.17g' % x`` fields joined by commas.

    The values ``_decimal`` gives exactly take ``_fixed_fields``. Every other
    value (±0, nan, ±inf, |x| < 1e-4 or >= 1e17, where ``%g`` writes an
    exponent) is written by ``'%.17g' % x``. Each field ends in a comma, or
    a newline at the end of a row, and the NUL bytes are dropped.
    """
    v = block.ravel()
    exact, fields = _fixed_fields(v)
    slow = np.flatnonzero(~exact)
    fields[slow] = np.array([("%.17g" % f).encode() for f in v[slow].tolist()],
                            dtype=f"S{_FIELD_WIDTH}").view(fields.dtype)
    fields = fields.view(np.uint8).reshape(len(v), _FIELD_WIDTH)
    fields[:, -1] = ord(",")
    fields[block.shape[1] - 1::block.shape[1], -1] = ord("\n")
    return fields.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _write_floats(path, header, row_ids, values):
    """``_write_numeric`` of ``values`` as float64, every value as ``%.17g``."""
    _write_numeric(path, header, row_ids, np.asarray(values, dtype=np.float64), _float_rows)


def read_counts_csv(path) -> CountMatrix:
    """Dense CSV: header = gene ids, first column = cell id, integer cells."""
    header, row_ids, counts = _read_numeric(path, _int_row, np.int64, min_fields=2)
    try:
        return CountMatrix(row_ids, header[1:], counts)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_counts_csv(path, m: CountMatrix):
    """Write ``m`` in the layout ``read_counts_csv`` reads, each count as ``str`` writes it.

    The rows are read in the counts' own dtype: no widened copy is made.
    """
    top = int(m.counts.max()) if m.counts.size else 0
    texts = np.array([str(v) for v in range(min(top + 1, _COUNT_TABLE_BOUND))], dtype=object)
    last = len(texts) - 1

    def format_row(row):  # counts are >= 0: CountMatrix checks
        cells = texts.take(row, mode="clip")
        if top > last:
            beyond = np.flatnonzero(row > last)
            cells[beyond] = [str(v) for v in row[beyond].tolist()]
        return ",".join(cells.tolist())

    _write_numeric(path, ["id"] + list(m.col_ids), m.row_ids, m.counts,
                   lambda block: map(format_row, block))


def read_matrix_csv(path):
    """Dense float CSV in the count-matrix layout -> (row_ids, col_ids, matrix)."""
    header, row_ids, matrix = _read_numeric(path, _float_row, np.float64)
    return row_ids, header[1:], matrix


def write_matrix_csv(path, row_ids, col_ids, matrix):
    _write_floats(path, ["id"] + list(col_ids), row_ids, matrix)


def read_coords_csv(path):
    """Coordinates CSV with header spot_id,x,y -> (spot_ids, [n,2] array)."""
    _, spot_ids, coords = _read_numeric(path, _float_row, np.float64,
                                        header=("spot_id", "x", "y"))
    return spot_ids, coords


def check_spot_ids(counts_path, counts_ids, coords_path, coords_ids):
    """A DataError naming both files and the first row where their spot ids differ, if any."""
    if counts_ids == coords_ids:
        return
    row = next((i for i, (a, b) in enumerate(zip(counts_ids, coords_ids)) if a != b),
               min(len(counts_ids), len(coords_ids)))
    at = lambda ids: repr(ids[row]) if row < len(ids) else "no row"
    raise DataError(f"{counts_path} and {coords_path} disagree on spot ids: data row {row + 1} "
                    f"is {at(counts_ids)} in the first and {at(coords_ids)} in the second")


def write_coords_csv(path, spot_ids, coords):
    _write_floats(path, ["spot_id", "x", "y"], spot_ids, coords)


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
    dup = first_duplicate(row_ids)
    if dup is not None:
        raise DataError(f"{path}: duplicate id {dup!r}")
    return row_ids, mat


def write_latent_csv(path, row_ids, codes):
    codes = np.asarray(codes, dtype=np.float64)
    cols = [f"z{j}" for j in range(codes.shape[1])]
    write_matrix_csv(path, row_ids, cols, codes)


def write_edge_list(path, edges):
    """[m, 2] ``edges`` as one ``i j`` line each; the benchmark's edge-AUC check reads it back."""
    atomic_write(path, "".join(f"{i} {j}\n" for i, j in edges.tolist()))


def atomic_write(path, data):
    """Write ``data`` (str or bytes) to ``path`` through a temporary file and a rename.

    A crash or a failed write leaves the previous file (or none) in place,
    never a partial one; a text is written as UTF-8 with its line endings as
    given.
    """
    with _atomic_file(path, binary=isinstance(data, bytes)) as fh:
        fh.write(data)
