import csv
import io

import numpy as np
import pytest
from conftest import traced_peak

from latentmap import dataio
from latentmap.errors import DataError
from latentmap.preprocess import CountMatrix


def test_counts_csv_round_trip(tmp_path):
    m = CountMatrix(["c0", "c1"], ["gA", "gB", "gC"], [[0, 2, 5], [1, 0, 0]])
    path = tmp_path / "counts.csv"
    dataio.write_counts_csv(path, m)
    back = dataio.read_counts_csv(path)
    assert back.row_ids == m.row_ids and back.col_ids == m.col_ids
    assert np.array_equal(back.counts, m.counts)


def test_counts_csv_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,g0,g1\nc0,1,2\nc1,x,3\n")
    with pytest.raises(DataError, match=r"bad.csv:3"):
        dataio.read_counts_csv(path)


def test_counts_csv_count_beyond_int64_reports_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"id,g0,g1\nc0,1,2\nc1,{2 ** 64},3\n")
    with pytest.raises(DataError, match=r"big.csv:3"):
        dataio.read_counts_csv(path)


def test_counts_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,g0,g1\nc0,1\n")
    with pytest.raises(DataError, match=r"ragged.csv:2"):
        dataio.read_counts_csv(path)


def test_atomic_write_failed_rename_keeps_old_target(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    dataio.atomic_write(path, "old\n")
    assert path.read_text() == "old\n"

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(dataio.os, "replace", fail)
    with pytest.raises(DataError) as err:
        dataio.write_matrix_csv(path, ["c0"], ["g0"], [[1.5]])
    assert str(err.value) == f"{path}: cannot write: disk full"
    assert path.read_text() == "old\n"
    assert not (tmp_path / "m.csv.tmp").exists()


def test_matrix_csv_float_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 3))
    path = tmp_path / "m.csv"
    dataio.write_matrix_csv(path, ["r0", "r1", "r2", "r3"], ["a", "b", "c"], mat)
    _, _, back = dataio.read_matrix_csv(path)
    assert np.array_equal(back, mat)  # bitwise, via the 17-digit round-trip


def test_float_writers_round_trip_every_bit_pattern(tmp_path, monkeypatch):
    # random bit patterns plus the edges: signed zeros, subnormals, the
    # normal/subnormal boundary, the largest doubles and short decimals
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0),
             np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.1, 1 / 3, 3.0,
             1e16, 1e17, 2.0 ** 53 + 2, 1e-7, 123456789.125]
    bits = np.random.default_rng(7).integers(0, 1 << 64, size=20_000, dtype=np.uint64)
    values = np.concatenate([edges, bits.view(np.float64)])
    values = values[np.isfinite(values)]
    values = np.resize(values, (len(values) // 10, 10))
    ids = [f"r{i}" for i in range(len(values))]
    matrix, coords, latent = (tmp_path / name for name in ("m.csv", "c.csv", "z.csv"))
    dataio.write_matrix_csv(matrix, ids, [f"g{j}" for j in range(10)], values)
    dataio.write_coords_csv(coords, ids, values[:, :2])
    dataio.write_latent_csv(latent, ids, values)

    def row_by_row(*args, **kwargs):
        raise AssertionError("a file the writers emit must take the np.loadtxt path")

    monkeypatch.setattr(dataio, "read_table", row_by_row)
    for back, want in ((dataio.read_matrix_csv(matrix)[2], values),
                       (dataio.read_coords_csv(coords)[1], values[:, :2]),
                       (dataio.read_latent_csv(latent)[1], values)):
        assert np.array_equal(back.view(np.int64), want.view(np.int64))  # bit for bit
    monkeypatch.undo()

    # nan and inf are written as repr writes them and read back row by row,
    # where the float readers refuse them with the line
    dataio.write_matrix_csv(matrix, ["a", "b"], ["x", "y"], [[np.nan, 1.0], [np.inf, -np.inf]])
    assert matrix.read_bytes() == b"id,x,y\na,nan,1\nb,inf,-inf\n"
    assert dataio._canonical_ids(matrix, None) is None
    _, rows = dataio.read_table(matrix, lambda row: [float(v) for v in row[1:]])
    assert np.array_equal(rows, [[np.nan, 1.0], [np.inf, -np.inf]], equal_nan=True)
    with pytest.raises(DataError, match=r"m.csv:2: non-finite value 'nan' in column 2"):
        dataio.read_matrix_csv(matrix)


def _formatter_cases(rng):
    """Over 10**6 seeded float64 values on which a %.17g text is easy to get wrong."""
    big = np.finfo(np.float64).max
    powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
    neighbours, up, down = [powers], powers, powers
    # 1 and 2 ulps either side of each power of ten: the doubles just below one are
    # the only ones whose 17 digits could round up into the next decade
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        neighbours += [up, down]
    neighbours = np.concatenate(neighbours)
    # odd m / 2**j, most with 18 significant digits, the last a 5: exact ties in the 17th
    j = rng.integers(2, 40, size=200_000)
    low = np.ldexp(10.0 ** (17 - j), j)
    m = np.floor(low + rng.random(j.size) * (np.minimum(10 * low, 2.0 ** 53) - low))
    ties = np.ldexp(m + (m % 2 == 0), -j)
    return np.concatenate([
        rng.integers(0, 1 << 64, size=300_000, dtype=np.uint64).view(np.float64),  # nan, inf, subnormals
        rng.normal(size=200_000),
        rng.choice([-1.0, 1.0], 200_000) * np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 200_000)),
        neighbours, -neighbours,
        rng.integers(0, 1 << 60, size=100_000).astype(np.float64),
        ties, -ties,
        [0.0, -0.0, big, -big, np.nan, np.inf, -np.inf, 1e-4, 1e17],
    ])


def _percent_17g_bytes(header, ids, values, texts):
    """A numeric table's bytes with each value's text from ``texts``, in row order."""
    width = values.shape[1]
    rows = (",".join([ids[i], *texts[i * width:(i + 1) * width]]) for i in range(len(values)))
    return "".join(f"{line}\n" for line in [",".join(header), *rows]).encode()


def test_float_writers_write_percent_17g_bytes(tmp_path):
    # every float writer against '%.17g' % x, value by value
    values = _formatter_cases(np.random.default_rng(11))
    assert values.size > 10 ** 6
    values = values[:values.size // 10 * 10]
    texts = ["%.17g" % x for x in values.tolist()]
    matrix, coords = values.reshape(-1, 10), values.reshape(-1, 2)
    cols, ids = [f"g{j}" for j in range(10)], [f"r{i}" for i in range(len(coords))]
    path = tmp_path / "t.csv"
    dataio.write_matrix_csv(path, ids[:len(matrix)], cols, matrix)
    assert path.read_bytes() == _percent_17g_bytes(["id"] + cols, ids, matrix, texts)
    dataio.write_latent_csv(path, ids[:len(matrix)], matrix)
    assert path.read_bytes() == _percent_17g_bytes(["id"] + [f"z{j}" for j in range(10)],
                                                   ids, matrix, texts)
    dataio.write_coords_csv(path, ids, coords)
    assert path.read_bytes() == _percent_17g_bytes(["spot_id", "x", "y"], ids, coords, texts)
    # a table with no value the array arithmetic writes
    none = np.array([[0.0, -0.0, np.nan], [np.inf, 1e-300, -1e17]])
    dataio.write_matrix_csv(path, ["a", "b"], ["x", "y", "z"], none)
    assert path.read_bytes() == _percent_17g_bytes(["id", "x", "y", "z"], ["a", "b"], none,
                                                   ["%.17g" % x for x in none.ravel().tolist()])


def test_matrix_csv_deterministic_bytes(tmp_path):
    mat = np.array([[1.0 / 3.0, 2.0], [np.pi, -0.0]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataio.write_matrix_csv(p1, ["r0", "r1"], ["x", "y"], mat)
    dataio.write_matrix_csv(p2, ["r0", "r1"], ["x", "y"], mat)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_writers_golden_bytes(tmp_path):
    # every float as %.17g, csv quoting of awkward ids, exact big ints
    mat = np.array([[-0.0, 0.1], [5e-324, 1e300]])
    path = tmp_path / "m.csv"
    dataio.write_matrix_csv(path, ["a,b", 'say "hi"'], ["x", "y"], mat)
    assert path.read_bytes() == (b'id,x,y\n'
                                 b'"a,b",-0,0.10000000000000001\n'
                                 b'"say ""hi""",4.9406564584124654e-324,'
                                 b'1.0000000000000001e+300\n')
    counts = CountMatrix(["c,1", 'q"2'], ["g0", "g1"], [[0, 2 ** 53 + 1], [7, 12345678901234]])
    path = tmp_path / "counts.csv"
    dataio.write_counts_csv(path, counts)
    assert path.read_bytes() == (b'id,g0,g1\n'
                                 b'"c,1",0,9007199254740993\n'
                                 b'"q""2",7,12345678901234\n')
    # counts below 4096 come from a table of texts, the rest are patched with str: same bytes
    assert dataio._COUNT_TABLE_BOUND == 4096
    for row, text in (([0, 4095], b"0,4095"), ([0, 4096], b"0,4096"),
                      ([4095, 4096], b"4095,4096"), ([0, 2 ** 53 + 1], b"0,9007199254740993")):
        dataio.write_counts_csv(path, CountMatrix(["c"], ["g0", "g1"], [row]))
        assert path.read_bytes() == b"id,g0,g1\nc," + text + b"\n"
    path = tmp_path / "coords.csv"
    dataio.write_coords_csv(path, ["s,0"], [[-0.0, 0.1]])
    assert path.read_bytes() == b'spot_id,x,y\n"s,0",-0,0.10000000000000001\n'
    # an empty id stays unquoted in a row of several fields, a leading space is kept
    path = tmp_path / "ids.csv"
    dataio.write_matrix_csv(path, ["", " lead", "two\nlines"], ["x", "y"],
                            [[1.5, -2.0], [0.0, 1e-7], [3.0, 1e16]])
    assert path.read_bytes() == (b'id,x,y\n,1.5,-2\n lead,0,9.9999999999999995e-08\n'
                                 b'"two\nlines",3,10000000000000000\n')
    dataio.write_counts_csv(path, CountMatrix(["", " s", "a\nb"], ["g0"], [[1], [2], [3]]))
    assert path.read_bytes() == b'id,g0\n,1\n s,2\n"a\nb",3\n'
    # a row of one field: csv quotes an empty one
    dataio.write_matrix_csv(path, ["", "a"], [], np.zeros((2, 0)))
    assert path.read_bytes() == b'id\n""\na\n'


def _counts_reference_bytes(m):
    """``m`` as csv writes its ids and ``str`` each count: the bytes ``write_counts_csv`` owes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id"] + m.col_ids)
    writer.writerows([rid] + list(map(str, row))
                     for rid, row in zip(m.row_ids, m.counts.tolist()))
    return buf.getvalue().encode()


def _counts_case(name):
    rng = np.random.default_rng(12)
    if name == "every_count_to_5000":
        counts = rng.permutation(5004).reshape(6, 834)
        return CountMatrix([f"c{i}" for i in range(6)], [f"g{j}" for j in range(834)], counts)
    if name == "table_and_beyond":  # poisson-lognormal rows, a few counts past the table
        counts = rng.poisson(np.exp(rng.normal(1.0, 1.5, size=(7, 50))))
        counts[1, 3], counts[1, 40], counts[4, 0] = 4096, 5000, 2 ** 53 + 1
        counts[6] = 4095
        counts[6, ::5] = 10 ** 12
        return CountMatrix([f"c{i}" for i in range(7)], [f"g{j}" for j in range(50)], counts)
    if name == "only_beyond":
        return CountMatrix(["c0", "c1"], ["g0", "g1"], [[5000, 4096], [4097, 10 ** 9]])
    if name == "all_zero":
        return CountMatrix(["c0", "c1"], ["g0", "g1", "g2"], np.zeros((2, 3), dtype=np.int64))
    if name == "quoted_ids":
        ids = ["a,b", 'say "hi"', "", " lead", "two\nlines"]
        counts = rng.integers(0, 9000, size=(5, 4))
        return CountMatrix(ids, ["g0", "g,1", "g2", "g3"], counts)
    if name == "zero_rows":
        return CountMatrix([], ["g0", "g1"], np.zeros((0, 2), dtype=np.int64))
    if name.startswith("edges_to_"):  # counts held as uint8, uint16, uint32 or uint64
        top = int(name.removeprefix("edges_to_"))
        edges = [v for v in (0, 255, 256, 65535, 65536, 2 ** 32, 2 ** 53 + 1) if v <= top]
        counts = np.array([edges, edges[::-1]], dtype=np.int64)
        m = CountMatrix(["c0", "c1"], [f"g{j}" for j in range(len(edges))], counts)
        assert m.counts.dtype == np.min_scalar_type(top) and m.counts.tolist() == counts.tolist()
        return m
    raise ValueError(name)


@pytest.mark.parametrize("name", ["every_count_to_5000", "table_and_beyond", "only_beyond",
                                  "all_zero", "quoted_ids", "zero_rows", "edges_to_255",
                                  "edges_to_65535", "edges_to_65536", "edges_to_4294967296",
                                  "edges_to_9007199254740993"])
def test_counts_writer_bytes_equal_str_of_every_count(tmp_path, name):
    m = _counts_case(name)
    path = tmp_path / "counts.csv"
    dataio.write_counts_csv(path, m)
    assert path.read_bytes() == _counts_reference_bytes(m)


def test_atomic_write_bytes(tmp_path):
    path = tmp_path / "blob.bin"
    dataio.atomic_write(path, b"\x00\r\n\xff")
    assert path.read_bytes() == b"\x00\r\n\xff"
    assert not (tmp_path / "blob.bin.tmp").exists()


def test_coords_csv_round_trip_and_header_check(tmp_path):
    path = tmp_path / "coords.csv"
    dataio.write_coords_csv(path, ["s0", "s1"], [[0.5, 1.5], [2.0, 3.0]])
    ids, xy = dataio.read_coords_csv(path)
    assert ids == ["s0", "s1"]
    assert np.array_equal(xy, [[0.5, 1.5], [2.0, 3.0]])
    bad = tmp_path / "bad.csv"
    bad.write_text("spot,a,b\ns0,1,2\n")
    with pytest.raises(DataError, match="header"):
        dataio.read_coords_csv(bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_coords_csv_rejects_non_finite_with_line(tmp_path, value):
    path = tmp_path / "coords.csv"
    path.write_text(f"spot_id,x,y\ns0,1.0,2.0\ns1,3.0,{value}\n")
    with pytest.raises(DataError, match=r"coords.csv:3: non-finite"):
        dataio.read_coords_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_matrix_csv_rejects_non_finite_with_line(tmp_path, value):
    path = tmp_path / "m.csv"
    path.write_text(f"id,g0,g1\nc0,1.0,2.0\nc1,{value},0.5\nc2,1.0,1.0\n")
    with pytest.raises(DataError, match=r"m.csv:3: non-finite"):
        dataio.read_matrix_csv(path)
    with pytest.raises(DataError, match=r"m.csv:3: non-finite"):
        dataio.read_latent_csv(path)


def test_labels_csv_round_trip_and_duplicate_id(tmp_path):
    path = tmp_path / "labels.csv"
    dataio.write_labels_csv(path, [("c0", "t1"), ("c1", "t2")])
    assert dataio.read_labels_csv(path) == {"c0": "t1", "c1": "t2"}
    dup = tmp_path / "dup.csv"
    dup.write_text("id,label\nc0,a\nc0,b\n")
    with pytest.raises(DataError, match="duplicate"):
        dataio.read_labels_csv(dup)


def test_latent_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    codes = rng.normal(size=(3, 4))
    path = tmp_path / "z.csv"
    dataio.write_latent_csv(path, ["c0", "c1", "c2"], codes)
    ids, back = dataio.read_latent_csv(path)
    assert ids == ["c0", "c1", "c2"]
    assert np.array_equal(back, codes)


def test_id_list_round_trip(tmp_path):
    path = tmp_path / "panel.txt"
    dataio.write_id_list(path, ["g2", "g0", "g1"])
    assert path.read_bytes() == b"g2\ng0\ng1\n"
    assert dataio.read_id_list(path) == ["g2", "g0", "g1"]


def test_id_list_unreadable_or_not_utf8_names_the_file(tmp_path):
    bad = tmp_path / "panel.txt"
    bad.write_bytes(b"g0\n\xffg1\n")
    with pytest.raises(DataError, match=r"panel.txt: not UTF-8"):
        dataio.read_id_list(bad)
    with pytest.raises(DataError, match=str(tmp_path)):
        dataio.read_id_list(tmp_path)


# Readers of numeric tables against their row-by-row reference. Each case is
# a file's bytes, with {h} standing for the reader's own three-field header,
# and the readers expected to take the vectorized path on it.
READERS = {
    "counts": (dataio.read_counts_csv, "id,g0,g1"),
    "matrix": (dataio.read_matrix_csv, "id,g0,g1"),
    "latent": (dataio.read_latent_csv, "id,z0,z1"),
    "coords": (dataio.read_coords_csv, "spot_id,x,y"),
}
ALL = set(READERS)
FLOAT = {"matrix", "latent", "coords"}
NUMERIC_CASES = [
    ("canonical ints", b"{h}\nc0,1,2\nc1,-3,0\n", ALL),
    ("canonical floats", b"{h}\nc0,0.5,-1e-300\nc1,1e+300,-0.0\n", FLOAT),
    ("quoted id", b'{h}\n"c,0",1,2\n', set()),
    ("quoted numbers", b'{h}\nc0,"1","2"\n', set()),
    ("hash in a value", b"{h}\nc0,2#x,1\n", set()),
    ("hash in an id", b"{h}\nc#0,2,1\n", ALL),
    ("underscore", b"{h}\nc0,1_000,2\n", set()),
    ("plus sign", b"{h}\nc0,+5,2\n", ALL),
    ("leading space", b"{h}\nc0, 5,2\n", set()),
    ("trailing tab", b"{h}\nc0,5\t,2\n", set()),
    ("file separator", b"{h}\nc0,5\x1c,2\n", set()),
    ("unicode digit", "{h}\nc0,\u0663,2\n".encode(), set()),
    ("exponent", b"{h}\nc0,1e3,2\n", FLOAT),
    ("2**63", b"{h}\nc0,9223372036854775808,2\n", FLOAT),
    ("-2**63", b"{h}\nc0,-9223372036854775808,2\n", ALL),
    ("nan", b"{h}\nc0,nan,2\n", set()),
    ("inf", b"{h}\nc0,1,inf\n", set()),
    ("overflow to inf", b"{h}\nc0,1e999,2\n", set()),
    ("empty value", b"{h}\nc0,,2\n", set()),
    ("empty id", b"{h}\n,1,2\n", ALL),
    ("non-ASCII id", "{h}\nc\u00e9,1,2\n".encode(), ALL),
    ("NUL in id", b"{h}\nc\x000,1,2\n", set()),
    ("CRLF", b"{h}\r\nc0,1,2\r\n", set()),
    ("blank line", b"{h}\nc0,1,2\n\nc1,3,4\n", set()),
    ("short row", b"{h}\nc0,1,2\nc1,3\n", set()),
    ("long row", b"{h}\nc0,1,2,3\n", set()),
    ("header only", b"{h}\n", set()),
    ("one-field header only", b"id\n", set()),
    ("one-field table", b"id\nc0\n", set()),
    ("no trailing newline", b"{h}\nc0,1,2", set()),
    ("not UTF-8", b"{h}\nc\xff,1,2\n", set()),
    ("field beyond the csv limit", b"{h}\n" + b"c" * 131073 + b",1,2\n", set()),
]


def _outcome(read, path):
    try:
        result = read(path)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(result, CountMatrix):
        result = (result.row_ids, result.col_ids, result.counts)
    return "ok", [(v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                  for v in result]


@pytest.mark.parametrize("name,text,fast", NUMERIC_CASES, ids=[c[0] for c in NUMERIC_CASES])
def test_numeric_readers_match_the_row_reader(tmp_path, monkeypatch, name, text, fast):
    calls = []
    row_reader = dataio.read_table
    monkeypatch.setattr(dataio, "read_table", lambda *a, **k: calls.append(1) or row_reader(*a, **k))
    for reader, (read, header) in READERS.items():
        path = tmp_path / f"{reader}.csv"
        path.write_bytes(text.replace(b"{h}", header.encode()))
        calls.clear()
        got = _outcome(read, path)
        assert (not calls) == (reader in fast), reader
        with monkeypatch.context() as m:
            m.setattr(dataio, "_canonical_ids", lambda path, header: None)
            assert got == _outcome(read, path), reader


def test_float_matrix_read_and_write_memory_bound(tmp_path):
    # A 1000 x 2000 matrix is 16 MB of values. Measured peaks (tracemalloc):
    # reading 18 MB and writing 1.5 MiB (the float formatter's working
    # arrays for one block of 8192 values), against 31 MB and 99 MB when rows
    # went through csv and the whole text was built before writing.
    mat = np.random.default_rng(2).normal(size=(1000, 2000))
    rows, cols = [f"c{i}" for i in range(1000)], [f"g{j}" for j in range(2000)]
    path = tmp_path / "m.csv"
    _, write_peak = traced_peak(lambda: dataio.write_matrix_csv(path, rows, cols, mat))
    (ids, _, back), read_peak = traced_peak(lambda: dataio.read_matrix_csv(path))
    read_peak -= back.nbytes
    assert ids == rows and np.array_equal(back, mat)
    assert write_peak < 4 * 2 ** 20
    assert read_peak < 8 * 2 ** 20


def test_count_matrix_read_memory_bound(tmp_path):
    # 1000 x 2000 counts below 256 are 2 MB as uint8. Measured peaks beyond
    # them (tracemalloc): 2.2 MiB parsing a block of rows at a time, each
    # narrowed as it is read, against 16 MiB when the whole table was parsed
    # as int64 first.
    counts = np.random.default_rng(3).integers(0, 40, size=(1000, 2000))
    m = CountMatrix([f"c{i}" for i in range(1000)], [f"g{j}" for j in range(2000)], counts)
    path = tmp_path / "counts.csv"
    dataio.write_counts_csv(path, m)
    back, peak = traced_peak(lambda: dataio.read_counts_csv(path))
    assert back.counts.dtype == np.uint8 and np.array_equal(back.counts, counts)
    assert peak - back.counts.nbytes < 4 * 2 ** 20
