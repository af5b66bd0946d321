import numpy as np
import pytest

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
    with pytest.raises(OSError, match="disk full"):
        dataio.write_matrix_csv(path, ["c0"], ["g0"], [[1.5]])
    assert path.read_text() == "old\n"


def test_matrix_csv_float_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 3))
    path = tmp_path / "m.csv"
    dataio.write_matrix_csv(path, ["r0", "r1", "r2", "r3"], ["a", "b", "c"], mat)
    _, _, back = dataio.read_matrix_csv(path)
    assert np.array_equal(back, mat)  # bitwise, via repr round-trip


def test_matrix_csv_deterministic_bytes(tmp_path):
    mat = np.array([[1.0 / 3.0, 2.0], [np.pi, -0.0]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataio.write_matrix_csv(p1, ["r0", "r1"], ["x", "y"], mat)
    dataio.write_matrix_csv(p2, ["r0", "r1"], ["x", "y"], mat)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_writers_golden_bytes(tmp_path):
    # repr of every float, csv quoting of awkward ids, exact big ints
    mat = np.array([[-0.0, 0.1], [5e-324, 1e300]])
    path = tmp_path / "m.csv"
    dataio.write_matrix_csv(path, ["a,b", 'say "hi"'], ["x", "y"], mat)
    assert path.read_bytes() == (b'id,x,y\n'
                                 b'"a,b",-0.0,0.1\n'
                                 b'"say ""hi""",5e-324,1e+300\n')
    counts = CountMatrix(["c,1", 'q"2'], ["g0", "g1"], [[0, 2 ** 53 + 1], [7, 12345678901234]])
    path = tmp_path / "counts.csv"
    dataio.write_counts_csv(path, counts)
    assert path.read_bytes() == (b'id,g0,g1\n'
                                 b'"c,1",0,9007199254740993\n'
                                 b'"q""2",7,12345678901234\n')
    path = tmp_path / "coords.csv"
    dataio.write_coords_csv(path, ["s,0"], [[-0.0, 0.1]])
    assert path.read_bytes() == b'spot_id,x,y\n"s,0",-0.0,0.1\n'


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
