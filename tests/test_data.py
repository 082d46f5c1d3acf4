"""Dataset container and CSV round trips."""
import tracemalloc

import numpy as np
import pytest

from copsurv import data
from copsurv.data import (CELL_BLOCK, SurvivalDataset, column_cells, csv_cell, load_regression_csv,
                          read_json, write_csv)
from copsurv.datagen import LatentOutcomes
from copsurv.errors import ValidationError
from copsurv.training import TrainTrace


def small_dataset(n=6, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return SurvivalDataset(
        rng.uniform(size=(n, d)),
        rng.uniform(0.1, 5.0, size=n),
        (rng.uniform(size=n) < 0.5).astype(int),
    )


def test_basic_properties():
    ds = small_dataset()
    assert len(ds) == 6
    assert ds.dim == 3
    assert ds.n_events == int(ds.delta.sum())


def test_validation_errors():
    good_x = np.ones((3, 2))
    good_t = np.array([1.0, 2.0, 3.0])
    good_d = np.array([1, 0, 1])
    with pytest.raises(ValidationError):
        SurvivalDataset(np.ones(3), good_t, good_d)  # x not 2-d
    with pytest.raises(ValidationError):
        SurvivalDataset(good_x, good_t[:2], good_d)  # length mismatch
    with pytest.raises(ValidationError):
        SurvivalDataset(good_x, np.array([1.0, 0.0, 3.0]), good_d)  # t == 0
    with pytest.raises(ValidationError):
        SurvivalDataset(good_x, np.array([1.0, np.nan, 3.0]), good_d)
    with pytest.raises(ValidationError):
        SurvivalDataset(good_x, good_t, np.array([1, 2, 0]))  # delta not 0/1
    # the offending record index is named
    with pytest.raises(ValidationError, match="1"):
        SurvivalDataset(good_x, np.array([1.0, -2.0, 3.0]), good_d)


def test_empty_dataset_allowed():
    ds = SurvivalDataset(np.empty((0, 4)), np.empty(0), np.empty(0, dtype=int))
    assert len(ds) == 0 and ds.dim == 4


def test_subset():
    ds = small_dataset(10)
    sub = ds.subset(np.array([1, 3, 5]))
    assert len(sub) == 3
    assert np.array_equal(sub.t_obs, ds.t_obs[[1, 3, 5]])
    assert np.array_equal(sub.x, ds.x[[1, 3, 5]])


def test_csv_roundtrip_bit_exact(tmp_path):
    ds = small_dataset(40, 5, seed=3)
    path = tmp_path / "data.csv"
    ds.save_csv(path)
    back = SurvivalDataset.load_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.t_obs, ds.t_obs)
    assert np.array_equal(back.delta, ds.delta)
    # saving the reloaded data reproduces the file byte for byte
    path2 = tmp_path / "again.csv"
    back.save_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_and_row_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,time,event\n0.1,0.2,1.0,1\n")
    with pytest.raises(ValidationError):
        SurvivalDataset.load_csv(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("x0,time,event\n0.1,1.0,1\n0.2,oops,0\n")
    with pytest.raises(ValidationError, match="3"):  # line number in message
        SurvivalDataset.load_csv(bad_row)

    bad_width = tmp_path / "w.csv"
    bad_width.write_text("x0,time,event\n0.1,1.0\n")
    with pytest.raises(ValidationError):
        SurvivalDataset.load_csv(bad_width)

    # an event of 20 digits or more would overflow the float table if not checked
    for event in ("2", "1" * 30):
        bad_event = tmp_path / "e.csv"
        bad_event.write_text(f"x0,time,event\n0.1,1.0,1\n0.2,1.5,{event}\n")
        with pytest.raises(ValidationError, match=":3: event must be 0 or 1"):
            SurvivalDataset.load_csv(bad_event)


def test_load_regression_csv(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("a,y,b\n1.0,10.0,2.0\n3.0,20.0,4.0\n")
    x, y = load_regression_csv(path, "y")
    assert np.array_equal(x, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(y, np.array([10.0, 20.0]))
    with pytest.raises(ValidationError):
        load_regression_csv(path, "missing")


HEADER = "x0,time,event"
TWO_ROWS = ([[0.5], [0.25]], [1.5, 2.0], [1, 0])

# Each body after HEADER either loads to (x, t_obs, delta) or raises a
# ValidationError of exactly this text ("{}" stands for the path): what a
# row-by-row parse with csv, float() and int() gives.
READER_CASES = {
    "blank_line": ("0.5,1.5,1\n\n0.25,2.0,0\n", TWO_ROWS),
    "whitespace_line": ("0.5,1.5,1\n \n0.25,2.0,0\n", "{}:3: expected 3 cells"),
    "crlf": ("0.5,1.5,1\r\n0.25,2.0,0\r\n", TWO_ROWS),
    "lone_cr": ("0.5,1.5,1\r0.25,2.0,0\r", TWO_ROWS),
    "no_final_newline": ("0.5,1.5,1\n0.25,2.0,0", TWO_ROWS),
    "one_row": ("0.5,1.5,1\n", ([[0.5]], [1.5], [1])),
    "header_only": ("", "{}: no data rows"),
    "trailing_comma": ("0.5,1.5,1,\n", "{}:2: expected 3 cells"),
    "short_row": ("0.5,1.5,1\n0.25,0\n", "{}:3: expected 3 cells"),
    "every_row_wider": ("0.5,1.5,1,7\n0.25,2.0,0,7\n", "{}:2: expected 3 cells"),
    "quoted": ('"1.0",1.5,"1"\n', ([[1.0]], [1.5], [1])),
    "hash": ("#2,1.5,1\n", "{}:2: could not convert string to float: '#2'"),
    "underscore": ("1_0,1.5,1\n", ([[10.0]], [1.5], [1])),
    "padded": (" 1.5 ,1.5, 1 \n", ([[1.5]], [1.5], [1])),
    "bad_float": ("0.5,1.5,1\n0.25,1.x,0\n", "{}:3: could not convert string to float: '1.x'"),
    "unit_separator": ("\x1f0.5,1.5,1\n", "{}:2: could not convert string to float: '\\x1f0.5'"),
    "arabic_indic_digit": ("١,1.5,1\n", ([[1.0]], [1.5], [1])),
    "event_1.0": ("0.5,1.5,1.0\n", "{}:2: invalid literal for int() with base 10: '1.0'"),
    "event_2": ("0.5,1.5,1\n0.25,2.0,2\n", "{}:3: event must be 0 or 1, got '2'"),
    "event_30_digits": ("0.5,1.5," + "1" * 30 + "\n",
                        "{}:2: event must be 0 or 1, got '" + "1" * 30 + "'"),
}


@pytest.mark.parametrize("body, expected", READER_CASES.values(), ids=READER_CASES)
def test_load_csv_reads_each_case_to_its_table_or_error(tmp_path, body, expected):
    path = tmp_path / "case.csv"
    path.write_bytes(f"{HEADER}\n{body}".encode())
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as info:
            SurvivalDataset.load_csv(path)
        assert str(info.value) == expected.format(path)
    else:
        ds = SurvivalDataset.load_csv(path)
        assert (ds.x.tolist(), ds.t_obs.tolist(), ds.delta.tolist()) == expected
        assert ds.delta.dtype == np.int64


def test_an_empty_file_and_a_one_column_file_without_rows_are_refused(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    for load in (SurvivalDataset.load_csv, lambda p: load_regression_csv(p, "y")):
        with pytest.raises(ValidationError) as info:
            load(path)
        assert str(info.value) == f"{path}: empty file"
    path.write_bytes(b"y\n\n\n")
    with pytest.raises(ValidationError) as info:
        load_regression_csv(path, "y")
    assert str(info.value) == f"{path}: no data rows"


@pytest.mark.parametrize("body, expected", [
    ("0.5,1.5,1\n\n0.25,2.0,0\n", ([[0.5, 1.0], [0.25, 0.0]], [1.5, 2.0])),
    ("0.5,1.5,1\r\n0.25,2.0,2\r\n", ([[0.5, 1.0], [0.25, 2.0]], [1.5, 2.0])),
    ('"1.0",1_0, 1.0 \n', ([[1.0, 1.0]], [10.0])),
    ("", "{}: no data rows"),
    ("0.5,1.5,1,\n", "{}:2: expected 3 cells"),
    ("0.5,1.5\n", "{}:2: expected 3 cells"),
    ("0.5,#2,1\n", "{}:2: could not convert string to float: '#2'"),
], ids=["blank_line", "crlf_any_last_float", "quoted_underscore_padded", "header_only",
        "trailing_comma", "short_row", "hash"])
def test_load_regression_csv_reads_each_case_to_its_table_or_error(tmp_path, body, expected):
    path = tmp_path / "case.csv"
    path.write_bytes(f"{HEADER}\n{body}".encode())
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as info:
            load_regression_csv(path, "time")
        assert str(info.value) == expected.format(path)
    else:
        x, y = load_regression_csv(path, "time")
        assert (x.tolist(), y.tolist()) == expected


def test_a_well_formed_file_never_takes_the_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    small_dataset(50, 3).save_csv(path)
    with_blank_lines = tmp_path / "blank.csv"
    with_blank_lines.write_bytes(path.read_bytes().replace(b"\n", b"\r\n\r\n"))

    def refuse(*args):
        raise AssertionError("row loop used on a well-formed file")

    monkeypatch.setattr(data, "_parse_rows", refuse)
    for p in (path, with_blank_lines):
        assert np.array_equal(SurvivalDataset.load_csv(p).x, small_dataset(50, 3).x)
        assert load_regression_csv(p, "time")[1].shape == (50,)


def random_doubles(rng, n):
    """n float64 of uniformly random bit patterns."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def test_csv_round_trip_of_random_bit_patterns_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308])
    values = np.concatenate([edge, random_doubles(rng, 60_000)])
    values = values[np.isfinite(values)]
    n = len(values) // 3
    x = values[: 2 * n].reshape(n, 2)
    t = np.abs(values[2 * n: 3 * n])
    t[t == 0.0] = 5e-324
    ds = SurvivalDataset(x, t, rng.integers(0, 2, size=n))
    path = tmp_path / "bits.csv"
    ds.save_csv(path)
    back = SurvivalDataset.load_csv(path)
    assert np.array_equal(back.x.view(np.uint64), ds.x.view(np.uint64))
    assert np.array_equal(back.t_obs.view(np.uint64), ds.t_obs.view(np.uint64))
    assert np.array_equal(back.delta, ds.delta)


def test_regression_csv_reads_every_cell_as_float_does(tmp_path):
    rng = np.random.default_rng(12)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324])
    table = np.concatenate([special, random_doubles(rng, 30_000 - len(special))]).reshape(-1, 3)
    path = tmp_path / "bits.csv"
    write_csv(path, ["a", "y", "b"], zip(*map(column_cells, table.T)))
    x, y = load_regression_csv(path, "y")
    # float() of the written text: a nan reads back as float("nan"), whatever its sign or payload
    want = np.array([[float(cell) for cell in map(repr, row)] for row in table.tolist()])
    assert np.array_equal(x.view(np.uint64), want[:, [0, 2]].view(np.uint64))
    assert np.array_equal(y.view(np.uint64), want[:, 1].view(np.uint64))
    assert np.isnan(x[0, 0]) and np.isnan(y[0]) and x[0, 1] == np.inf and x[1, 0] == -np.inf


def cell_by_cell(header, columns):
    """The text of a CSV file whose cells csv_cell formats one at a time."""
    rows = zip(*([csv_cell(v) for v in col] for col in columns))
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def test_every_writer_formats_each_cell_as_csv_cell_across_block_edges(tmp_path):
    n = 2 * CELL_BLOCK + 3
    edges = [0, CELL_BLOCK - 1, CELL_BLOCK, CELL_BLOCK + 1, 2 * CELL_BLOCK, n - 1]
    rng = np.random.default_rng(21)

    def column(special, finite=False):
        values = random_doubles(rng, n)
        if finite:
            values[~np.isfinite(values) | (values == 0.0)] = 0.5
        values[edges[:len(special)]] = special
        return values

    finite = [-0.0, 5e-324, 1e16, -1e16, 0.1, -5e-324]
    positive = [5e-324, 1e16, 0.1, 1.0, 2.5e-300, 7.0]
    x = np.column_stack([column(finite, True), column(finite[::-1], True), rng.uniform(size=n)])
    ds = SurvivalDataset(x, np.abs(column(positive, True)), rng.integers(0, 2, size=n))
    ds.save_csv(tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_text() == cell_by_cell(
        ["x0", "x1", "x2", "time", "event"], [*ds.x.T, ds.t_obs, ds.delta])

    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16]
    latent = LatentOutcomes(column(special), column(special[::-1]))
    latent.save_csv(tmp_path / "latent.csv")
    assert (tmp_path / "latent.csv").read_text() == cell_by_cell(
        ["t_event", "t_censor"], [latent.t_event, latent.t_censor])

    trace = TrainTrace(np.arange(1, n + 1), column(special), column(special[::-1]),
                       {"theta": column(finite), "kappa": column(special)})
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == cell_by_cell(
        ["epoch", "train_negloglik", "val_negloglik", "theta", "kappa"],
        [trace.epoch, trace.train_negloglik, trace.val_negloglik, *trace.copula_path.values()])


def test_save_csv_memory_does_not_grow_with_the_row_count(tmp_path):
    # a writer that formats whole columns holds every cell of the table at once: 15 MB traced here
    rng = np.random.default_rng(5)
    ds = SurvivalDataset(rng.uniform(size=(50_000, 8)), rng.uniform(0.1, 5.0, 50_000),
                         rng.integers(0, 2, size=50_000))
    tracemalloc.start()
    try:
        ds.save_csv(tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_read_json_names_the_line_and_column_of_bad_text(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{\n  "max_epochs": 60,\n  "patience"')
    with pytest.raises(ValidationError, match=r"cut\.json:3:13: Expecting ':' delimiter"):
        read_json(path)
    path.write_text('{"seed": 1}\n')
    assert read_json(path) == {"seed": 1}
