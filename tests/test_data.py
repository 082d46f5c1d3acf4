"""Dataset container and CSV round trips."""
import numpy as np
import pytest

from copsurv.data import SurvivalDataset, load_regression_csv, read_json
from copsurv.errors import ValidationError


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


def test_read_json_names_the_line_and_column_of_bad_text(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{\n  "max_epochs": 60,\n  "patience"')
    with pytest.raises(ValidationError, match=r"cut\.json:3:13: Expecting ':' delimiter"):
        read_json(path)
    path.write_text('{"seed": 1}\n')
    assert read_json(path) == {"seed": 1}
