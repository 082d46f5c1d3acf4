"""Right-censored survival datasets and their on-disk formats.

A dataset is columnar: covariates ``x`` of shape (n, d), observed times
``t_obs`` (strictly positive), and event indicators ``delta`` (1 = event,
0 = censored).  The CSV layout is ``x0,...,x{d-1},time,event`` with LF line
endings and full-precision floats, so save/load round-trips bit-exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class SurvivalDataset:
    x: np.ndarray
    t_obs: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t_obs = np.asarray(self.t_obs, dtype=float)
        self.delta = np.asarray(self.delta)
        if self.x.ndim != 2:
            raise ValidationError(f"x must be 2-d, got shape {self.x.shape}")
        n = self.x.shape[0]
        if self.t_obs.shape != (n,) or self.delta.shape != (n,):
            raise ValidationError(
                f"column lengths disagree: x {self.x.shape}, t_obs {self.t_obs.shape}, delta {self.delta.shape}"
            )
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.t_obs)):
            raise ValidationError("covariates and times must be finite")
        if np.any(self.t_obs <= 0.0):
            bad = int(np.argmax(self.t_obs <= 0.0))
            raise ValidationError(f"t_obs must be strictly positive (record {bad})")
        if not np.all(np.isin(self.delta, (0, 1))):
            raise ValidationError("delta entries must be 0 or 1")
        self.delta = self.delta.astype(np.int64)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    def subset(self, idx) -> "SurvivalDataset":
        idx = np.asarray(idx)
        return SurvivalDataset(self.x[idx], self.t_obs[idx], self.delta[idx])

    def save_csv(self, path) -> None:
        header = [f"x{i}" for i in range(self.dim)] + ["time", "event"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(self.n):
                cells = [repr(float(v)) for v in self.x[i]]
                cells.append(repr(float(self.t_obs[i])))
                cells.append(str(int(self.delta[i])))
                fh.write(",".join(cells) + "\n")

    @classmethod
    def load_csv(cls, path) -> "SurvivalDataset":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            if len(header) < 3 or header[-2:] != ["time", "event"]:
                raise ValidationError(
                    f"{path}: expected header x0,...,time,event, got {header}"
                )
            d = len(header) - 2
            if header[:d] != [f"x{i}" for i in range(d)]:
                raise ValidationError(f"{path}: covariate columns must be x0..x{d-1}")
            xs, ts, ds = [], [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != d + 2:
                    raise ValidationError(f"{path}:{lineno}: expected {d + 2} cells")
                try:
                    xs.append([float(v) for v in row[:d]])
                    ts.append(float(row[d]))
                    ds.append(int(row[d + 1]))
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if not xs:
            raise ValidationError(f"{path}: no data rows")
        return cls(np.array(xs), np.array(ts), np.array(ds))


def load_regression_csv(path, target: str):
    """Reads a numeric regression CSV; returns (X, y, feature_names)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if target not in header:
            raise ValidationError(f"{path}: no column named {target!r} in {header}")
        t_idx = header.index(target)
        feature_names = [h for i, h in enumerate(header) if i != t_idx]
        feats, targs = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                targs.append(float(row[t_idx]))
                feats.append([float(v) for i, v in enumerate(row) if i != t_idx])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not feats:
        raise ValidationError(f"{path}: no data rows")
    return np.array(feats), np.array(targs), feature_names
