"""Dataset CSV handling and the follow-up stress sweep.

Datasets travel as two-column CSV with the exact header ``time,status``,
one observation per row, status 1 for an event and 0 for censoring.
Parsing is strict: any malformed cell names its 1-based line number.
Dataset writes use shortest round-trip float formatting so a write/parse
cycle reproduces the sample exactly; diagnostic tables round to 9
significant digits instead.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

from .errors import (
    DatasetFormatError,
    EmptySampleError,
    KTooSmallForStressError,
    ValidationError,
    check_real,
)
from .estimators import fit_estimate
from .plotfit import FitConfig
from .survival import SurvivalSample, apply_insufficiency, km_fit, order_sample, p_benchmark

__all__ = [
    "parse_dataset",
    "write_dataset",
    "format_sig",
    "StressRow",
    "stress_sweep",
    "MAX_STRESS_FRACTION",
]

MAX_STRESS_FRACTION = 0.45


def format_sig(x: float) -> str:
    """9 significant digits, the precision used by diagnostic tables."""
    return f"{x:.9g}"


def _parse_rows(reader) -> SurvivalSample:
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty file: expected header 'time,status'") from None
    if header:
        # spreadsheet "CSV UTF-8" exports start with a byte order mark
        header[0] = header[0].removeprefix("\ufeff")
    if [h.strip() for h in header] != ["time", "status"]:
        raise DatasetFormatError(
            f"line 1: expected header 'time,status', got {','.join(header)!r}"
        )
    times: list[float] = []
    events: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DatasetFormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
        raw_t, raw_s = row[0].strip(), row[1].strip()
        try:
            t = float(raw_t)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: time={raw_t!r} is not a number") from None
        if not math.isfinite(t) or t < 0:
            raise DatasetFormatError(
                f"line {lineno}: time={raw_t!r} must be finite and non-negative"
            )
        try:
            s = int(raw_s)
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: status={raw_s!r} is not an integer"
            ) from None
        if s not in (0, 1):
            raise DatasetFormatError(f"line {lineno}: status={s} must be 0 or 1")
        times.append(t)
        events.append(s)
    if not times:
        raise EmptySampleError("dataset has a header but no observations")
    return SurvivalSample(times, events)


def parse_dataset(source) -> SurvivalSample:
    """Read a ``time,status`` CSV from a path or an open text stream."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, newline="", encoding="utf-8") as fh:
                return _parse_rows(csv.reader(fh))
        return _parse_rows(csv.reader(source))
    except UnicodeDecodeError:
        raise DatasetFormatError("dataset is not UTF-8 text") from None


def write_dataset(sample: SurvivalSample, dest) -> None:
    """Write a sample as ``time,status`` CSV, exact to the last bit."""
    own = isinstance(dest, (str, os.PathLike))
    fh = open(dest, "w", newline="") if own else dest
    try:
        writer = csv.writer(fh)
        writer.writerow(["time", "status"])
        for t, e in zip(sample.times, sample.events):
            writer.writerow([repr(float(t)), int(e)])
    finally:
        if own:
            fh.close()


@dataclass(frozen=True)
class StressRow:
    fraction: float
    p_hat: float
    p_n: float


def stress_sweep(sample, fractions, estimator: str, config: FitConfig) -> list[StressRow]:
    """Refit after forcing growing top fractions of the sample to censored.

    The tail fraction k/n must strictly exceed every stress fraction, so
    the threshold order statistic is never one of the censored-over
    points.  Fraction 0 reproduces the unstressed fit exactly.  Any iterable
    of fractions is read once.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValidationError("need at least one stress fraction")
    for f in fractions:
        check_real(f, "stress fractions must lie in [0, 1)", lambda v: 0.0 <= v < 1.0)
    n = sample.n
    k_frac = config.k / n
    if k_frac <= max(fractions):
        raise KTooSmallForStressError(
            f"k/n = {k_frac:.6g} must exceed the largest stress fraction {max(fractions):.6g}"
        )
    if max(fractions) > MAX_STRESS_FRACTION:
        raise ValidationError(
            f"stress fractions are limited to [0, {MAX_STRESS_FRACTION}], got {max(fractions)}"
        )
    rows = []
    for f in fractions:
        stressed = apply_insufficiency(sample, f)
        ordered = order_sample(stressed)
        curve = km_fit(ordered)
        p_hat = fit_estimate(estimator, ordered, curve, config)
        rows.append(StressRow(float(f), float(p_hat), p_benchmark(curve, ordered)))
    return rows
