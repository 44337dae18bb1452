"""Loss-file ingestion, atomic output writing, and a bundled synthetic sample."""

from __future__ import annotations

# csv and hashlib load in the functions that use them, none of which a
# model-based `optimize` calls
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import LossParseError


def read_loss_csv(path) -> np.ndarray:
    """Read a loss sample from CSV.

    The file must contain one nonnegative decimal per record in a column
    named ``loss``.  The header is optional for single-column files.  Blank
    lines are skipped; negative, non-numeric, or non-finite values raise
    LossParseError with the offending 1-based line number, and an unreadable
    file raises LossParseError without one.
    """
    import csv

    path = Path(path)
    values: list[float] = []
    col = 0
    header_checked = False
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise LossParseError(f"cannot read loss file: {exc}") from None
    with fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if not header_checked:
                header_checked = True
                lowered = [c.lower() for c in cells]
                if "loss" in lowered:
                    col = lowered.index("loss")
                    continue
                if len(cells) > 1:
                    raise LossParseError(
                        "multi-column input needs a header with a 'loss' column",
                        line=line_no,
                    )
                # single column with no header: fall through and parse as data
            if col >= len(cells):
                raise LossParseError(
                    f"row has no column {col + 1}", line=line_no
                )
            text = cells[col]
            try:
                value = float(text)
            except ValueError:
                raise LossParseError(
                    f"not a number: {text!r}", line=line_no
                ) from None
            if not math.isfinite(value):
                raise LossParseError(f"non-finite loss: {text!r}", line=line_no)
            if value < 0.0:
                raise LossParseError(f"negative loss: {text!r}", line=line_no)
            values.append(value)
    if not values:
        raise LossParseError("no loss records found")
    return np.asarray(values, dtype=float)


def content_digest(path) -> str:
    """64-bit content hash of a file, as 16 hex characters."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj) -> None:
    """Serialise obj as JSON and move it into place in one step."""
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv_atomic(path, header, rows) -> None:
    """Write a CSV (header plus iterable of row tuples, or a 2-D float
    array) atomically.

    Cells holding a comma, quote or line break are quoted.  An array's rows
    are formatted in one pass over its Python floats, into the text its
    rows as tuples would give.
    """
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        # a NaN cell is empty, as in `_format_cell`; the csv module quotes a
        # row of one empty cell
        line = ",".join(["{:.6g}"] * rows.shape[1]) + "\n"
        empty = '""' if rows.shape[1] == 1 else ""
        buf.writelines(line.format(*row).replace("nan", empty) for row in rows.tolist())
    else:
        writer.writerows([_format_cell(c) for c in row] for row in rows)
    _atomic_write_text(path, buf.getvalue())


def _format_cell(c) -> str:
    if isinstance(c, bool):
        return "true" if c else "false"
    if isinstance(c, float):
        if math.isnan(c):
            return ""
        return f"{c:.6g}"
    return str(c)


def make_synthetic_losses(n: int = 10000, seed: int = 73) -> np.ndarray:
    """Deterministic heavy-tailed loss sample with a few injected extremes.

    Meant as a stand-in for confidential claim files when exercising the
    analysis pipeline end to end.  All values are strictly positive.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.random(n)
    # Lomax body with tail index 2.6: heavy but with finite variance
    body = 1.2 * ((1.0 - u) ** (-1.0 / 2.6) - 1.0)
    body = np.maximum(body, 1e-3)
    k = max(5, n // 2000)
    idx = rng.choice(n, size=k, replace=False)
    body[idx] = body[idx] * rng.uniform(40.0, 120.0, size=k) + 50.0
    return body
