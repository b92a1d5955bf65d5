"""How every artifact goes into and comes out of a file: whole-file
replacement, so that none is ever left half written; CSV, JSON and the
strict numeric tables through it; and the one reader every loader uses."""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from .errors import ContractError, FormatError, NumericError


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then ``os.replace``
    it over ``path``: a reader sees the old file or the new one, never a
    part, even if the writer fails or dies (no fsync: not power-loss safe)."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header row and the data rows in the csv module's default
    dialect (``\\r\\n`` line ends) through ``write_atomic``. A float cell
    (a Python float or an ``np.float64``) gets 17 significant digits, which
    read back as the same double; any other cell is written as given."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([f"{cell:.17g}" if isinstance(cell, float) else cell for cell in row]
                     for row in rows)
    write_atomic(path, buffer.getvalue())


def json_text(value) -> str:
    """``value`` as indented JSON with sorted keys and a final newline: the
    layout of every JSON artifact, and of the JSON the CLI prints."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def write_json(path, value) -> None:
    """Write ``json_text(value)`` through ``write_atomic``."""
    write_atomic(path, json_text(value))


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, without their ends.

    Lines end at \\n, \\r\\n or \\r, as in a file opened in text mode, and
    not at the other breaks ``str.splitlines`` knows, which a JSON string
    may hold. Bytes that are not UTF-8 make a malformed file whatever it
    holds, so they raise ``FormatError`` naming the file, the line and the
    byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text (byte {exc.start})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_numbers(texts: list[str], kind: type) -> list:
    """``kind`` (int or float) of each text, or ValueError. ``int()`` and
    ``float()`` also read ``1_5`` and non-ASCII numerals such as the
    Arabic-Indic digits; no file this package reads may hold them."""
    joined = "".join(texts)
    if not joined.isascii() or "_" in joined:
        raise ValueError(f"not an ASCII number without '_': {texts!r}")
    return [kind(text) for text in texts]


def write_table(path, magic: str, version: str, matrix: np.ndarray, digits: int,
                extra: tuple[int, ...] = (), ids: list[str] | None = None) -> None:
    """Write the header ``magic version rows width *extra``, then one line
    per row of ``matrix`` at ``digits`` significant digits, its id first
    when ``ids`` is given. The reader splits lines on whitespace, so an id
    must be non-empty and hold none.

    Each row is one ``%`` of a format built once per table. ``%.Ng`` and
    ``format(x, ".Ng")`` call the same CPython float formatter, so the bytes
    are those of formatting value by value. Rows are converted one at a
    time: a list of the whole matrix would raise peak memory."""
    for row_id in ids or ():
        if not row_id or any(ch.isspace() for ch in row_id):
            raise ContractError(f"source_id '{row_id}' must be non-empty and whitespace-free")
    lines = [" ".join([magic, version, *map(str, (*matrix.shape, *extra))])]
    fmt = " ".join([f"%.{digits}g"] * matrix.shape[1])
    for i, row in enumerate(matrix):
        values = fmt % tuple(row.tolist())
        lines.append(values if ids is None else f"{ids[i]} {values}")
    write_atomic(path, "".join(line + "\n" for line in lines))


def read_table(path, magic: str, version: str, fields: tuple[str, ...],
               ids: bool = False) -> tuple[list[int], list[str], np.ndarray]:
    """Read a ``write_table`` file strictly: the header is ``magic version``
    and one integer per name in ``fields``, the row count (>= 0) and width
    (>= 1) first; each later line is one row, an id when ``ids`` is set,
    then exactly ``width`` finite numbers. Every number is ASCII without
    ``_`` (see ``parse_numbers``). A blank line or a row count other than
    the header's is an error. Each error names the file and the 1-based
    line: ``FormatError``, or ``NumericError`` for NaN or inf.
    Returns the header integers, the ids and the (count, width) array."""
    lines = read_lines(path)
    header = lines[0].split() if lines else []
    if len(header) != 2 + len(fields) or header[:2] != [magic, version]:
        names = " ".join(f"<{name}>" for name in fields)
        raise FormatError(f"{path}:1: expected header '{magic} {version} {names}'")
    try:
        values = parse_numbers(header[2:], int)
    except ValueError:
        raise FormatError(f"{path}:1: {', '.join(fields)} must be integers") from None
    count, width = values[:2]
    if count < 0 or width < 1:
        raise FormatError(f"{path}:1: invalid {fields[0]} {count} or {fields[1]} {width}")
    lead = int(ids)
    row_ids, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise FormatError(f"{path}:{lineno}: blank line")
        if len(parts) != lead + width:
            expected = f"an id and {width}" if ids else width
            raise FormatError(f"{path}:{lineno}: expected {expected} values, got {len(parts) - lead}")
        try:
            row = parse_numbers(parts[lead:], float)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric value") from None
        if not np.isfinite(row).all():
            raise NumericError(f"{path}:{lineno}: non-finite value")
        row_ids += parts[:lead]
        rows.append(row)
    if len(rows) != count:
        raise FormatError(f"{path}:1: header declares {count} rows, file has {len(rows)}")
    return values, row_ids, np.array(rows, dtype=np.float64).reshape(count, width)
