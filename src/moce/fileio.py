"""Whole-file replacement, so that no artifact is ever left half written,
and the one reader every text loader starts from."""

from __future__ import annotations

import csv
import io
import os

from .errors import FormatError


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
    dialect (``\\r\\n`` line ends) through ``write_atomic``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buffer.getvalue())


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
