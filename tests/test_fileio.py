"""The file codecs every artifact goes through."""

import re

import numpy as np
import pytest

from moce.cli import main
from moce.clustering import load_kmeans
from moce.embedding import load_embeddings
from moce.errors import FormatError
from moce.fileio import write_csv, write_table


def test_csv_writes_floats_with_17_digits_and_other_cells_as_given(tmp_path):
    """A Python float and an ``np.float64`` get 17 significant digits; an
    int, an ``np.int64``, a string and ``""`` are written as given."""
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"],
              [[0.1, np.float64(1 / 3), 7, np.int64(-2), "x,y", ""]])
    assert path.read_bytes() == (b"a,b,c,d,e,f\r\n"
                                 b'0.10000000000000001,0.33333333333333331,7,-2,"x,y",\r\n')


def per_value_table(magic, version, matrix, digits, extra=(), ids=None) -> bytes:
    """A table formatted one value at a time with an f-string: the reference
    for ``write_table``'s one format per row."""
    lines = [" ".join([magic, version, *map(str, (*matrix.shape, *extra))])]
    for i, row in enumerate(matrix):
        values = " ".join(f"{x:.{digits}g}" for x in row)
        lines.append(values if ids is None else f"{ids[i]} {values}")
    return "".join(line + "\n" for line in lines).encode()


def adversarial_values() -> np.ndarray:
    """Signed zeros, the smallest subnormal, integers near 2**53, halfway
    cases at 9 digits, inf and NaN, then 32 random mantissas at every
    decimal exponent from -320 to 300."""
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e16, -1e16, 1e16 + 2, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, 1 / 3, -2 / 3, 0.5, 1.0,
               1.0000000005, 9.9999999995, 0.99999999995, 123456789.5, 1e-5, 1e-4, 9.99999999e-5,
               1e9, 1e17, float("inf"), float("-inf"), float("nan")]
    rng = np.random.default_rng(0)
    mantissas = rng.uniform(-10.0, 10.0, size=(621, 32)).tolist()
    values = [float(f"{m!r}e{e}") for e, row in zip(range(-320, 301), mantissas) for m in row]
    return np.array(special + values)


@pytest.mark.parametrize("with_ids", [False, True])
@pytest.mark.parametrize("digits", [9, 17])
def test_write_table_formats_as_the_per_value_f_string(tmp_path, digits, with_ids):
    values = adversarial_values()
    matrix = values[:len(values) // 8 * 8].reshape(-1, 8)
    ids = [f"r{i}" for i in range(len(matrix))] if with_ids else None
    path = tmp_path / "table.txt"
    write_table(path, "MAGIC", "v1", matrix, digits, extra=(5,), ids=ids)
    assert path.read_bytes() == per_value_table("MAGIC", "v1", matrix, digits, (5,), ids)


ARABIC_12 = "١٢"
TEN_EMB_ROWS = "".join(f"r{i} 1 0\n" for i in range(10))

# label -> (loader, file text, line the error names); each loads at the old
# reader, which took bare int() and float()
LOOSE_NUMBERS = {
    "emb-value-underscore": (load_embeddings, "MOCE-EMB v1 2 2\na 1_5 0\nb 0 1\n", 2),
    "emb-value-arabic": (load_embeddings, f"MOCE-EMB v1 2 2\na 1 0\nb {ARABIC_12} 1\n", 3),
    "emb-count-underscore": (load_embeddings, f"MOCE-EMB v1 1_0 2\n{TEN_EMB_ROWS}", 1),
    "kmeans-value-underscore": (load_kmeans, "MOCE-KMEANS v1 1 2 0\n1_5 0\n", 2),
    "kmeans-value-arabic": (load_kmeans, f"MOCE-KMEANS v1 2 2 0\n0 0\n{ARABIC_12} 1\n", 3),
    "kmeans-seed-arabic": (load_kmeans, "MOCE-KMEANS v1 1 2 ٧\n0 0\n", 1),
}


@pytest.mark.parametrize("label", sorted(LOOSE_NUMBERS))
def test_tables_refuse_underscores_and_non_ascii_numerals(tmp_path, label):
    """``int()`` and ``float()`` read ``1_5`` as 15 and Arabic-Indic digits
    as ASCII ones; a table refuses both, naming the file and the line."""
    load, text, line = LOOSE_NUMBERS[label]
    path = tmp_path / "table.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:{line}:")):
        load(str(path))


def test_cluster_exits_3_on_an_underscored_value(tmp_path, capsys):
    path = tmp_path / "emb.txt"
    path.write_text("MOCE-EMB v1 2 2\na 1_5 0\nb 0 1\n")
    out = tmp_path / "km.txt"
    assert main(["cluster", "--embeddings", str(path), "--k", "1", "--output", str(out)]) == 3
    assert f"{path}:2: non-numeric value" in capsys.readouterr().err
    assert not out.exists()
