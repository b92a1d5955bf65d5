"""The file codecs every artifact goes through."""

import numpy as np

from moce.fileio import write_csv


def test_csv_writes_floats_with_17_digits_and_other_cells_as_given(tmp_path):
    """A Python float and an ``np.float64`` get 17 significant digits; an
    int, an ``np.int64``, a string and ``""`` are written as given."""
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"],
              [[0.1, np.float64(1 / 3), 7, np.int64(-2), "x,y", ""]])
    assert path.read_bytes() == (b"a,b,c,d,e,f\r\n"
                                 b'0.10000000000000001,0.33333333333333331,7,-2,"x,y",\r\n')
