"""Every ValidationError of the CSV/text readers names the file line at fault,
counting blank lines: each file below starts with one, so a reader that
counts non-blank rows instead would be off by one."""

import re

import pytest

from hicrit._io import ingest_labeled, ingest_pairs, ingest_plain, ingest_pvalues
from hicrit.errors import ValidationError


def column(name):
    return lambda path: ingest_pvalues(path, column=name)


# (reader, file text after the leading blank line, line at fault, column, message)
CASES = [
    (ingest_pvalues, "0.5\n\nabc\n", 4, "pvalue", "non-numeric cell"),
    (ingest_pvalues, "0.5\ninf\n", 3, "pvalue", "non-finite cell"),
    (ingest_pvalues, "0.5\n1.5\n", 3, "pvalue", "outside (0, 1]"),
    (column("p"), "name,q\na,0.5\n", 2, None, "column 'p' not found"),
    (column("p"), "name,p\n", 2, None, "no data rows"),
    (column("p"), "name,p\na,0.5\nb\n", 4, "p", "missing cell"),
    (column("p"), "name,p\na,0.5\nb,x\n", 4, "p", "non-numeric cell"),
    (column("p"), "name,p\na,0\n", 3, "p", "outside (0, 1]"),
    (ingest_labeled, "g1,label\n1,2\n", 2, None, "first column must be 'label'"),
    (ingest_labeled, "label\n1\n", 2, None, "no feature columns"),
    (ingest_labeled, "label,g1\n", 2, None, "no data rows"),
    (ingest_labeled, "label,g1\n1,0.5\n-1,0.5,7\n", 4, None, "expected 2 cells, got 3"),
    (ingest_labeled, "label,g1\none,0.5\n", 3, "label", "non-numeric cell"),
    (ingest_labeled, "label,g1\n1,0.5\n-1,nan\n", 4, "g1", "non-finite cell"),
    (ingest_labeled, "label,g1\n1,0.5\n\n-1,0.5\n0.5,0.5\n", 6, "label",
     "labels must be integers"),
    (ingest_labeled, "label,g1\n1,0.5\n-1,0.5\n3,0.5\n", 5, "label", "label alphabet"),
    (ingest_labeled, "label,g1\n1,0.5\n2,0.5\n-1,0.5\n", 5, "label", "label alphabet"),
    (ingest_plain, "a,b\n", 2, None, "no data rows"),
    (ingest_plain, "a,b\n1,2\n3\n", 4, None, "expected 2 cells, got 1"),
    (ingest_plain, "a,b\n1,-inf\n", 3, "b", "non-finite cell"),
    (ingest_pairs, "x\n1\n", 2, None, "need two columns"),
    (ingest_pairs, "x,y\n", 2, None, "no data rows"),
    (ingest_pairs, "x,y\n1,2\n3,4,5\n", 4, None, "expected 2 cells, got 3"),
    (ingest_pairs, "x,y\n1,2\n3,?\n", 4, "y", "non-numeric cell"),
]


@pytest.mark.parametrize("reader, text, line, column_name, message", CASES)
def test_errors_name_the_file_line(tmp_path, reader, text, line, column_name, message):
    path = tmp_path / "input.csv"
    path.write_text("\n" + text)
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        reader(str(path))
    assert (info.value.row, info.value.column) == (line, column_name)
