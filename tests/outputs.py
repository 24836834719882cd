"""A scenario run's output files, read back: ``summary.txt`` and its CSVs, as written."""

import csv


def summary(out):
    """``out/summary.txt`` as ``{key: value}``, each value the string after ``key = ``."""
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def csv_rows(path):
    """A CSV file's data rows, each a ``{column: cell}`` dict."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
