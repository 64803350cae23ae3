"""Exception hierarchy shared by all pemnet modules, and the line and table
readers of their file loaders."""

import numbers
from contextlib import suppress

import numpy as np


class PemnetError(Exception):
    """Base class for all pemnet errors."""


class ConfigurationError(PemnetError, ValueError):
    """A parameter or configuration value is invalid or infeasible."""


class StabilityError(PemnetError):
    """A dynamical system or linear solve violates its stability requirement."""


class NumericalError(PemnetError):
    """A numerical computation failed (overflow, singular system, rank deficiency)."""


class ConvergenceError(NumericalError):
    """An iterative computation exceeded its iteration budget."""


class DataError(PemnetError):
    """Input data is degenerate or insufficient for the requested computation."""


class NilpotentGraphError(PemnetError):
    """The graph has a nilpotent adjacency matrix; callers usually resample."""


class FileFormatError(PemnetError):
    """A serialized input file does not match its expected format."""


def _require_integers(**values) -> None:
    """Raise ConfigurationError naming the first of the values that is no
    integer (numpy integers pass; 10.0 does not)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _require_lists(**values) -> None:
    """Raise ConfigurationError naming the first of the values that is a bare
    string where a list is expected: "lc" would iterate as 'l' and 'c'."""
    for name, value in values.items():
        if isinstance(value, str):
            raise ConfigurationError(
                f"{name} must be a list, such as [{value!r}], not the string {value!r}")


def _data_lines(path: str, empty: str) -> tuple[tuple[int, str], list[tuple[int, str]]]:
    """(header, rows) of a text file: its non-blank lines as (physical line
    number, stripped text), the first one apart. A file with no non-blank line
    raises FileFormatError "<path>: <empty>"."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise FileFormatError(f"{path}: {empty}")
    return lines[0], lines[1:]


def _data_table(path: str, rows: list[tuple[int, str]], count: int, width: int,
                conv=float) -> np.ndarray:
    """(count, width) array of conv values from the rows of _data_lines; a row
    count other than count raises FileFormatError "<path>: header claims ...".

    numpy parses every row at once. Only where it refuses the rows or their width
    is wrong does a token-by-token pass name the first bad physical line, or read
    tokens that only conv takes (such as 1_000); its ints stay Python ints.
    """
    if len(rows) != count:
        raise FileFormatError(f"{path}: header claims {count} rows, found {len(rows)}")
    if not rows:  # numpy warns on empty input
        return np.empty((0, width), dtype=conv)
    with suppress(ValueError):
        # numpy's parser takes a subset of what conv takes, to the same values
        table = np.loadtxt([line for _, line in rows], dtype=conv, ndmin=2, comments=None)
        if table.shape[1] == width:
            return table
    values = []
    for lineno, line in rows:
        parts = line.split()
        if len(parts) != width:
            raise FileFormatError(f"{path}:{lineno}: expected {width} values, got {len(parts)}")
        try:
            values.append([conv(tok) for tok in parts])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad {conv.__name__} in {line!r}") from exc
    return np.array(values, dtype=float if conv is float else object)  # ints beyond int64
