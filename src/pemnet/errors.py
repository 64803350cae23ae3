"""Exception hierarchy shared by all pemnet modules, and the line and table
readers of their file loaders."""

import math
import numbers
from collections.abc import Collection
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


def _require_integers(minimum=None, **values) -> None:
    """Raise ConfigurationError naming the first of the values that is no
    integer (numpy integers pass; 10.0 and True do not) or, given minimum, that
    lies below it. An exact int passes without the numbers.Integral check, an
    ABC lookup that costs more than the test."""
    for name, value in values.items():
        if type(value) is not int and (type(value) is bool
                                       or not isinstance(value, numbers.Integral)):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


# The intervals a real parameter may be asked to lie in; NaN and inf lie in none.
_INTERVALS = {
    "(0, 1]": lambda v: 0.0 < v <= 1.0,
    "[0, 1]": lambda v: 0.0 <= v <= 1.0,
    "(0, inf)": lambda v: 0.0 < v < math.inf,
    "[0, inf)": lambda v: 0.0 <= v < math.inf,
}


def _require_reals(interval: str, **values) -> None:
    """Raise ConfigurationError naming the first of the values that is no real
    number (a string, None and True included) or lies outside interval, one of
    the keys of _INTERVALS. A float skips the numbers.Real check, an ABC lookup
    that costs more than the test."""
    inside = _INTERVALS[interval]
    for name, value in values.items():
        if not ((type(value) is float or (type(value) is not bool
                                          and isinstance(value, numbers.Real)))
                and inside(value)):
            raise ConfigurationError(f"{name} must lie in {interval}, got {value!r}")


def _require_rows(n_obs: int, need: int, what: str) -> None:
    """Raise DataError "<what> needs N >= <need>, got N=<n_obs>" if n_obs < need."""
    if n_obs < need:
        raise DataError(f"{what} needs N >= {need}, got N={n_obs}")


def _checked_dt_tau(dt_tau) -> float:
    """dt_tau as a float: the (0, 1] case of _require_reals, with a fast path
    for a float inside it."""
    if type(dt_tau) is float and 0.0 < dt_tau <= 1.0:
        return dt_tau
    _require_reals("(0, 1]", **{"dt/tau": dt_tau})
    return float(dt_tau)


def _require_lists(**values) -> None:
    """Raise ConfigurationError naming the first of the values that is a bare
    string, or no collection at all, where a list is expected: "lc" would
    iterate as 'l' and 'c', and 5 or a generator cannot be read twice."""
    for name, value in values.items():
        if isinstance(value, str) or not isinstance(value, Collection):
            raise ConfigurationError(
                f"{name} must be a list, such as [{value!r}], not {value!r}")


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
