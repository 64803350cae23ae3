"""Exception hierarchy shared by all pemnet modules, and the line reader of
their file loaders."""


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


def _data_lines(path: str, empty: str) -> tuple[tuple[int, str], list[tuple[int, str]]]:
    """(header, rows) of a text file: its non-blank lines as (physical line
    number, stripped text), the first one apart. A file with no non-blank line
    raises FileFormatError "<path>: <empty>"."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise FileFormatError(f"{path}: {empty}")
    return lines[0], lines[1:]
