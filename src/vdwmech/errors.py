"""Exception hierarchy.

Input-side problems (bad values, bad files, bad geometry) derive from
InputError; failures of the numerics (eigensolvers, unstable spectra,
diverging integration) derive from NumericalError.  The CLI maps the two
branches to exit codes 1 and 2.  ``read_text`` reads every input file, so
a file that is not UTF-8 is a ParseError.
"""

import numbers


class VdwmechError(Exception):
    pass


class InputError(VdwmechError, ValueError):
    """Invalid argument, configuration, or file content."""


class GeometryError(InputError):
    """Atoms closer than the overlap guard or otherwise unusable geometry."""


class TopologyError(InputError):
    """Bond detection produced a chemically implausible network."""


class DegenerateGeometryError(InputError):
    """A bonded term cannot be evaluated (e.g. dihedral with collinear inner bond)."""


class ParseError(InputError):
    """Malformed input file."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        if loc:
            message = f"{loc}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


def read_text(path) -> str:
    """The contents of a UTF-8 text file; undecodable bytes are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})", path) from None


def check_count(name: str, value, minimum: int = 0) -> None:
    """InputError naming ``name`` unless ``value`` is a non-bool integer >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {value!r}")


class NumericalError(VdwmechError, RuntimeError):
    """A numerical routine failed to produce a usable result."""


class InstabilityError(NumericalError):
    """The coupled-oscillator spectrum has a negative mode.

    Carries the index of the offending eigenmode; the geometry is outside
    the model's range of validity.
    """

    def __init__(self, message: str, mode_index: int):
        super().__init__(message)
        self.mode_index = mode_index


class IntegrationError(NumericalError):
    """Time integration diverged."""
