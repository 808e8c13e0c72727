"""Exception types shared across the package, and the JSON file reader."""

import json


class PathNormError(Exception):
    """Base class for all package-specific failures."""


class NumericalError(PathNormError):
    """A numerical procedure could not reach its contract."""


class NonIntegrable(NumericalError):
    """The curvature integral shows no sign of converging."""


class NoAsymptote(NumericalError):
    """Edge sampling of f and f' did not stabilize to a linear asymptote."""


class NoConvergence(NumericalError):
    """An iterative refinement hit its cap before meeting the target."""


class DimMismatch(PathNormError, ValueError):
    """Input dimension does not match the network."""


class NotRelu1D(PathNormError, ValueError):
    """A one-dimensional ReLU routine was given another kind of net."""


class OutOfRange(PathNormError, ValueError):
    """Data outside the domain a routine is defined on."""


class TooLarge(PathNormError):
    """The instance exceeds the size cap of an enumeration routine."""


class WidthMismatch(PathNormError, ValueError):
    """Source width is incompatible with the requested block layout."""


class NormBudgetViolated(PathNormError):
    """A candidate function exceeds the norm budget of its class."""


class EmptyDataset(PathNormError, ValueError):
    """Risk of an empty sample is undefined."""


class Diverged(NumericalError):
    """Training objective became non-finite."""


class LambdaTooSmall(PathNormError, ValueError):
    """Regularization weight below the level the risk bound requires."""


class ParseError(PathNormError, ValueError):
    """A model or activation file could not be parsed.

    Carries best-effort location info for JSON errors.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


def load_json(path, what: str):
    """Parsed contents of the JSON file at path; `what` names the file kind."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", exc.lineno, exc.colno)
