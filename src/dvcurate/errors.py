"""Domain error taxonomy.

Every error that a CLI command can surface derives from DVCurateError so the
command layer can emit one structured report and exit 1.  Position-bearing
errors (parse and ingest failures) carry line/column or line/field attributes.
"""

from __future__ import annotations


class DVCurateError(Exception):
    """Base class for all domain errors raised by dvcurate."""

    def report(self) -> dict:
        """Machine-readable error record for CLI output."""
        return {"error": type(self).__name__, "message": str(self)}


class SpecSyntaxError(DVCurateError):
    """Malformed task-spec or query text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col

    def report(self) -> dict:
        return {**super().report(), "line": self.line, "col": self.col}


class SpecRangeError(DVCurateError):
    """A parsed numeric value violates a field invariant (e.g. x1 < x0)."""

    def __init__(self, field: str, message: str, line: int | None = None, col: int | None = None):
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"{field}: {message}{where}")
        self.field = field
        self.message = message
        self.line = line
        self.col = col

    def report(self) -> dict:
        out = {**super().report(), "field": self.field}
        if self.line is not None:
            out["line"] = self.line
            out["col"] = self.col
        return out


class DegenerateRegion(DVCurateError):
    """Zero-area spatial region with conflicting point boxes; nothing to sample."""


class KindMismatch(DVCurateError):
    """Two supports of different kinds were compared."""


class EmptyDataset(DVCurateError):
    """A profile or synthesis was requested over zero records."""


class DVNotMeasured(DVCurateError):
    """A DV was asked for that the corpus never measured."""

    def __init__(self, dv: str, reason: str):
        super().__init__(f"{dv} is not measured: {reason}")
        self.dv = dv

    def report(self) -> dict:
        return {**super().report(), "dv": self.dv}


class SchemaError(DVCurateError):
    """A dataset record violates the line-delimited schema."""

    def __init__(self, line: int, field: str, message: str):
        super().__init__(f"line {line}, field {field!r}: {message}")
        self.line = line
        self.field = field

    def report(self) -> dict:
        return {**super().report(), "line": self.line, "field": self.field}


class QuaternionNormError(DVCurateError):
    """A record carries a quaternion too far from unit norm."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line

    def report(self) -> dict:
        return {**super().report(), "line": self.line}


class NoVerbFound(DVCurateError):
    """No manipulation verb from the lexicon occurs in the instructions."""


class NoObjectFound(DVCurateError):
    """Verbs found, but no candidate object noun could be extracted."""


class DegeneratePose(DVCurateError):
    """Camera position coincides with the table center."""


class AnnotatorUnavailable(DVCurateError):
    """The color annotator cannot answer for this record."""


class UnrecognizedColor(DVCurateError):
    """The annotator returned a label outside the canonical color table."""


class DuplicateId(DVCurateError):
    """Two records share an id."""


class EmptyPoolSelected(DVCurateError):
    """Mixture weight routes draws to an empty id pool."""


class SegmentationMismatch(DVCurateError):
    """Gripper transition count disagrees with the goal primitive count."""


class DegenerateAnchor(DVCurateError):
    """Anchor pose carries a non-unit quaternion, or moves a synthesized
    trajectory past the float range or to a junction the bridge step cannot
    fill."""


class ConfigError(DVCurateError):
    """An enumeration setting is out of range (`spatial_combinations` < 1)."""


class InputError(DVCurateError, ValueError):
    """A command-line value, environment setting or side file cannot be read."""
