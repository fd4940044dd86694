"""Exception types shared across the package.

Everything here signals a problem with user-supplied data or configuration,
so the CLI maps any GafuzzyError to exit code 2. Unexpected exceptions
(bugs) fall through and map to exit code 1.
"""


class GafuzzyError(Exception):
    """Base class for all validation and configuration errors."""


class ConfigError(GafuzzyError):
    """Invalid parameter value or malformed configuration file."""


# --- tabular data ---------------------------------------------------------

class MalformedRow(GafuzzyError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class WrongColumnCount(GafuzzyError):
    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"row {row}: expected {expected} columns, got {got}")
        self.row = row


class UnknownLabel(GafuzzyError):
    def __init__(self, row: int, value: str):
        super().__init__(f"row {row}: unknown label {value!r}")
        self.row = row
        self.value = value


class MissingFeature(GafuzzyError):
    def __init__(self, name: str):
        super().__init__(f"feature {name!r} missing from file")
        self.name = name


class DuplicateFeature(GafuzzyError):
    def __init__(self, name: str):
        super().__init__(f"feature {name!r} listed more than once")
        self.name = name


class UnknownFeature(GafuzzyError):
    def __init__(self, name: str):
        super().__init__(f"feature {name!r} not declared in the schema")
        self.name = name


class NegativeCost(GafuzzyError):
    def __init__(self, name: str, value: float):
        super().__init__(f"feature {name!r} has negative cost {value}")
        self.name = name


class LengthMismatch(GafuzzyError):
    pass


class EmptyMask(GafuzzyError):
    pass


class ClassTooSmall(GafuzzyError):
    pass


class EmptyInput(GafuzzyError):
    pass


# --- fuzzy inference ------------------------------------------------------

class ArityMismatch(GafuzzyError):
    pass


class UnknownTerm(GafuzzyError):
    pass


class NoRules(GafuzzyError):
    pass


# --- rule files -----------------------------------------------------------

class RuleParseError(GafuzzyError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


# --- GA / selection -------------------------------------------------------

class UnevaluatedPopulation(GafuzzyError):
    pass


class TooManyFeatures(GafuzzyError):
    pass


class FingerprintMismatch(GafuzzyError):
    pass
