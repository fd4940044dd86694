"""The package's one exception type.

A ConfigError is a rejected input or value: user-supplied data, a file or a
configuration setting that the package refuses. Its message says what was
refused and where, and the CLI prints it and exits with code 2. Unexpected
exceptions (bugs) fall through and map to exit code 1.
"""


class ConfigError(Exception):
    """A rejected input or value; the CLI maps it to exit code 2."""
