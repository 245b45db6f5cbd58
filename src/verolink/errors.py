"""The one exception type of the package.

Bad input, to the library and the CLI alike, raises ``ValueError``.  A
size stop is not bad input, so ``SizeCapExceeded`` is a plain
``Exception``: an ``except ValueError`` never swallows it.
"""


class SizeCapExceeded(Exception):
    """An enumeration grew past the configured size cap."""
