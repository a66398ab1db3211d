"""Exception types shared across the package."""


class ElabcatError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPermutation(ElabcatError):
    """Image list is not a bijection on {0, ..., degree-1}."""


class CapExceeded(ElabcatError):
    """An enumeration, or a size estimate made before one, passed its cap.

    The guard attribute names which cap fired, so callers (and the CLI)
    can report it without parsing the message.
    """

    def __init__(self, guard: str, message: str):
        super().__init__(message)
        self.guard = guard


class CatalogMismatch(ElabcatError):
    """Objects from different ambient groups or primes were mixed."""


class NotSymmetric(ElabcatError):
    """Polynomial is not invariant under variable permutations."""


class NotMaximal(ElabcatError):
    """Fibre index requested at a non-maximal object."""


class ClosureGuardError(ElabcatError):
    """Closure input is missing required conjugation-induced morphisms."""


class InputFormatError(ElabcatError):
    """Malformed input: a group, character or category document, a
    command-line value, or an ELABCAT_* cap setting."""
