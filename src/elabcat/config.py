"""Resource caps, each overridable through an environment variable, and
the one place a cap turns into a refusal.

ELABCAT_ELEMENT_CAP    max group order enumerated by close_generators (65536); its
                       element table may hold 64 entries per element of the cap
ELABCAT_CATALOG_CAP    max subgroups in one catalog (5000)
ELABCAT_HOM_COUNT_CAP  max exact morphisms in a materialized category, in a row
                       into class representatives, or in closure's base between
                       them; max bound on a searched hom-set, searched over a
                       catalog only between classes of one rank (2000000)
ELABCAT_TERM_CAP       max stored monomials per polynomial, or weights per list (200000)

A guard reads its cap with cap(name), compares, and calls refuse(name,
text): CapExceeded(name) with text and the variable to raise.  The caps
are read from the environment alone; only close_generators also takes a
bound of its own (from_elements bounds a closure by its list).
"""

import os
from typing import NoReturn

from .errors import CapExceeded, InputFormatError

DEFAULTS = {
    "element_cap": 65536,
    "catalog_cap": 5000,
    "hom_count_cap": 2_000_000,
    "term_cap": 200_000,
}


def cap(name: str) -> int:
    """Current value of a named cap, honoring environment overrides."""
    if name not in DEFAULTS:
        raise KeyError(f"unknown cap {name!r}")
    raw = os.environ.get("ELABCAT_" + name.upper())
    if raw is None:
        return DEFAULTS[name]
    try:
        return int(raw)
    except ValueError:
        raise InputFormatError(
            f"ELABCAT_{name.upper()} must be an integer, got {raw!r}")


def refuse(name: str, text: str) -> NoReturn:
    """Raise CapExceeded(name) for text, naming the variable that raises
    the cap."""
    raise CapExceeded(name, f"{text}; raise ELABCAT_{name.upper()} to allow more")
