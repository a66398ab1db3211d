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
are read from the environment alone.

Every input document is read here too, by read against a table of its
fields' types, and each integer of the command line and the caps by
number: the one place a type is checked and a type error worded.
"""

import json
import os
from typing import Callable, NamedTuple, NoReturn

from .errors import CapExceeded, InputFormatError

DEFAULTS = {
    "element_cap": 65536,
    "catalog_cap": 5000,
    "hom_count_cap": 2_000_000,
    "term_cap": 200_000,
}


def cap(name: str) -> int:
    """Current value of a named cap, honoring environment overrides."""
    raw = os.environ.get("ELABCAT_" + name.upper())
    return DEFAULTS[name] if raw is None else number(raw, NATURAL, f"bad ELABCAT_{name.upper()}")


def refuse(name: str, text: str) -> NoReturn:
    """Raise CapExceeded(name) for text, naming the variable that raises
    the cap."""
    raise CapExceeded(name, f"{text}; raise ELABCAT_{name.upper()} to allow more")


# -- input documents --------------------------------------------------


class Ints(NamedTuple):
    """The integers passing test, named in messages by words."""
    words: str
    test: Callable[[int], bool]


INT64 = Ints("an integer of at most 64 bits", lambda v: -2 ** 63 <= v < 2 ** 63)
POSITIVE = Ints("a positive integer", lambda v: v > 0)
NATURAL = Ints("a non-negative integer", lambda v: v >= 0)
_WORDS = {str: "a string", int: "an integer", dict: "an object", list: "a list"}


def number(text: str, kind: Ints, place: str) -> int:
    """text, a command-line value or a setting, as an integer of kind: an
    optional sign and ASCII digits, nothing else (int() takes more);
    InputFormatError, its message after place, if it is none."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    try:
        if digits.isascii() and digits.isdigit() and kind.test(value := int(text)):
            return value
    except ValueError:              # past int()'s limit on digits
        pass
    raise InputFormatError(f"{place}: expected {kind.words}, got {text!r}")


def _fits(value, kind) -> bool:
    if kind is int or isinstance(kind, Ints):
        # a JSON integer is an int, never a bool (true and false are bools)
        return type(value) is int and (kind is int or kind.test(value))
    if isinstance(kind, tuple):             # the strings allowed
        return value in kind
    return kind is object or isinstance(value, kind)


def read(doc, table, where, at: str = ""):
    """doc, a JSON value from where, checked against table: str, int,
    object (any value), an Ints, a tuple of the strings allowed, [T] for a
    list of T, or {key: T} for an object with those keys (others ignored),
    "key?" for one that may be left out or null.  Returns doc, each object
    cut to its table's keys present.  InputFormatError names the first
    value that does not fit by its place at in doc (claims[2].args.kind).
    """
    kind = type(table) if isinstance(table, (dict, list)) else table
    if not _fits(doc, kind):
        words = (kind.words if isinstance(kind, Ints) else _WORDS.get(kind)
                 or f"one of {', '.join(map(json.dumps, kind))}")
        shown = json.dumps(doc)
        shown = shown if len(shown) <= 40 else shown[:37] + "..."
        place = f"bad {at}: expected {words}" if at else f"expected {words} at top level"
        raise InputFormatError(f"{where}: {place}, got {shown}")
    if isinstance(table, dict):
        out = {}
        for key, inner in table.items():
            name = key.rstrip("?")
            place = f"{at}.{name}" if at else name
            if key != name and doc.get(name) is None:       # optional, left out or null
                continue
            if name not in doc:
                raise InputFormatError(f"{where}: missing key {place!r}")
            out[name] = read(doc[name], inner, where, place)
        return out
    # a list of scalars takes one pass, and goes item by item only to name a misfit
    if isinstance(table, list) and (isinstance(table[0], (dict, list))
                                    or not all(_fits(v, table[0]) for v in doc)):
        return [read(v, table[0], where, f"{at}[{k}]") for k, v in enumerate(doc)]
    return doc


def read_file(path, table):
    """The JSON document at path, checked against table by read."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}")
    except (ValueError, RecursionError) as e:      # not JSON, not UTF-8, or nested too deep
        raise InputFormatError(f"{path} is not valid JSON: {e}")
    return read(doc, table, path)
