"""Command line reporting.

Subcommands: analyze, gallery, dickson, symreduce, pregular, closure,
each read off one table, COMMANDS, by parse_args: ``elabcat COMMAND
[ARGS]``, the command's options (--name VALUE or --name=VALUE, a flag
alone) and positionals in any order after it.  Option names are exact:
no abbreviations and no ``--`` separator.  -h/--help, alone or after a
command, prints usage lines; --version prints the version.

All structured output is JSON with a fixed key order; --pretty changes
only whitespace.  Timing lives under the single "timing" key so reports
are byte-comparable once that key is dropped.

Exit codes: 0 success, 1 internal error, 2 malformed input (a command
line, a document, a command-line value or a cap setting), 3 a resource guard fired (the
message names it), 4 a gallery claim failed, 5 closure input was missing
required conjugation morphisms, 141 (128 + SIGPIPE) stdout was closed early.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import count
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from . import categories as cg
from . import chern, fppoly, gallery
from .elabs import ElabCatalog, enumerate_elabs, p_rank
from .config import DEFAULTS, INT64, NATURAL, POSITIVE, cap, number, read_file
from .errors import (CapExceeded, CatalogMismatch, ClosureGuardError, ElabcatError,
                     InputFormatError, InvalidPermutation)
from .fpmat import PRIME, is_prime
from .groups import FiniteGroup, close_generators


# the documents the commands read, each a table for config.read
GROUP = {"name?": str, "degree": POSITIVE, "generators": [[INT64]]}
CATEGORY = {"base_kind?": str,
            "homs?": [{"domain": [int], "codomain": [int], "matrices": [[[int]]]}]}
CHARACTER = {"values": [int]}


def load_group(path: str) -> FiniteGroup:
    """Group document: {"name": str, "degree": int, "generators": [[int..]..]};
    a name left out or null is the file's stem."""
    doc = read_file(path, GROUP)
    try:
        return close_generators(doc["degree"], doc["generators"],
                                name=doc.get("name", Path(path).stem))
    except InvalidPermutation as e:
        raise InputFormatError(f"{path}: bad generator data: {e}")


def _dump(doc: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(doc, indent=2)
    return json.dumps(doc, separators=(",", ":"))


# -- analyze ----------------------------------------------------------


def _rho(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho with Brent's
    cycle search and batched gcds (Brent, BIT 20, 1980)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g, k = gcd(q, n), k + 128
            r *= 2
        if g == n:          # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1: trial division of the shrinking
    cofactor by the d below 1000 up to its square root, then Pollard-Brent
    rho on what is left, each part tested with is_prime."""
    out: dict[int, int] = {}
    d = 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            rest += [f, m // f]
    return out


def default_kinds(p: int, prank: int, max_n: Optional[int]) -> list[cg.CategoryKind]:
    kinds = [cg.A, cg.APRIME]
    # the divisors d > 1 of p-1, from its prime factors
    divisors = [1]
    for q, e in prime_factors(p - 1).items():
        divisors = [d * q ** k for d in divisors for k in range(e + 1)]
    kinds += [cg.aprime_d(d) for d in sorted(divisors)[1:]]
    top = prank if max_n is None else min(max_n, prank)
    kinds += [cg.a_n(n) for n in range(1, top + 1)]
    return kinds


def analyze_report(G: FiniteGroup, p: int,
                   kinds: Optional[Sequence[cg.CategoryKind]] = None,
                   max_n: Optional[int] = None) -> dict:
    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    catalog = enumerate_elabs(G, p)
    timing["catalog"] = round(time.perf_counter() - t0, 6)
    prank = p_rank(catalog)
    if kinds is None:
        kinds = default_kinds(p, prank, max_n)

    t1 = time.perf_counter()
    kind_section: dict[str, Any] = {}
    k, listed = catalog.class_count(), []
    for kind in kinds:
        C = cg.build_category(kind, catalog)
        comps = cg.maximal_objects(C)
        comp_classes = sorted(sorted(set(catalog.class_of[comp].tolist())) for comp in comps)
        # the report lists every pair; kinds with equal class sizes (those
        # sharing a catalog.sizes entry, and others) share one list
        keys, sizes = C.class_sizes()
        hom_sizes = next((rows for a, b, rows in listed
                          if len(a) == len(keys) and (a == keys).all() and (b == sizes).all()), None)
        if hom_sizes is None:
            dense = np.zeros((k, k), dtype=np.int64)
            np.put(dense, keys, sizes)
            hom_sizes = dense.tolist()
            listed.append((keys, sizes, hom_sizes))
        kind_section[kind.label()] = {
            "hom_sizes": hom_sizes,
            "component_count": len(comps),
            "maximal_components": comp_classes,
        }
    timing["kinds"] = round(time.perf_counter() - t1, 6)

    t2 = time.perf_counter()
    verdict = cg.categories_equal(cg.A, cg.APRIME, catalog)
    divergence = None
    if not verdict.equal:
        divergence = {
            "domain_class": verdict.domain_class,
            "codomain_class": verdict.codomain_class,
            "matrix": [list(r) for r in verdict.matrix],
            "only_in": verdict.only_in,
        }
    collapse = 0
    for n in range(1, prank + 1):
        if cg.categories_equal(cg.a_n(n), cg.A, catalog).equal:
            collapse = n
            break
    timing["verdicts"] = round(time.perf_counter() - t2, 6)

    t3 = time.perf_counter()
    ranks, reps = catalog.ranks(), catalog.class_reps
    fibres = [{"class": c, "rank": ranks.item(reps[c]), "aut_a": a, "aut_aprime": b,
               "index": list(index)}
              for c, (a, b, index) in cg.fibre_indices(catalog).items()]
    timing["fibres"] = round(time.perf_counter() - t3, 6)

    notes = []
    if prank == 0:
        notes.append(f"no {p}-torsion")

    # a basis is the by_code entries at the codes p^k, read off each rank's rows
    bases = [b for r, codes in enumerate(catalog.codes)
             for b in codes[:, p ** np.arange(r)].tolist()]
    report = {
        "tool": "elabcat",
        "version": __version__,
        "group": {"name": G.name, "degree": G.degree, "order": G.order},
        "prime": p,
        "catalog": {
            "size": len(catalog),
            "class_count": catalog.class_count(),
            "classes_by_rank": {str(r): c
                                for r, c in sorted(catalog.classes_by_rank().items())},
            "p_rank": prank,
            "subgroups": [
                {"rank": r, "basis": b, "class": c, "maximal": m} for r, b, c, m in zip(
                    catalog.ranks().tolist(), bases, catalog.class_of.tolist(),
                    catalog.maximal.tolist())],
        },
        "kinds": kind_section,
        "verdicts": {
            "a_equals_aprime": bool(verdict.equal),
            "divergence": divergence,
            "an_collapse": collapse,
        },
        "fibre_indices": fibres,
        "notes": notes,
        "timing": timing,
    }
    return report


def cmd_analyze(args) -> int:
    G = load_group(args.group)
    kinds = None
    if args.kinds is not None:
        kinds = [cg.parse_kind(tok, args.prime, "bad --kinds value")
                 for tok in args.kinds.split(",") if tok.strip()]
        if not kinds:
            raise InputFormatError(f"bad --kinds value: {args.kinds!r} names no kind")
    report = analyze_report(G, args.prime, kinds, args.max_n)
    print(_dump(report, args.pretty))
    return 0


# -- gallery ----------------------------------------------------------


def cmd_gallery(args) -> int:
    names = [args.entry] if args.entry else gallery.entry_names()
    failed = 0
    for name in names:
        report = gallery.verify_gallery(gallery.load_entry(name))
        for res in report.results:
            failed += not res.ok
            print(f"{'PASS' if res.ok else 'FAIL'} {report.name} {res.claim_id} "
                  f"[{res.provenance}]: expected {json.dumps(res.expected)}, "
                  f"computed {json.dumps(res.computed)}")
    if failed:
        print(f"error: gallery claims failed: {failed}", file=sys.stderr)
    return 4 if failed else 0


# -- polynomial commands ----------------------------------------------


def cmd_dickson(args) -> int:
    rep = chern.dickson_check(args.prime, args.rank)
    for d in rep.found_degrees:
        print(f"c{d} = {rep.total.homogeneous_part(d).format()}")
    print(f"degrees = {list(rep.found_degrees)}")
    print(f"invariant = {'true' if rep.invariant_ok else 'false'}")
    return 0 if rep.ok else 1


def cmd_symreduce(args) -> int:
    P = chern.regular_rep_product(args.prime, args.rank)
    print(fppoly.symmetric_reduce(P).format("s"))
    return 0


# the characters pregular names; any other --character is a file of values
CHARACTERS = {"regular": chern.regular_character, "permutation": chern.permutation_character,
              "trivial": chern.trivial_character}


def cmd_pregular(args) -> int:
    G = load_group(args.group)
    catalog = enumerate_elabs(G, args.prime)
    which = args.character
    if which in CHARACTERS:
        chi = CHARACTERS[which](G)
    else:
        values = read_file(which, CHARACTER)["values"]
        if len(values) != G.conjugacy.class_count():
            raise InputFormatError(
                f"{which}: need {G.conjugacy.class_count()} integer class values")
        chi = chern.CharacterVector(G, tuple(values))
    failures = chern.p_regular_failures(G, args.prime, chi, catalog)
    if failures:
        print(f"false ({'; '.join(failures)})")
    else:
        print("true")
    return 0


# -- closure ----------------------------------------------------------


def load_category(path: str, catalog: ElabCatalog) -> cg.SubgroupCategory:
    """Category document: optional "base_kind" plus explicit homs, read
    as a category over that kind with the homs as its explicit maps.

    Each hom record carries domain and codomain as sorted element index
    lists (into the group's canonical element order) and a list of
    matrices, rows over F_p.
    """
    doc = read_file(path, CATEGORY)
    kind = (cg.parse_kind(doc["base_kind"], catalog.prime, f"{path}: bad base_kind")
            if "base_kind" in doc else None)
    homs: dict[tuple[int, int], list] = {}
    ranks = catalog.ranks()
    for rec in doc.get("homs", []):
        try:
            i, j = map(catalog.index_of_elements, (rec["domain"], rec["codomain"]))
        except CatalogMismatch:
            raise InputFormatError(
                f"{path}: hom record names an element set that is not a "
                f"catalog subgroup")
        rank_e, rank_f = ranks[[i, j]].tolist()
        mats = rec["matrices"]
        if not all(len(M) == rank_f and all(len(r) == rank_e for r in M) for M in mats):
            raise InputFormatError(
                f"{path}: bad matrix: each needs {rank_f} rows of {rank_e} integers")
        homs.setdefault((i, j), []).extend(
            cg.column_codes(M, catalog.prime) for M in mats)
    try:
        return cg.explicit_category(catalog, homs, kind)
    except (ValueError, ElabcatError) as e:
        raise InputFormatError(f"{path}: invalid morphism: {e}")


def cmd_closure(args) -> int:
    G = load_group(args.group)
    catalog = enumerate_elabs(G, args.prime)
    C = load_category(args.category, catalog)
    before = C.hom_count()          # counted first, as a row it reads may be refused
    closed = cg.closure(C)
    changed = [{"domain": i, "codomain": j, "before": b, "after": a}
               for i, j, b, a in cg.changed_pairs(C, closed)]
    report = {
        "tool": "elabcat",
        "version": __version__,
        "group": {"name": G.name, "degree": G.degree, "order": G.order},
        "prime": args.prime,
        "already_closed": not changed,
        "hom_count_before": before,
        "hom_count_after": closed.hom_count(),
        "pairs_changed": changed,
    }
    print(_dump(report, args.pretty))
    return 0


# -- entry point ------------------------------------------------------


class Command(NamedTuple):
    handler: Callable[[Any], int]
    help: str
    positionals: tuple[str, ...]    # in order; "[name]" may be left out
    options: dict[str, Any]         # str, bool for a flag, or the Ints read
    required: tuple[str, ...]       # options that must be given


COMMANDS = {
    "analyze": Command(cmd_analyze, "full report for one group", ("group",),
                       {"--prime": PRIME, "--kinds": str, "--max-n": NATURAL, "--pretty": bool},
                       ("--prime",)),
    "gallery": Command(cmd_gallery, "recheck the bundled example claims", ("[entry]",),
                       {}, ()),
    "dickson": Command(cmd_dickson, "regular weight list invariants", (),
                       {"--prime": PRIME, "--rank": POSITIVE}, ("--prime", "--rank")),
    "symreduce": Command(cmd_symreduce, "regular product in the elementary symmetric basis",
                         (), {"--prime": PRIME, "--rank": POSITIVE}, ("--prime", "--rank")),
    "pregular": Command(cmd_pregular, "p-regularity test for a character", ("group",),
                        {"--prime": PRIME, "--character": str}, ("--prime", "--character")),
    "closure": Command(cmd_closure, "close an explicit hom collection", ("group",),
                       {"--prime": PRIME, "--category": str, "--pretty": bool},
                       ("--prime", "--category")),
}


def usage(name: str) -> str:
    """The usage line of one command, read off COMMANDS."""
    cmd = COMMANDS[name]
    words = ["elabcat", name, *(p.upper() for p in cmd.positionals)]
    for opt, kind in cmd.options.items():
        word = opt if kind is bool else f"{opt} {opt[2:].upper().replace('-', '_')}"
        words.append(word if opt in cmd.required else f"[{word}]")
    return " ".join(words)


def print_help(args) -> int:
    if args.command:
        print(f"usage: {usage(args.command)}\n    {COMMANDS[args.command].help}")
        return 0
    print("usage: elabcat COMMAND [ARGS]\n       elabcat [COMMAND] --help\n"
          "       elabcat --version\n\n"
          "subgroup category and Chern class reports:")
    for name, cmd in COMMANDS.items():
        print(f"  {usage(name)}\n      {cmd.help}")
    return 0


def print_version(args) -> int:
    print(f"elabcat {__version__}")
    return 0


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read argv, COMMAND [ARGS], against COMMANDS.

    After the command, options (--name VALUE or --name=VALUE, a flag
    without a value) and positionals come in any order; a value may start
    with "-", and a repeated option keeps its last value; an integer
    option's value must fit its Ints as it is read.  Returns func (the
    handler), command, and one attribute per option (--max-n as max_n;
    None or False when left out) and per positional (None when left
    out).  -h or --help, alone or after a command, and a leading
    --version return the handler that prints them instead.  A malformed
    command line raises InputFormatError.
    """
    if not argv:
        raise InputFormatError(f"no command given; choose from {', '.join(COMMANDS)}")
    name, *rest = argv
    if name == "--version":
        return SimpleNamespace(func=print_version, command=None)
    if name in ("-h", "--help"):
        return SimpleNamespace(func=print_help, command=None)
    cmd = COMMANDS.get(name)
    if cmd is None:
        raise InputFormatError(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
    values = {opt: False if kind is bool else None for opt, kind in cmd.options.items()}
    given, tokens = [], iter(rest)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return SimpleNamespace(func=print_help, command=name)
        if not tok.startswith("-") or tok[1:].isdigit():
            given.append(tok)
            continue
        opt, eq, value = tok.partition("=")
        kind = cmd.options.get(opt)
        if kind is None:
            raise InputFormatError(f"{name}: unknown option {opt!r}")
        if kind is bool:
            if eq:
                raise InputFormatError(f"{name}: {opt} takes no value")
            values[opt] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise InputFormatError(f"{name}: {opt} needs a value")
        values[opt] = value if kind is str else number(value, kind, f"{name}: bad {opt}")
    wanted = [p.strip("[]") for p in cmd.positionals]
    if len(given) > len(wanted):
        raise InputFormatError(f"{name}: unexpected argument {given[len(wanted)]!r}")
    missing = [p.upper() for p in cmd.positionals[len(given):] if not p.startswith("[")]
    missing += [opt for opt in cmd.required if values[opt] is None]
    if missing:
        raise InputFormatError(f"{name}: missing {', '.join(missing)}")
    args = {opt[2:].replace("-", "_"): value for opt, value in values.items()}
    args.update(zip(wanted, given + [None] * len(wanted)))
    return SimpleNamespace(func=cmd.handler, command=name, **args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        for name in DEFAULTS:       # a malformed cap exits 2 whether or not it is read
            cap(name)
        code = args.func(args)
        sys.stdout.flush()          # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:         # the reader left: exit quietly, as a shell would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"error: guard {e.guard}: {e}", file=sys.stderr)
        return 3
    except ClosureGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except ElabcatError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except Exception as e:      # last resort: one line, never a traceback
        text = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {text}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
