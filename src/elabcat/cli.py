"""Command line reporting.

Subcommands: analyze, gallery, dickson, symreduce, pregular, closure.
All structured output is JSON with a fixed key order; --pretty changes
only whitespace.  Timing lives under the single "timing" key so reports
are byte-comparable once that key is dropped.

Exit codes: 0 success, 1 internal error, 2 malformed input (a document,
a command-line value or a cap setting), 3 a resource guard fired (the
message names it), 4 a gallery claim failed, 5 closure input was missing
required conjugation morphisms.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import __version__
from . import categories as cg
from . import chern, fppoly, gallery
from .elabs import ElabCatalog, enumerate_elabs, p_rank
from .errors import (CapExceeded, ClosureGuardError, ElabcatError,
                     InputFormatError)
from .groups import FiniteGroup, close_generators


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputFormatError(f"{path} is not valid JSON: {e}")


def _is_int(value) -> bool:
    """A JSON integer: json reads true and false as bools, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_group(path: str) -> FiniteGroup:
    """Group document: {"name": str, "degree": int, "generators": [[int..]..]}."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: expected an object at top level")
    for key in ("degree", "generators"):
        if key not in doc:
            raise InputFormatError(f"{path}: missing key {key!r}")
    degree = doc["degree"]
    gens = doc["generators"]
    if not _is_int(degree) or degree <= 0:
        raise InputFormatError(f"{path}: degree must be a positive integer")
    if not isinstance(gens, list) or not all(
            isinstance(g, list) and all(map(_is_int, g)) for g in gens):
        raise InputFormatError(
            f"{path}: generators must be a list of lists of integer images")
    name = doc.get("name", Path(path).stem)
    try:
        return close_generators(degree, gens, name=str(name))
    except (CapExceeded, InputFormatError):
        raise
    except Exception as e:
        raise InputFormatError(f"{path}: bad generator data: {e}")


def _dump(doc: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(doc, indent=2)
    return json.dumps(doc, separators=(",", ":"))


# -- analyze ----------------------------------------------------------


def parse_kind(text: str, p: int) -> cg.CategoryKind:
    """A kind label, checked against the prime; raises ValueError."""
    kind = cg.CategoryKind.parse(text)
    if kind.tag == "AprimeD" and (p - 1) % kind.param:
        raise ValueError(f"{kind.label()} needs a divisor of {p - 1} at p={p}")
    return kind


def default_kinds(p: int, prank: int, max_n: Optional[int]) -> list[cg.CategoryKind]:
    kinds = [cg.A, cg.APRIME]
    kinds += [cg.aprime_d(d) for d in range(2, p) if (p - 1) % d == 0]
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
    reps = catalog.class_reps

    t1 = time.perf_counter()
    kind_section: dict[str, Any] = {}
    for kind in kinds:
        C = cg.build_category(kind, catalog)
        sizes = [[len(C.hom(ri, rj)) for rj in reps] for ri in reps]
        comps = cg.maximal_objects(C)
        comp_classes = sorted(sorted({catalog.class_of[i] for i in comp})
                              for comp in comps)
        kind_section[kind.label()] = {
            "hom_sizes": sizes,
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
    fibres = []
    aut_a = cg.build_category(cg.A, catalog)
    aut_aprime = cg.build_category(cg.APRIME, catalog)
    for c in catalog.maximal_class_indices():
        rep = catalog.class_reps[c]
        E = catalog.subgroups[rep]
        num = len(aut_aprime.hom(rep, rep))
        den = len(aut_a.hom(rep, rep))
        ratio = Fraction(num, den)
        fibres.append({
            "class": c,
            "rank": E.rank,
            "aut_a": den,
            "aut_aprime": num,
            "index": [ratio.numerator, ratio.denominator],
        })
    timing["fibres"] = round(time.perf_counter() - t3, 6)

    notes = []
    if prank == 0:
        notes.append(f"no {p}-torsion")

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
                {"rank": E.rank, "basis": list(E.basis),
                 "class": catalog.class_of[i], "maximal": catalog.maximal[i]}
                for i, E in enumerate(catalog.subgroups)],
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
    if args.kinds:
        try:
            kinds = [parse_kind(tok, args.prime)
                     for tok in args.kinds.split(",") if tok.strip()]
        except ValueError as e:
            raise InputFormatError(f"bad --kinds value: {e}")
    report = analyze_report(G, args.prime, kinds, args.max_n)
    print(_dump(report, args.pretty))
    return 0


# -- gallery ----------------------------------------------------------


def cmd_gallery(args) -> int:
    names = [args.entry] if args.entry else gallery.entry_names()
    all_ok = True
    for name in names:
        report = gallery.verify_gallery(gallery.load_entry(name))
        for res in report.results:
            status = "PASS" if res.ok else "FAIL"
            all_ok = all_ok and res.ok
            print(f"{status} {report.name} {res.claim_id} [{res.provenance}]: "
                  f"expected {json.dumps(res.expected)}, "
                  f"computed {json.dumps(res.computed)}")
    return 0 if all_ok else 4


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


def cmd_pregular(args) -> int:
    G = load_group(args.group)
    catalog = enumerate_elabs(G, args.prime)
    which = args.character
    if which == "regular":
        chi = chern.regular_character(G)
    elif which == "permutation":
        chi = chern.permutation_character(G)
    elif which == "trivial":
        chi = chern.trivial_character(G)
    else:
        doc = _load_json(which)
        if not isinstance(doc, dict) or "values" not in doc:
            raise InputFormatError(f"{which}: expected {{\"values\": [...]}}")
        values = doc["values"]
        if (not isinstance(values, list)
                or len(values) != G.conjugacy.class_count()
                or not all(map(_is_int, values))):
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
    """Category document: optional "base_kind" plus explicit homs.

    Each hom record carries domain and codomain as sorted element index
    lists (into the group's canonical element order) and a list of
    matrices, rows over F_p.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: expected an object at top level")
    base = doc.get("base_kind")
    kind_homs: dict[tuple[int, int], np.ndarray] = {}
    if base is not None:
        try:
            kind = parse_kind(base, catalog.prime)
        except ValueError as e:
            raise InputFormatError(f"{path}: bad base_kind: {e}")
        kind_homs = cg.build_category(kind, catalog).hom_dict()
    homs: dict[tuple[int, int], list] = {}
    records = doc.get("homs", [])
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and {"domain", "codomain", "matrices"} <= set(r)
            for r in records):
        raise InputFormatError(f"{path}: homs must be a list of objects with "
                               f"domain, codomain and matrices")
    for rec in records:
        ends = [rec["domain"], rec["codomain"]]
        if not all(isinstance(e, list) and all(map(_is_int, e)) for e in ends):
            raise InputFormatError(
                f"{path}: hom record domain and codomain must be lists of integers")
        try:
            i, j = (catalog._by_elements[tuple(sorted(e))] for e in ends)
        except KeyError:
            raise InputFormatError(
                f"{path}: hom record names an element set that is not a "
                f"catalog subgroup")
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        mats = rec["matrices"]
        if not isinstance(mats, list) or not all(
                isinstance(M, list) and len(M) == F.rank and all(
                    isinstance(r, list) and len(r) == E.rank and all(map(_is_int, r))
                    for r in M) for M in mats):
            raise InputFormatError(
                f"{path}: bad matrix: each needs {F.rank} rows of {E.rank} integers")
        homs.setdefault((i, j), []).extend(
            cg.column_codes(M, catalog.prime) for M in mats)
    try:
        explicit = cg.explicit_category(catalog, homs)
    except (ValueError, ElabcatError) as e:
        raise InputFormatError(f"{path}: invalid morphism: {e}")
    # the kind's hom-sets are valid, sorted and distinct as built
    merged = dict(kind_homs)
    for key, cols in explicit.hom_dict().items():
        if key in kind_homs:
            cols = cg.distinct_rows(np.concatenate([kind_homs[key], cols]))
        merged[key] = cols
    return cg.SubgroupCategory(catalog, None, merged)


def cmd_closure(args) -> int:
    G = load_group(args.group)
    catalog = enumerate_elabs(G, args.prime)
    C = load_category(args.category, catalog)
    before = {k: len(v) for k, v in C.hom_dict().items()}
    closed = cg.closure(C)
    after = {k: len(v) for k, v in closed.hom_dict().items()}
    changed = []
    for key in sorted(set(before) | set(after)):
        b, a = before.get(key, 0), after.get(key, 0)
        if a != b:
            changed.append({"domain": key[0], "codomain": key[1],
                            "before": b, "after": a})
    report = {
        "tool": "elabcat",
        "version": __version__,
        "group": {"name": G.name, "degree": G.degree, "order": G.order},
        "prime": args.prime,
        "already_closed": not changed,
        "hom_count_before": sum(before.values()),
        "hom_count_after": sum(after.values()),
        "pairs_changed": changed,
    }
    print(_dump(report, args.pretty))
    return 0


# -- entry point ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elabcat",
        description="subgroup category and Chern class reports")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one group")
    pa.add_argument("group", help="path to a group JSON document")
    pa.add_argument("--prime", type=int, required=True)
    pa.add_argument("--kinds", help="comma list, e.g. A,Aprime,An(2),Creg")
    pa.add_argument("--max-n", type=int, default=None,
                    help="largest An(n) kind to include")
    pa.add_argument("--pretty", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("gallery", help="recheck the bundled example claims")
    pg.add_argument("entry", nargs="?", help="one entry name (default: all)")
    pg.set_defaults(func=cmd_gallery)

    pd = sub.add_parser("dickson", help="regular weight list invariants")
    pd.add_argument("--prime", type=int, required=True)
    pd.add_argument("--rank", type=int, required=True)
    pd.set_defaults(func=cmd_dickson)

    ps = sub.add_parser("symreduce",
                        help="regular product in the elementary symmetric basis")
    ps.add_argument("--prime", type=int, required=True)
    ps.add_argument("--rank", type=int, required=True)
    ps.set_defaults(func=cmd_symreduce)

    pp = sub.add_parser("pregular", help="p-regularity test for a character")
    pp.add_argument("group", help="path to a group JSON document")
    pp.add_argument("--prime", type=int, required=True)
    pp.add_argument("--character", required=True,
                    help="regular, permutation, trivial, or a values file")
    pp.set_defaults(func=cmd_pregular)

    pc = sub.add_parser("closure", help="close an explicit hom collection")
    pc.add_argument("group", help="path to a group JSON document")
    pc.add_argument("--prime", type=int, required=True)
    pc.add_argument("--category", required=True,
                    help="path to a category JSON document")
    pc.add_argument("--pretty", action="store_true")
    pc.set_defaults(func=cmd_closure)
    return parser


def check_numbers(args) -> None:
    """Reject a --prime that is not prime, a --rank below 1 and a negative
    --max-n."""
    p = getattr(args, "prime", None)
    if p is not None and (p < 2 or any(p % q == 0
                                       for q in range(2, isqrt(p) + 1))):
        raise InputFormatError(f"--prime {p} is not a prime")
    n = getattr(args, "rank", None)
    if n is not None and n < 1:
        raise InputFormatError(f"--rank must be at least 1, got {n}")
    m = getattr(args, "max_n", None)
    if m is not None and m < 0:
        raise InputFormatError(f"--max-n must be non-negative, got {m}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_numbers(args)
        return args.func(args)
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
