"""Outside-in tracing of elabcat's public functions, from the benchmark's files.

Nothing under src/ changes: ``Tracer.install`` replaces each function in
TRACED, where it is defined and wherever a module re-binds it by name
(``from .elabs import enumerate_elabs`` in cli and gallery), with a
wrapper that records a span.  Methods and properties are replaced on
their class.  A name that no longer exists is recorded as absent and its
metrics read zero.  Inner-loop helpers (``mat_vec``, ``_check_matrix``,
``FiniteGroup.mul``) are deliberately not wrapped: their time lands in
the self time of the public function that calls them.

A span is (name, start, end, parent, job); spans stay in memory until the
worker writes them out.  Counts are taken at the same boundaries, from
call arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import defaultdict

# -- count hooks: (tracer, args, result) -> None ------------------------


def _close_generators(t, args, result):
    t.counts["groups.close_generators.elements"] += len(result)


def _conjugacy(t, args, result):
    t.counts["groups.FiniteGroup.conjugacy.classes"] += result.class_count()


def _centralizer(t, args, result):
    seen = t.seen_by(args[0])
    e = int(args[1])
    if e in seen:
        t.counts["groups.FiniteGroup.centralizer_indices.memo_hits"] += 1
    seen.add(e)


def _conjugate_indices(t, args, result):
    t.counts["groups.FiniteGroup.conjugate_indices.rows"] += len(args[2])


def _enumerate_elabs(t, args, result):
    t.counts["elabs.enumerate_elabs.subgroups"] += len(result.subgroups)
    t.counts["elabs.enumerate_elabs.classes"] += result.class_count()


def _hom_matrices(t, args, result):
    kind, E, F = args[:3]
    t.counts["categories.hom_matrices.search_space"] += t.injective_count(
        E.prime, F.rank, E.rank)
    t.counts["categories.hom_matrices.accepted"] += len(result)
    key = (kind, E.elements, F.elements, id(E.ambient))
    if key in t.job_keys:
        t.counts["categories.hom_matrices.repeats"] += 1
    t.job_keys.add(key)


def _category_hom(t, args, result):
    C = args[0]
    if C.kind is None:      # explicit categories hold every hom-set already
        return
    seen = t.seen_by(C)
    key = (args[1], args[2])
    t.counts["categories.SubgroupCategory.hom.lookups"] += 1
    if key in seen:
        t.counts["categories.SubgroupCategory.hom.hits"] += 1
    seen.add(key)


def _closure(t, args, result):
    # closure() has materialized its input by the time it returns
    t.counts["categories.closure.homs_in"] += sum(
        len(v) for v in args[0].hom_dict().values())
    t.counts["categories.closure.homs_out"] += sum(
        len(v) for v in result.hom_dict().values())


def _poly_mul(t, args, result):
    other = args[1]
    if hasattr(other, "terms"):
        t.counts["fppoly.product_terms"] += len(args[0].terms) * len(other.terms)


def _verify_gallery(t, args, result):
    t.counts["gallery.verify_gallery.claims"] += len(result.results)


# (module, attribute path, count hook, counts the hook records)
TRACED = (
    ("groups", "close_generators", _close_generators, ("elements",)),
    ("groups", "FiniteGroup.conjugacy", _conjugacy, ("classes",)),
    ("groups", "FiniteGroup.centralizer_indices", _centralizer, ()),
    ("groups", "FiniteGroup.conjugate_indices", _conjugate_indices, ("rows",)),
    ("groups", "FiniteGroup.transporter_indices", None, ()),
    ("elabs", "enumerate_elabs", _enumerate_elabs, ("subgroups", "classes")),
    ("elabs", "p_rank", None, ()),
    ("categories", "hom_matrices", _hom_matrices, ("search_space", "accepted")),
    ("categories", "SubgroupCategory.hom", _category_hom, ()),
    ("categories", "SubgroupCategory.materialize", None, ()),
    ("categories", "categories_equal", None, ()),
    ("categories", "maximal_objects", None, ()),
    ("categories", "closure", _closure, ("homs_in", "homs_out", "joins")),
    ("fppoly", "FpPolynomial.__mul__", _poly_mul, ()),
    ("fppoly", "symmetric_reduce", None, ()),
    ("chern", "regular_rep_product", None, ()),
    ("chern", "dickson_check", None, ()),
    ("chern", "p_regular_failures", None, ()),
    ("gallery", "verify_gallery", _verify_gallery, ("claims",)),
    ("cli", "main", None, ()),
    ("cli", "load_group", None, ()),
    ("cli", "load_category", None, ()),
    ("cli", "analyze_report", None, ()),
)

# ratios: name -> (numerator count, denominator count)
RATIOS = {
    "groups.FiniteGroup.centralizer_indices.memo_hit_ratio":
        ("groups.FiniteGroup.centralizer_indices.memo_hits",
         "groups.FiniteGroup.centralizer_indices.calls"),
    "categories.hom_matrices.accept_ratio":
        ("categories.hom_matrices.accepted", "categories.hom_matrices.search_space"),
    "categories.hom_matrices.repeat_ratio":
        ("categories.hom_matrices.repeats", "categories.hom_matrices.calls"),
    "categories.SubgroupCategory.hom.hit_ratio":
        ("categories.SubgroupCategory.hom.hits",
         "categories.SubgroupCategory.hom.lookups"),
}

# properties whose getter caches: only the first access per object is a span
_FIRST_ACCESS_ONLY = {"groups.FiniteGroup.conjugacy"}

# ratios of useful outcomes to attempts are better when higher
_HIGHER = {"memo_hit_ratio", "accept_ratio", "hit_ratio"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    modules = []
    for module, path, _hook, counts in TRACED:
        key = f"{module}.{path}"
        out.append((f"{key}.calls", "count", "lower"))
        out.append((f"{key}.self_s", "s", "lower"))
        out += [(f"{key}.{c}", "count", "lower") for c in counts]
        if module not in modules:
            modules.append(module)
    out.append(("fppoly.product_terms", "count", "lower"))
    out += [(name, "ratio", "higher" if name.rsplit(".", 1)[1] in _HIGHER
             else "lower") for name in RATIOS]
    out.append(("fpmat.injective_matrices.hit_ratio", "ratio", "higher"))
    out.append(("fpmat.injective_matrices.misses", "count", "lower"))
    out += [(f"{m}.self_s", "s", "lower") for m in modules]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Span recorder; ``install`` wraps TRACED, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, job)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.job = -1
        self.job_keys: set = set()     # hom-set keys computed in this job
        self._stack: list[int] = []
        self._names: list[str] = []
        self._seen = weakref.WeakKeyDictionary()
        self._restore: list[tuple[object, str, object]] = []

    def begin_job(self, job: int) -> None:
        self.job = job
        self.job_keys = set()

    def seen_by(self, obj) -> set:
        """Per-object memory of arguments, dropped with the object."""
        got = self._seen.get(obj)
        if got is None:
            got = self._seen[obj] = set()
        return got

    def wrap(self, name: str, fn, hook=None):
        spans, stack, names, clock = self.spans, self._stack, self._names, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.injective_count = importlib.import_module(
            "elabcat.fpmat").injective_count
        for module, path, hook, _counts in TRACED:
            name = f"{module}.{path}"
            mod = importlib.import_module(f"elabcat.{module}")
            cls_name, _, attr = path.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
            elif isinstance(raw, property):
                self._set(owner, attr, property(self._getter(name, raw.fget, hook)))
            elif cls_name:
                self._set(owner, attr, self.wrap(name, raw, hook))
            else:
                traced = self.wrap(name, raw, hook)
                for m in [m for k, m in sys.modules.items()
                          if k == "elabcat" or k.startswith("elabcat.")]:
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            self._set(m, key, traced)
        self._count_joins()

    def _getter(self, name: str, fget, hook):
        traced = self.wrap(name, fget, hook)
        if name not in _FIRST_ACCESS_ONLY:
            return traced
        first = weakref.WeakSet()

        def getter(obj):
            if obj in first:
                return fget(obj)
            first.add(obj)
            return traced(obj)
        return getter

    def _count_joins(self) -> None:
        """Counter-only wrap of categories.mat_mul: one join per product
        taken while closure() is the innermost open span."""
        cg = importlib.import_module("elabcat.categories")
        mat_mul = vars(cg).get("mat_mul")
        if mat_mul is None:
            self.absent.append("categories.closure.joins")
            return
        names, counts = self._names, self.counts

        def counted(*args):
            if names and names[-1] == "categories.closure":
                counts["categories.closure.joins"] += 1
            return mat_mul(*args)
        self._set(cg, "mat_mul", counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts: dict, cache_info) -> dict[str, float]:
    """Per-layer values from one traced pass, keyed as in metric_specs()
    (all but trace.overhead_ratio, which needs the untraced run)."""
    totals: dict[str, float] = defaultdict(float)
    for (name, *_rest), self_s in zip(spans, self_times(spans)):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        totals[f"{name.split('.', 1)[0]}.self_s"] += self_s
    for key, value in counts.items():
        totals[key] += value
    for name, (num, den) in RATIOS.items():
        totals[name] = totals[num] / totals[den] if totals[den] else 0.0
    if cache_info is not None:
        hits, misses = cache_info
        totals["fpmat.injective_matrices.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        totals["fpmat.injective_matrices.misses"] = misses
    return {name: float(totals[name]) for name, _u, _b in metric_specs()
            if name != "trace.overhead_ratio"}
