"""Worked example groups with frozen expected values.

Builders produce fully enumerated permutation groups together with their
distinguished subgroups (translation kernels, unipotent blocks).  The
fixture files under fixtures/ freeze expected values for each entry;
verify_gallery recomputes every claim and reports agreement.

Finite fields are realized on the element codes 0..q-1 (base-p digit
vectors, least significant digit first) with a fixed irreducible modulus
per field order, listed in IRREDUCIBLE and echoed by the fixture files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import categories as cg
from .elabs import ElabCatalog, ElabSubgroup, enumerate_elabs, p_rank
from .errors import CapExceeded, InputFormatError
from .config import cap as _cap
from .fpmat import (Mat, close_matrix_group, mat_inv, mat_mul, mat_vec,
                    subspace_bases)
from .groups import FiniteGroup, Perm, close_generators

# -- small finite fields ----------------------------------------------

# modulus coefficients are ascending, including the leading 1
IRREDUCIBLE: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),          # t^2 + t + 1
    8: (1, 1, 0, 1),       # t^3 + t + 1
    9: (1, 0, 1),          # t^2 + 1
    16: (1, 1, 0, 0, 1),   # t^4 + t + 1
    25: (2, 4, 1),         # t^2 + 4t + 2
    27: (1, 2, 0, 1),      # t^3 + 2t + 1
}


def modulus_text(q: int) -> str:
    coeffs = IRREDUCIBLE[q]
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}t^{e}" if e > 1 else f"{head}t")
    return " + ".join(parts)


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, n
    raise ValueError(f"{q} is not a prime power")


class SmallField:
    """Arithmetic on field element codes 0..q-1."""

    def __init__(self, q: int):
        p, n = _prime_power(q)
        self.q, self.p, self.n = q, p, n
        if n > 1 and q not in IRREDUCIBLE:
            raise ValueError(f"no modulus on record for field order {q}")
        self.modulus = IRREDUCIBLE.get(q)

    def digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.n):
            out.append(code % self.p)
            code //= self.p
        return out

    def code(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + d % self.p
        return out

    def add(self, a: int, b: int) -> int:
        return self.code(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return a * b % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        # reduce: t^n = -(modulus without leading term)
        mod = self.modulus
        for e in range(len(prod) - 1, self.n - 1, -1):
            c = prod[e] % self.p
            prod[e] = 0
            for k in range(self.n):
                prod[e - self.n + k] -= c * mod[k]
        return self.code(prod[:self.n])

    def primitive(self) -> int:
        for g in range(2, self.q):
            x, seen = 1, set()
            for _ in range(self.q - 1):
                x = self.mul(x, g)
                seen.add(x)
            if len(seen) == self.q - 1:
                return g
        return 1


# -- builders ---------------------------------------------------------


@dataclass
class AffineBuild:
    group: FiniteGroup
    prime: int
    kernel: ElabSubgroup      # the translation subgroup (F_q, +)


def build_affine(q: int) -> AffineBuild:
    """All maps x -> a*x + b on F_q, a nonzero; order q*(q-1)."""
    field = SmallField(q)
    g = field.primitive()
    scale = tuple(field.mul(g, x) for x in range(q))
    shift = tuple(field.add(x, 1) for x in range(q))
    gens = [scale, shift] if q > 2 else [shift]
    G = close_generators(q, gens, name=f"affine-{q}")
    translations = [G.index(tuple(field.add(x, b) for x in range(q)))
                    for b in range(q)]
    kernel = ElabSubgroup.from_element_indices(G, field.p, translations)
    return AffineBuild(G, field.p, kernel)


def affine_group(q: int) -> FiniteGroup:
    return build_affine(q).group


def cyclic_group(n: int) -> FiniteGroup:
    shift = tuple((x + 1) % n for x in range(n))
    return close_generators(n, [shift], name=f"cyclic-{n}")


def _vec_code(v, p: int) -> int:
    out = 0
    for x in v:
        out = out * p + x % p
    return out


def _code_vec(code: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return tuple(reversed(out))


def _matrix_perm_nonzero(M: Mat, p: int, n: int) -> Perm:
    """Permutation of the p^n - 1 nonzero vectors, point = code - 1."""
    images = []
    for code in range(1, p ** n):
        v = _code_vec(code, p, n)
        images.append(_vec_code(mat_vec(M, v, p), p) - 1)
    return tuple(images)


@dataclass
class GL3Build:
    group: FiniteGroup
    prime: int
    e1: ElabSubgroup          # upper row block {I + a E12 + b E13}
    e2: ElabSubgroup          # right column block {I + a E13 + b E23}


def build_gl3(p: int) -> GL3Build:
    """GL_3(F_p) acting on the nonzero vectors of F_p^3."""
    from .fpmat import gl_generators, identity_mat
    gens = [_matrix_perm_nonzero(M, p, 3) for M in gl_generators(p, 3)]
    G = close_generators(p ** 3 - 1, gens, name=f"gl3-{p}")

    def block(positions) -> ElabSubgroup:
        idxs = []
        for a, b in itertools.product(range(p), repeat=2):
            M = [list(r) for r in identity_mat(3)]
            (i1, j1), (i2, j2) = positions
            M[i1][j1] = a
            M[i2][j2] = b
            perm = _matrix_perm_nonzero(tuple(tuple(r) for r in M), p, 3)
            idxs.append(G.index(perm))
        return ElabSubgroup.from_element_indices(G, p, idxs)

    e1 = block([(0, 1), (0, 2)])
    e2 = block([(0, 2), (1, 2)])
    return GL3Build(G, p, e1, e2)


def gl3(p: int) -> FiniteGroup:
    return build_gl3(p).group


@dataclass
class TriangularBuild:
    group: FiniteGroup
    prime: int
    dim: int
    kernel: ElabSubgroup       # the translated vector space F_p^n
    q_matrices: list[Mat]      # constant-diagonal unipotent block
    u_matrices: list[Mat]      # full upper unitriangular group


def _affine_perm(M: Mat, v, p: int, n: int) -> Perm:
    images = []
    for code in range(p ** n):
        x = _code_vec(code, p, n)
        y = mat_vec(M, x, p)
        y = tuple((a + b) % p for a, b in zip(y, v))
        images.append(_vec_code(y, p))
    return tuple(images)


def build_triangular(p: int, n: int) -> TriangularBuild:
    """F_p^n extended by the unipotent matrices constant along diagonals.

    The linear part Q is {I + a1 N + ... + a_{n-1} N^{n-1}} for the full
    Jordan block nilpotent N, order p^(n-1); the whole group has order
    p^n * p^(n-1).
    """
    from .fpmat import identity_mat
    N = tuple(tuple(1 if j == i + 1 else 0 for j in range(n)) for i in range(n))
    q_gens = []
    power = N
    for _ in range(1, n):
        q_gens.append(tuple(tuple((1 if i == j else 0) + power[i][j]
                                  for j in range(n)) for i in range(n)))
        power = mat_mul(power, N, p)
    zero = (0,) * n
    gens = [_affine_perm(M, zero, p, n) for M in q_gens]
    for i in range(n):
        e_i = tuple(1 if j == i else 0 for j in range(n))
        gens.append(_affine_perm(identity_mat(n), e_i, p, n))
    G = close_generators(p ** n, gens, name=f"triangular-{p}-{n}")
    translations = [G.index(_affine_perm(identity_mat(n), v, p, n))
                    for v in itertools.product(range(p), repeat=n)]
    kernel = ElabSubgroup.from_element_indices(G, p, translations)
    u_gens = []
    for i in range(n - 1):
        M = [list(r) for r in identity_mat(n)]
        M[i][i + 1] = 1
        u_gens.append(tuple(tuple(r) for r in M))
    return TriangularBuild(G, p, n, kernel,
                           close_matrix_group(q_gens, p),
                           close_matrix_group(u_gens, p))


def triangular_group(p: int, n: int) -> FiniteGroup:
    return build_triangular(p, n).group


@dataclass
class Prop10Build:
    group: FiniteGroup
    prime: int
    distinguished: ElabSubgroup        # translations by E + 0
    c_matrix: Mat                      # the Jordan block map on it
    max_subspaces: list[tuple]         # canonical bases of the M's
    b_elements: list[int]              # group element index of each b_M
    linear_order: int                  # order of the linear part


def build_prop10(p: int, n: int) -> Prop10Build:
    """Vector space E + Z extended by the maps b_M = (c, psi_M).

    E has dimension n+1 carrying a single unipotent Jordan block c; Z has
    one coordinate z_M per maximal subspace M of E; psi_M kills M and
    sends a fixed transversal vector to z_M.  The linear part is closed
    first (cheap), and the permutation group is refused before closure if
    its predicted order passes the element cap.
    """
    dim_e = n + 1
    maxes = subspace_bases(p, dim_e, n)
    dim_z = len(maxes)
    assert dim_z == (p ** dim_e - 1) // (p - 1)
    dim = dim_e + dim_z

    c_small = tuple(tuple(1 if j == i or j == i + 1 else 0
                          for j in range(dim_e)) for i in range(dim_e))

    def functional(basis) -> tuple[int, ...]:
        # row vector vanishing on the subspace, 1 on the first vector outside
        from .fpmat import span
        inside = span(p, basis)
        transversal = next(v for v in itertools.product(range(p), repeat=dim_e)
                           if v not in inside)
        # r . b = 0 for b in basis and r . transversal = 1: the last
        # column of the inverse of the matrix with those rows
        inv = mat_inv(tuple(basis) + (transversal,), p)
        return tuple(row[-1] for row in inv)

    b_mats: list[Mat] = []
    for m_idx, basis in enumerate(maxes):
        phi = functional(basis)
        rows = []
        for i in range(dim_e):
            rows.append(tuple(c_small[i]) + (0,) * dim_z)
        for zi in range(dim_z):
            psi_row = phi if zi == m_idx else (0,) * dim_e
            z_row = tuple(1 if k == zi else 0 for k in range(dim_z))
            rows.append(tuple(psi_row) + z_row)
        b_mats.append(tuple(rows))

    linear = close_matrix_group(b_mats, p)
    predicted = p ** dim * len(linear)
    limit = _cap("element_cap")
    if predicted > limit:
        raise CapExceeded(
            "element_cap",
            f"predicted order {predicted} (= {p}^{dim} * {len(linear)}) "
            f"passes the element cap ({limit})")

    from .fpmat import identity_mat
    zero = (0,) * dim
    gens = [_affine_perm(M, zero, p, dim) for M in b_mats]
    for i in range(dim):
        e_i = tuple(1 if j == i else 0 for j in range(dim))
        gens.append(_affine_perm(identity_mat(dim), e_i, p, dim))
    G = close_generators(p ** dim, gens, name=f"prop10-{p}-{n}")

    e_translations = []
    for v in itertools.product(range(p), repeat=dim_e):
        w = tuple(v) + (0,) * dim_z
        e_translations.append(G.index(_affine_perm(identity_mat(dim), w, p, dim)))
    E = ElabSubgroup.from_element_indices(G, p, e_translations)

    # matrix of the Jordan block map in E's canonical coordinates
    cols = []
    for b in E.basis:
        v = _translation_vector(G, b, p, dim)[:dim_e]
        cv = mat_vec(c_small, v, p)
        w = tuple(cv) + (0,) * dim_z
        img = G.index(_affine_perm(identity_mat(dim), w, p, dim))
        cols.append(E.vector_of_index(img))
    c_matrix = tuple(tuple(col[r] for col in cols) for r in range(E.rank))

    b_elements = [G.index(_affine_perm(M, zero, p, dim)) for M in b_mats]
    return Prop10Build(G, p, E, c_matrix, list(maxes), b_elements, len(linear))


def _translation_vector(G: FiniteGroup, idx: int, p: int, dim: int) -> tuple[int, ...]:
    perm = G.element(idx)
    return _code_vec(perm[0], p, dim)


def prop10_group(p: int, n: int) -> FiniteGroup:
    return build_prop10(p, n).group


# -- fixtures and claim verification ----------------------------------

_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
_PROVENANCE = ("cited", "derived", "trivial")


@dataclass(frozen=True)
class GalleryClaim:
    claim_id: str
    text: str
    provenance: str
    check: str
    expected: Any
    args: dict


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    builder: str
    params: dict
    prime: int
    claims: tuple


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    text: str
    provenance: str
    expected: Any
    computed: Any
    ok: bool


@dataclass(frozen=True)
class GalleryReport:
    name: str
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def entry_names() -> list[str]:
    return sorted(path.stem for path in _FIXTURE_DIR.glob("*.json"))


def load_entry(name: str) -> GalleryEntry:
    # a bare name selects a bundled fixture; a .json path loads directly
    path = Path(name) if name.endswith(".json") else _FIXTURE_DIR / f"{name}.json"
    if not path.is_file():
        raise InputFormatError(f"no gallery entry named {name!r}; "
                               f"available: {', '.join(entry_names())}")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:      # JSONDecodeError is a ValueError
        raise InputFormatError(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: expected an object at top level")
    for key in ("name", "builder", "params", "prime", "claims"):
        if key not in doc:
            raise InputFormatError(f"{path}: missing key {key!r}")
    if not isinstance(doc["claims"], list):
        raise InputFormatError(f"{path}: claims must be a list")
    claims = []
    for rec in doc["claims"]:
        if not isinstance(rec, dict):
            raise InputFormatError(f"{path}: each claim must be an object")
        for key in ("id", "text", "provenance", "check", "expected"):
            if key not in rec:
                raise InputFormatError(f"{path}: claim missing key {key!r}")
        if rec["provenance"] not in _PROVENANCE:
            raise InputFormatError(
                f"{path}: claim {rec['id']}: provenance must be one of "
                f"{_PROVENANCE}")
        if rec["check"] not in _CHECKS:
            raise InputFormatError(
                f"{path}: claim {rec['id']}: unknown check {rec['check']!r}")
        claims.append(GalleryClaim(rec["id"], rec["text"], rec["provenance"],
                                   rec["check"], rec["expected"],
                                   rec.get("args", {})))
    return GalleryEntry(doc["name"], doc["builder"], doc["params"],
                        doc["prime"], tuple(claims))


@dataclass
class CyclicBuild:
    group: FiniteGroup
    prime: int
    kernel: ElabSubgroup


def build_cyclic(n: int, p: int) -> CyclicBuild:
    G = cyclic_group(n)
    idxs = sorted(i for i in range(G.order)
                  if G.element_orders[i] in (1, p))
    return CyclicBuild(G, p, ElabSubgroup.from_element_indices(G, p, idxs))


def _build_entry(entry: GalleryEntry):
    b, ps = entry.builder, entry.params
    if b == "affine":
        return build_affine(ps["q"])
    if b == "cyclic":
        return build_cyclic(ps["n"], entry.prime)
    if b == "gl3":
        return build_gl3(ps["p"])
    if b == "triangular":
        return build_triangular(ps["p"], ps["n"])
    if b == "prop10":
        return build_prop10(ps["p"], ps["n"])
    raise InputFormatError(f"unknown gallery builder {b!r}")


class _EntryContext:
    """Lazy computation shared by the checks of one entry."""

    def __init__(self, entry: GalleryEntry):
        self.entry = entry
        self.build = _build_entry(entry)
        self.group: FiniteGroup = self.build.group
        self.prime: int = entry.prime
        self._catalog: Optional[ElabCatalog] = None
        # entries too large to enumerate have no catalog-level claims
        self.uses_catalog = any(c.check in _CATALOG_CHECKS for c in entry.claims)
        self._homs: dict = {}      # (canonical kind, E, F) without a catalog

    @property
    def catalog(self) -> ElabCatalog:
        if self._catalog is None:
            self._catalog = enumerate_elabs(self.group, self.prime)
        return self._catalog

    def hom(self, kind: cg.CategoryKind, E: ElabSubgroup,
            F: ElabSubgroup) -> np.ndarray:
        """Hom-set between builder subgroups, each computed once: through
        the catalog's shared cache when the entry enumerates its catalog
        anyway, else under the same canonical key here."""
        if self.uses_catalog:
            cat = self.catalog
            return cg.build_category(kind, cat).hom(cat.index_of(E), cat.index_of(F))
        key = (cg.canonical(kind, E.rank), E, F)
        if key not in self._homs:
            self._homs[key] = cg.hom_matrices(*key)
        return self._homs[key]

    def subgroup(self, name: str) -> ElabSubgroup:
        obj = getattr(self.build, name, None)
        if not isinstance(obj, ElabSubgroup):
            raise InputFormatError(
                f"entry {self.entry.name}: no subgroup named {name!r}")
        return obj


def _jsonify(value):
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


_CHECKS: dict[str, Callable] = {}
_CATALOG_CHECKS: set[str] = set()


def _check(name: str, catalog: bool = False):
    """Register a claim check; catalog marks one that enumerates the catalog."""
    def deco(fn):
        _CHECKS[name] = fn
        if catalog:
            _CATALOG_CHECKS.add(name)
        return fn
    return deco


@_check("group_order")
def _chk_group_order(ctx, args):
    return ctx.group.order


@_check("field_modulus")
def _chk_field_modulus(ctx, args):
    return modulus_text(args["q"])


@_check("object_rank")
def _chk_object_rank(ctx, args):
    return ctx.subgroup(args["object"]).rank


@_check("object_order")
def _chk_object_order(ctx, args):
    return len(ctx.subgroup(args["object"]).elements)


@_check("linear_part_order")
def _chk_linear_part_order(ctx, args):
    return ctx.build.linear_order


@_check("order_p_class_count")
def _chk_order_p_classes(ctx, args):
    table = ctx.group.conjugacy
    orders = ctx.group.element_orders
    return sum(1 for rep in table.reps if orders[rep] == ctx.prime)


@_check("catalog_size", catalog=True)
def _chk_catalog_size(ctx, args):
    return len(ctx.catalog)


@_check("class_count", catalog=True)
def _chk_class_count(ctx, args):
    return ctx.catalog.class_count()


@_check("classes_by_rank", catalog=True)
def _chk_classes_by_rank(ctx, args):
    return {str(r): n for r, n in sorted(ctx.catalog.classes_by_rank().items())}


@_check("p_rank", catalog=True)
def _chk_p_rank(ctx, args):
    return p_rank(ctx.catalog)


@_check("component_count", catalog=True)
def _chk_component_count(ctx, args):
    kind = cg.CategoryKind.parse(args["kind"])
    return len(cg.maximal_objects(cg.build_category(kind, ctx.catalog)))


@_check("aut_order")
def _chk_aut_order(ctx, args):
    E = ctx.subgroup(args["object"])
    kind = cg.CategoryKind.parse(args["kind"])
    return len(ctx.hom(kind, E, E))


@_check("hom_order")
def _chk_hom_order(ctx, args):
    D = ctx.subgroup(args["domain"])
    C = ctx.subgroup(args["codomain"])
    kind = cg.CategoryKind.parse(args["kind"])
    return len(ctx.hom(kind, D, C))


@_check("fibre_index", catalog=True)
def _chk_fibre_index(ctx, args):
    E = ctx.subgroup(args["object"])
    return _jsonify(cg.generic_fibre_index(ctx.catalog, E))


@_check("a_equals_aprime", catalog=True)
def _chk_a_eq_aprime(ctx, args):
    return bool(cg.categories_equal(cg.A, cg.APRIME, ctx.catalog).equal)


@_check("conjugate_objects")
def _chk_conjugate_objects(ctx, args):
    from .elabs import is_conjugate_subgroup
    E = ctx.subgroup(args["a"])
    F = ctx.subgroup(args["b"])
    return is_conjugate_subgroup(ctx.group, E, F) is not None


@_check("kind_isomorphic")
def _chk_kind_isomorphic(ctx, args):
    E = ctx.subgroup(args["a"])
    F = ctx.subgroup(args["b"])
    if E.rank != F.rank:
        return False
    kind = cg.CategoryKind.parse(args["kind"])
    return len(ctx.hom(kind, E, F)) > 0


@_check("conjugacy_orbit_sizes")
def _chk_conj_orbit_sizes(ctx, args):
    # sizes of the conjugacy class intersections with the subgroup
    E = ctx.subgroup(args["object"])
    class_of = ctx.group.conjugacy.class_of
    counts: dict[int, int] = {}
    for i in E.elements:
        c = class_of[i]
        counts[c] = counts.get(c, 0) + 1
    return sorted(counts.values())


@_check("class_centralizer_order")
def _chk_class_centralizer(ctx, args):
    # centralizer order of a member of the unique class meeting the
    # subgroup in exactly orbit_size elements
    E = ctx.subgroup(args["object"])
    want = args["orbit_size"]
    class_of = ctx.group.conjugacy.class_of
    members: dict[int, list[int]] = {}
    for i in E.elements:
        members.setdefault(class_of[i], []).append(i)
    hits = [idx[0] for idx in members.values() if len(idx) == want]
    if len(hits) != 1:
        return None
    return len(ctx.group.centralizer_indices(hits[0]))


def _matrix_orbits(mats, p: int, dim: int) -> set:
    seen: set[int] = set()
    orbits = set()
    for code in range(p ** dim):
        if code in seen:
            continue
        orbit = {code}
        frontier = [code]
        while frontier:
            x = frontier.pop()
            vx = _code_vec(x, p, dim)
            for M in mats:
                y = _vec_code(mat_vec(M, vx, p), p)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


@_check("matrix_orbit_sizes")
def _chk_matrix_orbit_sizes(ctx, args):
    b = ctx.build
    mats = b.q_matrices if args["which"] == "q" else b.u_matrices
    return sorted(len(o) for o in _matrix_orbits(mats, b.prime, b.dim))


@_check("matrix_orbits_match")
def _chk_matrix_orbits_match(ctx, args):
    b = ctx.build
    return (_matrix_orbits(b.q_matrices, b.prime, b.dim)
            == _matrix_orbits(b.u_matrices, b.prime, b.dim))


@_check("matrix_group_order")
def _chk_matrix_group_order(ctx, args):
    b = ctx.build
    return len(b.q_matrices if args["which"] == "q" else b.u_matrices)


@_check("distinguished_map_matrix")
def _chk_distinguished_matrix(ctx, args):
    return _jsonify(ctx.build.c_matrix)


@_check("distinguished_map_in_kind")
def _chk_distinguished_in_kind(ctx, args):
    kind = cg.CategoryKind.parse(args["kind"])
    E = ctx.build.distinguished
    codes = cg.column_codes(ctx.build.c_matrix, E.prime)
    return bool((ctx.hom(kind, E, E) == codes).all(axis=1).any())


@_check("an_equals_a_on_object")
def _chk_an_equals_a(ctx, args):
    E = ctx.subgroup(args["object"])
    return np.array_equal(ctx.hom(cg.a_n(args["n"]), E, E), ctx.hom(cg.A, E, E))


@_check("pointwise_block_witnesses")
def _chk_pointwise_witnesses(ctx, args):
    # each stored block element conjugates translation-by-v to
    # translation-by-cv for every v in its kernel subspace
    from .fpmat import identity_mat
    from .groups import conjugate
    b = ctx.build
    G, p = b.group, b.prime
    n = ctx.entry.params["n"]
    dim_e = n + 1
    dim = 0
    while p ** dim < G.degree:
        dim += 1
    c_small = tuple(tuple(1 if j == i or j == i + 1 else 0
                          for j in range(dim_e)) for i in range(dim_e))
    ident = identity_mat(dim)

    def t_index(v_e):
        w = tuple(v_e) + (0,) * (dim - dim_e)
        return G.index(_affine_perm(ident, w, p, dim))

    for basis, b_idx in zip(b.max_subspaces, b.b_elements):
        b_perm = G.element(b_idx)
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            v = tuple(sum(a * vec[k] for a, vec in zip(coeffs, basis)) % p
                      for k in range(dim_e))
            want = t_index(mat_vec(c_small, v, p))
            got = G.index(conjugate(b_perm, G.element(t_index(v))))
            if got != want:
                return False
    return True


def verify_gallery(entry: GalleryEntry) -> GalleryReport:
    """Recompute every frozen claim of one entry."""
    ctx = _EntryContext(entry)
    results = []
    for claim in entry.claims:
        computed = _jsonify(_CHECKS[claim.check](ctx, claim.args))
        results.append(ClaimResult(claim.claim_id, claim.text,
                                   claim.provenance, claim.expected,
                                   computed, computed == claim.expected))
    return GalleryReport(entry.name, tuple(results))
