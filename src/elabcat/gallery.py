"""Worked example groups with frozen expected values.

Each builder returns a namespace of a fully enumerated permutation group,
its prime and the distinguished parts its docstring lists (translation
kernels, unipotent blocks).  The fixture files under fixtures/ freeze
expected values for each entry; verify_gallery recomputes every claim.

Finite fields are realized on the element codes 0..q-1 (base-p digit
vectors, least significant digit first) with a fixed irreducible modulus
per field order, listed in IRREDUCIBLE and echoed by the fixture files.
field_product multiplies by a field element as the F_p-linear map it is,
a polynomial in the companion matrix of the modulus; SmallField, the
per-digit product of the tests, is its oracle.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import categories as cg
from .elabs import ElabCatalog, ElabSubgroup, enumerate_elabs, p_rank
from .errors import InputFormatError, NotMaximal
from .config import NATURAL, POSITIVE, Ints, cap as _cap, read, read_file, refuse
from .fpmat import PRIME, code_digits, gl_generators, primitive_element, subspace_bases
from .groups import ENTRIES_PER_ELEMENT, FiniteGroup, _orbit_labels, close_generators

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
    terms = [("" if c == 1 and e else str(c)) + ("t" if e == 1 else f"t^{e}" if e else "")
             for e, c in enumerate(IRREDUCIBLE[q]) if c]
    return " + ".join(reversed(terms))


def field_product(q: int) -> tuple[int, int, Callable[[int, int], int]]:
    """(p, n, mul): the characteristic, the degree and the product of F_q
    on the element codes 0..q-1, for q a prime below PRIME_LIMIT or an
    order in IRREDUCIBLE (ValueError otherwise).  A prime multiplies mod
    q.  Otherwise the map x -> a*x is the polynomial sum a_k T^k in the
    companion matrix T of the modulus, a_k the digits of a, and one q x q
    table holds it applied to every digit vector."""
    if PRIME.test(q):
        return q, 1, lambda a, b: a * b % q
    if q not in IRREDUCIBLE:
        raise ValueError(f"no field of order {q} on record: a field order is a "
                         f"prime or one of {sorted(IRREDUCIBLE)}")
    modulus = IRREDUCIBLE[q]
    n = len(modulus) - 1
    p = round(q ** (1 / n))
    # T sends t^k to t^(k+1), and t^(n-1) to t^n = -(modulus less its leading term)
    T = np.eye(n, k=-1, dtype=np.int64)
    T[:, -1] = np.negative(modulus[:-1]) % p
    powers = [np.linalg.matrix_power(T, k) for k in range(n)]
    digits = code_digits(p, n)
    mats = np.tensordot(digits, powers, axes=1)                 # (q, n, n): x -> a*x
    table = (digits @ np.swapaxes(mats, 1, 2) % p @ p ** np.arange(n)).tolist()
    return p, n, lambda a, b: table[a][b]


# -- builders ---------------------------------------------------------


def _check_degree(name: str, base: int, exp: int = 1, less: int = 0) -> int:
    """The degree base^exp - less of a gallery group, refused with
    CapExceeded("element_cap") past the element cap, or when its square
    passes the bound on element table entries (see close_generators),
    before any permutation is formed: every gallery group is transitive
    or holds all its translations, so its order is at least its degree.
    base^exp is not formed for exp past the cap's bit length (base >= 2,
    less <= 1)."""
    limit = _cap("element_cap")
    degree = base ** exp - less if exp <= limit.bit_length() else None
    if degree is None or degree > limit or degree ** 2 > ENTRIES_PER_ELEMENT * limit:
        points = (f"{base}^{exp}" if exp > 1 else str(base)) + (f" - {less}" if less else "")
        refuse("element_cap", f"{name} acts on {points} points, past what the element cap "
                              f"({limit}) allows")
    return degree


def code_vectors(p: int, n: int) -> np.ndarray:
    """(p^n, n) array whose row c is the vector of F_p^n with code c: the
    vector codes are big-endian, the first coordinate the top base-p digit
    (the column codes of categories are little-endian)."""
    return code_digits(p, n)[:, ::-1]


def affine_images(mats, shifts, p: int, n: int) -> np.ndarray:
    """Images of the maps x -> M_k x + v_k on the p^n vector codes, one row
    of p^n codes per k: mats is a (k, n, n) stack or one (n, n) matrix,
    shifts a (k, n) stack or one (n,) vector, and one stacks against the
    other."""
    mats = np.asarray(mats, dtype=np.int64)
    shifts = np.asarray(shifts, dtype=np.int64)
    images = (code_vectors(p, n) @ np.swapaxes(mats, -1, -2) + shifts[..., None, :]) % p
    return images @ p ** np.arange(n - 1, -1, -1)


def build_affine(q: int) -> SimpleNamespace:
    """All maps x -> a*x + b on F_q, a nonzero; order q*(q-1).
    kernel: the translation subgroup (F_q, +)."""
    _check_degree(f"affine-{q}", q)
    p, n, mul = field_product(q)
    # field addition adds digit vectors, so the translations of F_q are
    # those of F_p^n on the vector codes, translation by b in row b
    translations = affine_images(np.eye(n), code_vectors(p, n), p, n)
    g = primitive_element(q, mul)
    scale = tuple(mul(g, x) for x in range(q))
    gens = [scale, translations[1]] if q > 2 else [translations[1]]
    G = close_generators(q, gens, name=f"affine-{q}")
    kernel = ElabSubgroup.from_element_indices(G, p, G.indices_of_rows(translations))
    return SimpleNamespace(group=G, prime=p, kernel=kernel)


def cyclic_group(n: int) -> FiniteGroup:
    _check_degree(f"cyclic-{n}", n)
    shift = tuple((x + 1) % n for x in range(n))
    return close_generators(n, [shift], name=f"cyclic-{n}")


def build_gl3(p: int) -> SimpleNamespace:
    """GL_3(F_p) acting on the nonzero vectors of F_p^3, point = code - 1.
    e1: the upper row block {I + a E12 + b E13}.
    e2: the right column block {I + a E13 + b E23}."""
    degree = _check_degree(f"gl3-{p}", p, 3, 1)

    def perms(mats) -> np.ndarray:
        # linear maps fix the code 0
        return affine_images(mats, np.zeros(3), p, 3)[:, 1:] - 1

    G = close_generators(degree, perms(gl_generators(p, 3)), name=f"gl3-{p}")
    blocks = np.tile(np.eye(3, dtype=np.int64), (2, p * p, 1, 1))
    blocks[0, :, 0, 1], blocks[0, :, 0, 2] = code_vectors(p, 2).T
    blocks[1, :, 0, 2], blocks[1, :, 1, 2] = code_vectors(p, 2).T
    idx = G.indices_of_rows(perms(blocks.reshape(-1, 3, 3))).reshape(2, -1)
    e1, e2 = (ElabSubgroup.from_element_indices(G, p, block) for block in idx)
    return SimpleNamespace(group=G, prime=p, e1=e1, e2=e2)


def build_triangular(p: int, n: int) -> SimpleNamespace:
    """F_p^n extended by the unipotent matrices constant along diagonals.

    The linear part Q is {I + a1 N + ... + a_{n-1} N^{n-1}} for the full
    Jordan block nilpotent N, order p^(n-1); the whole group has order
    p^n * p^(n-1).
    kernel: the translated vector space F_p^n.
    q_group: the constant-diagonal unipotent block Q, on the p^n codes.
    u_group: the full upper unitriangular group, on the p^n codes.
    """
    degree = _check_degree(f"triangular-{p}-{n}", p, n)
    eye, zero = np.eye(n, dtype=np.int64), np.zeros(n)
    q_mats = np.reshape([eye + np.eye(n, k=k) for k in range(1, n)], (-1, n, n))
    q_gens = affine_images(q_mats, zero, p, n)
    q_group = close_generators(degree, q_gens, name=f"q-{p}-{n}")
    G = close_generators(degree, np.vstack((q_gens, affine_images(eye, eye, p, n))),
                         name=f"triangular-{p}-{n}")
    translations = G.indices_of_rows(affine_images(eye, code_vectors(p, n), p, n))
    kernel = ElabSubgroup.from_element_indices(G, p, translations)
    u_mats = np.reshape([eye + np.diag(np.arange(n - 1) == i, 1) for i in range(n - 1)],
                        (-1, n, n))
    u_group = close_generators(degree, affine_images(u_mats, zero, p, n), name=f"u-{p}-{n}")
    return SimpleNamespace(group=G, prime=p, kernel=kernel, q_group=q_group, u_group=u_group)


def build_prop10(p: int, n: int) -> SimpleNamespace:
    """Vector space E + Z extended by the maps b_M = (c, psi_M).

    E has dimension n+1 carrying a single unipotent Jordan block c; Z has
    one coordinate z_M per maximal subspace M of E; psi_M kills M and
    sends a fixed transversal vector to z_M.  The group contains all
    p^dim translations, so the degree check refuses it when p^dim passes
    the element cap, before the subspaces are listed or any permutation
    is formed, and before p^(n+1) is once n+1 passes the cap's bit
    length; past that the stabilizer chain refuses it before any element
    is.  The translations act regularly, so the linear part has order
    |G| / p^dim.
    dim: of E + Z, acted on by the p^dim codes.
    jordan: the Jordan block c on E's coordinates, an array.
    distinguished: the translations by E + 0.
    c_matrix: c in E's canonical coordinates, a tuple of rows.
    max_subspaces: the canonical bases of the M's.
    b_elements: the group element index of each b_M.
    linear_order: the order of the linear part.
    """
    dim_e = n + 1
    limit = _cap("element_cap")
    if dim_e > limit.bit_length():              # then p^dim > p^dim_e > limit
        refuse("element_cap", f"prop10-{p}-{n} acts on more than {p}^{dim_e} points, past "
                              f"what the element cap ({limit}) allows")
    dim_z = (p ** dim_e - 1) // (p - 1)        # the hyperplanes of E
    dim = dim_e + dim_z
    degree = _check_degree(f"prop10-{p}-{n}", p, dim)
    maxes = subspace_bases(p, dim_e, n)
    jordan = np.eye(dim_e, dtype=np.int64) + np.eye(dim_e, k=1, dtype=np.int64)

    # psi_M, one scan of E's vectors in code order: the first nonzero r
    # killing M spans its normals, and the first vector t with r . t != 0
    # is the transversal, so psi_M = r / (r . t) kills M and sends t to 1
    vecs = code_vectors(p, dim_e)
    normal = vecs[1:][np.argmax((np.array(maxes) @ vecs[1:].T % p == 0).all(axis=1), axis=1)]
    dots = normal @ vecs.T % p
    scale = [pow(d, -1, p) for d in dots[np.arange(dim_z), np.argmax(dots != 0, axis=1)].tolist()]
    # b_M is c on E and the identity on Z, plus psi_M into z_M
    b_mats = np.tile(np.eye(dim, dtype=np.int64), (dim_z, 1, 1))
    b_mats[:, :dim_e, :dim_e] = jordan
    b_mats[np.arange(dim_z), dim_e + np.arange(dim_z), :dim_e] = normal * np.c_[scale] % p
    b_perms = affine_images(b_mats, np.zeros(dim), p, dim)
    eye = np.eye(dim, dtype=np.int64)
    G = close_generators(degree, np.vstack((b_perms, affine_images(eye, eye, p, dim))),
                         name=f"prop10-{p}-{n}")
    # the b_M, then the translations by E + 0 with E's vectors in code order
    e_shifts = np.pad(code_vectors(p, dim_e), ((0, 0), (0, dim_z)))
    found = G.indices_of_rows(np.vstack((b_perms, affine_images(eye, e_shifts, p, dim))))
    by_e_code = found[dim_z:]
    E = ElabSubgroup.from_element_indices(G, p, by_e_code)

    # c in E's canonical coordinates: a translation by (v, 0) sends 0 to
    # the code of v times p^dim_z; c moves that code of v, and codes_of
    # reads the image's translation back in E's coordinates
    c_codes = affine_images(jordan, np.zeros(dim_e), p, dim_e)
    v_codes = G.array[list(E.basis), 0] // p ** dim_z
    c_matrix = cg.matrix_of(E.codes_of(by_e_code[c_codes[v_codes]]), p, E.rank)
    return SimpleNamespace(group=G, prime=p, dim=dim, jordan=jordan, distinguished=E,
                           c_matrix=c_matrix, max_subspaces=list(maxes),
                           b_elements=found[:dim_z].tolist(), linear_order=G.order // G.degree)


# -- fixtures and claim verification ----------------------------------

_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
_PROVENANCE = ("cited", "derived", "trivial")


class GalleryClaim(NamedTuple):
    claim_id: str
    text: str
    provenance: str
    check: str
    expected: Any
    args: dict


class GalleryEntry(NamedTuple):
    name: str
    builder: str
    params: dict
    prime: int
    claims: tuple
    path: Path


class ClaimResult(NamedTuple):
    claim_id: str
    text: str
    provenance: str
    expected: Any
    computed: Any
    ok: bool


class GalleryReport(NamedTuple):
    name: str
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def entry_names() -> list[str]:
    return sorted(path.stem for path in _FIXTURE_DIR.glob("*.json"))


def build_cyclic(n: int, p: int) -> SimpleNamespace:
    """Z/n acting regularly; kernel: its elements of order 1 or p."""
    G = cyclic_group(n)
    idxs = np.flatnonzero(np.isin(G.element_orders, (1, p)))
    return SimpleNamespace(group=G, prime=p, kernel=ElabSubgroup.from_element_indices(G, p, idxs))


# the integers an entry reads as the order of a field
FIELD_ORDER = Ints(f"a field order on record, a prime or one of {sorted(IRREDUCIBLE)}",
                   lambda v: v in IRREDUCIBLE or PRIME.test(v))

# each builder: the table of the params it reads, and its build from the
# params and the entry's prime
_BUILDERS: dict[str, tuple[dict, Callable[[dict, int], Any]]] = {
    "affine": ({"q": FIELD_ORDER}, lambda ps, prime: build_affine(ps["q"])),
    "cyclic": ({"n": POSITIVE}, lambda ps, prime: build_cyclic(ps["n"], prime)),
    "gl3": ({"p": PRIME}, lambda ps, prime: build_gl3(ps["p"])),
    "triangular": ({"p": PRIME, "n": POSITIVE},
                   lambda ps, prime: build_triangular(ps["p"], ps["n"])),
    "prop10": ({"p": PRIME, "n": POSITIVE},
               lambda ps, prime: build_prop10(ps["p"], ps["n"]))}


def _build_entry(entry: GalleryEntry):
    return _BUILDERS[entry.builder][1](entry.params, entry.prime)


# an entry document; its params are read against its builder's table,
# and each claim's args against its check's
ENTRY = {"name": str, "builder": tuple(_BUILDERS), "params": dict, "prime": PRIME,
         "claims": [{"id": str, "text": str, "provenance": _PROVENANCE, "check": str,
                     "expected": object, "args?": dict}]}


def load_entry(name: str) -> GalleryEntry:
    """The bundled entry name, or the entry file name ending in .json;
    InputFormatError unless it fits ENTRY, each claim names a check and
    fits its args table, and each claim's kind is valid at its prime."""
    path = Path(name) if name.endswith(".json") else _FIXTURE_DIR / f"{name}.json"
    if not path.is_file():
        raise InputFormatError(f"no gallery entry named {name!r}; "
                               f"available: {', '.join(entry_names())}")
    doc = read_file(path, ENTRY)
    params = read(doc["params"], _BUILDERS[doc["builder"]][0], path, "params")
    claims = []
    for k, rec in enumerate(doc["claims"]):
        if rec["check"] not in _CHECKS:
            raise InputFormatError(
                f"{path}: claim {rec['id']}: unknown check {rec['check']!r}")
        args = read(rec.get("args", {}), _CHECKS[rec["check"]][1], path, f"claims[{k}].args")
        if "kind" in args:
            args["kind"] = cg.parse_kind(args["kind"], doc["prime"],
                                         f"{path}: bad claims[{k}].args.kind")
        claims.append(GalleryClaim(rec["id"], rec["text"], rec["provenance"],
                                   rec["check"], rec["expected"], args))
    return GalleryEntry(doc["name"], doc["builder"], params, doc["prime"], tuple(claims), path)


class _EntryContext:
    """Lazy computation shared by the checks of one entry."""

    def __init__(self, entry: GalleryEntry):
        self.entry = entry
        self.build = _build_entry(entry)
        self.group: FiniteGroup = self.build.group
        self.prime: int = entry.prime
        self.claim = ""            # the place of the claim being checked, claims[k]
        self._homs: dict = {}      # (canonical kind, E, F)

    @cached_property
    def catalog(self) -> ElabCatalog:
        return enumerate_elabs(self.group, self.prime)

    def hom(self, kind: cg.CategoryKind, E: ElabSubgroup,
            F: ElabSubgroup) -> np.ndarray:
        """Hom-set between builder subgroups from its kind's definition
        (hom_matrices), computed once under its canonical key: the same
        way whether or not an earlier claim enumerated the catalog."""
        key = (cg.canonical(kind, E.rank), E, F)
        if key not in self._homs:
            self._homs[key] = cg.hom_matrices(*key)
        return self._homs[key]

    def part(self, name: str, kind: type, what: str, key: str = ""):
        """The build's attribute name, which must be a kind; a claim that
        names another raises InputFormatError at the args key that gave
        the name, or at its check when the check names it."""
        obj = getattr(self.build, name, None)
        if not isinstance(obj, kind):
            place = f"{self.claim}.args.{key}" if key else f"{self.claim}.check"
            raise InputFormatError(f"{self.entry.path}: bad {place}: the {self.entry.builder} "
                                   f"build has no {what} named {name!r}")
        return obj

    def subgroup(self, args: dict, key: str) -> ElabSubgroup:
        return self.part(args[key], ElabSubgroup, "subgroup", key)

    def matrix_group(self, which: str, key: str = "") -> FiniteGroup:
        return self.part(f"{which}_group", FiniteGroup, "matrix group", key)


def _jsonify(value):
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


_CHECKS: dict[str, tuple[Callable, dict]] = {}      # each check and its args table


def _check(name: str, **args):
    """Register a claim check reading the args of the given types."""
    def deco(fn):
        _CHECKS[name] = fn, args
        return fn
    return deco


@_check("group_order")
def _chk_group_order(ctx, args):
    return ctx.group.order


@_check("field_modulus", q=Ints(f"a field order with a modulus on record, one of "
                                 f"{sorted(IRREDUCIBLE)}", IRREDUCIBLE.__contains__))
def _chk_field_modulus(ctx, args):
    return modulus_text(args["q"])


@_check("object_rank", object=str)
def _chk_object_rank(ctx, args):
    return ctx.subgroup(args, "object").rank


@_check("object_order", object=str)
def _chk_object_order(ctx, args):
    return len(ctx.subgroup(args, "object").elements)


@_check("linear_part_order")
def _chk_linear_part_order(ctx, args):
    return ctx.part("linear_order", int, "linear part")


@_check("order_p_class_count")
def _chk_order_p_classes(ctx, args):
    return int((ctx.group.element_orders[ctx.group.conjugacy.reps] == ctx.prime).sum())


@_check("catalog_size")
def _chk_catalog_size(ctx, args):
    return len(ctx.catalog)


@_check("class_count")
def _chk_class_count(ctx, args):
    return ctx.catalog.class_count()


@_check("classes_by_rank")
def _chk_classes_by_rank(ctx, args):
    return {str(r): n for r, n in sorted(ctx.catalog.classes_by_rank().items())}


@_check("p_rank")
def _chk_p_rank(ctx, args):
    return p_rank(ctx.catalog)


@_check("component_count", kind=str)
def _chk_component_count(ctx, args):
    return len(cg.maximal_objects(cg.build_category(args["kind"], ctx.catalog)))


@_check("aut_order", object=str, kind=str)
def _chk_aut_order(ctx, args):
    E = ctx.subgroup(args, "object")
    return len(ctx.hom(args["kind"], E, E))


@_check("hom_order", domain=str, codomain=str, kind=str)
def _chk_hom_order(ctx, args):
    D = ctx.subgroup(args, "domain")
    C = ctx.subgroup(args, "codomain")
    return len(ctx.hom(args["kind"], D, C))


@_check("fibre_index", object=str)
def _chk_fibre_index(ctx, args):
    idx = ctx.catalog.index_of(ctx.subgroup(args, "object"))
    fibre = cg.fibre_indices(ctx.catalog).get(ctx.catalog.class_of.item(idx))
    if fibre is None:
        raise NotMaximal(f"subgroup {idx} is not maximal in its catalog")
    return fibre[2]


@_check("a_equals_aprime")
def _chk_a_eq_aprime(ctx, args):
    return bool(cg.categories_equal(cg.A, cg.APRIME, ctx.catalog).equal)


@_check("conjugate_objects", a=str, b=str)
def _chk_conjugate_objects(ctx, args):
    # an A map between subgroups of one rank is a conjugation onto the target
    return _chk_kind_isomorphic(ctx, {**args, "kind": cg.A})


@_check("kind_isomorphic", a=str, b=str, kind=str)
def _chk_kind_isomorphic(ctx, args):
    E = ctx.subgroup(args, "a")
    F = ctx.subgroup(args, "b")
    return E.rank == F.rank and len(ctx.hom(args["kind"], E, F)) > 0


@_check("conjugacy_orbit_sizes", object=str)
def _chk_conj_orbit_sizes(ctx, args):
    # sizes of the conjugacy class intersections with the subgroup
    counts = cg.class_counts(ctx.subgroup(args, "object"), cg.A)[1]
    return sorted(counts[counts > 0].tolist())


@_check("class_centralizer_order", object=str, orbit_size=object)
def _chk_class_centralizer(ctx, args):
    # centralizer order of the smallest member of the unique class meeting
    # the subgroup in exactly orbit_size elements
    E = ctx.subgroup(args, "object")
    cls, counts = cg.class_counts(E, cg.A)
    hits = [c for c, k in enumerate(counts.tolist()) if k and k == args["orbit_size"]]
    if len(hits) != 1:
        return None
    return len(ctx.group.centralizer_indices(int(E.by_code[cls == hits[0]].min())))


def _orbit_partition(G: FiniteGroup) -> np.ndarray:
    """Each point's smallest orbit-mate under G: equal arrays are equal
    orbit partitions."""
    return _orbit_labels(np.array(G.generators, dtype=np.int64).reshape(-1, G.degree))


@_check("matrix_orbit_sizes", which=str)
def _chk_matrix_orbit_sizes(ctx, args):
    sizes = np.bincount(_orbit_partition(ctx.matrix_group(args["which"], "which")))
    return sorted(sizes[sizes > 0].tolist())


@_check("matrix_orbits_match")
def _chk_matrix_orbits_match(ctx, args):
    return np.array_equal(_orbit_partition(ctx.matrix_group("q")),
                          _orbit_partition(ctx.matrix_group("u")))


@_check("matrix_group_order", which=str)
def _chk_matrix_group_order(ctx, args):
    return ctx.matrix_group(args["which"], "which").order


@_check("distinguished_map_matrix")
def _chk_distinguished_matrix(ctx, args):
    return ctx.part("c_matrix", tuple, "distinguished map")


@_check("distinguished_map_in_kind", kind=str)
def _chk_distinguished_in_kind(ctx, args):
    E = ctx.part("distinguished", ElabSubgroup, "subgroup")
    codes = cg.column_codes(ctx.part("c_matrix", tuple, "distinguished map"), E.prime)
    return bool((ctx.hom(args["kind"], E, E) == codes).all(axis=1).any())


@_check("an_equals_a_on_object", object=str, n=NATURAL)
def _chk_an_equals_a(ctx, args):
    E = ctx.subgroup(args, "object")
    return np.array_equal(ctx.hom(cg.a_n(args["n"]), E, E), ctx.hom(cg.A, E, E))


@_check("pointwise_block_witnesses")
def _chk_pointwise_witnesses(ctx, args):
    # each stored block element conjugates translation-by-v to
    # translation-by-cv for every v in its kernel subspace
    c = ctx.part("jordan", np.ndarray, "Jordan block")
    b = ctx.build
    G, p, eye = b.group, b.prime, np.eye(b.dim)

    def translations(vs) -> np.ndarray:
        shifts = np.pad(vs, ((0, 0), (0, b.dim - len(c))))
        return G.indices_of_rows(affine_images(eye, shifts, p, b.dim))

    for basis, b_idx in zip(b.max_subspaces, b.b_elements):
        vs = code_vectors(p, len(basis)) @ np.array(basis) % p
        if not np.array_equal(G.conjugate_indices(b_idx, translations(vs)),
                              translations(vs @ c.T % p)):
            return False
    return True


def verify_gallery(entry: GalleryEntry) -> GalleryReport:
    """Recompute every frozen claim of one entry."""
    ctx = _EntryContext(entry)
    results = []
    for k, claim in enumerate(entry.claims):
        ctx.claim = f"claims[{k}]"
        computed = _jsonify(_CHECKS[claim.check][0](ctx, claim.args))
        results.append(ClaimResult(claim.claim_id, claim.text,
                                   claim.provenance, claim.expected,
                                   computed, computed == claim.expected))
    return GalleryReport(entry.name, tuple(results))
