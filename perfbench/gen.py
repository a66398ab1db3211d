"""Seeded input generator: python3 perfbench/gen.py --workload W --seed N --out DIR

Runs in its own process before the timed worker, so nothing it computes
warms a cache the worker then uses.  For every group a job needs it
draws a seeded permutation of the points and writes the relabelled
generators; for closure jobs it writes the category documents, finding
the "grow" morphism with the library's own A-versus-Aprime divergence
witness on the relabelled group.  DIR/jobs.json lists the jobs, in an
order shuffled from the same seed, as CLI argv lists over those files.
The worker receives only DIR.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from elabcat import categories as cg  # noqa: E402
from elabcat import gallery  # noqa: E402
from elabcat.elabs import enumerate_elabs  # noqa: E402
from elabcat.groups import close_generators  # noqa: E402

import workloads  # noqa: E402


def _symmetric(n: int) -> list[list[int]]:
    swap = [1, 0] + list(range(2, n))
    cycle = [(x + 1) % n for x in range(n)]
    return [swap, cycle]


def _a4_squared() -> list[list[int]]:
    three, double = [1, 2, 0, 3], [1, 0, 3, 2]
    ident = [0, 1, 2, 3]
    return [three + [x + 4 for x in ident], double + [x + 4 for x in ident],
            ident + [x + 4 for x in three], ident + [x + 4 for x in double]]


def group_generators(name: str) -> list[list[int]]:
    """Generators of a benchmark group in its standard labelling."""
    if name in ("S5", "S6", "S7"):
        return _symmetric(int(name[1]))
    if name == "A4xA4":
        return _a4_squared()
    if name == "gl3-2":
        G = gallery.build_gl3(2).group
    elif name == "gl3-3":
        G = gallery.build_gl3(3).group
    elif name == "affine-8":
        G = gallery.build_affine(8).group
    elif name == "tri-2-3":
        G = gallery.build_triangular(2, 3).group
    else:
        raise KeyError(f"unknown benchmark group {name!r}")
    return [list(g) for g in G.generators]


def relabel(gens: list[list[int]], sigma: list[int]) -> list[list[int]]:
    """Conjugate each generator by the point relabelling sigma."""
    out = []
    for g in gens:
        h = [0] * len(g)
        for x, y in enumerate(g):
            h[sigma[x]] = sigma[y]
        out.append(h)
    return out


def relabelled_group(name: str, seed: int) -> dict:
    """The group document for one seed; the same seed gives the same file."""
    gens = group_generators(name)
    degree = len(gens[0])
    sigma = list(range(degree))
    random.Random(f"{seed}/{name}").shuffle(sigma)
    return {"name": name, "degree": degree, "generators": relabel(gens, sigma)}


def grow_record(doc: dict, p: int) -> dict:
    """One Aprime-only morphism of the group, as a closure hom record."""
    G = close_generators(doc["degree"], doc["generators"], name=doc["name"])
    catalog = enumerate_elabs(G, p)
    verdict = cg.categories_equal(cg.A, cg.APRIME, catalog)
    if verdict.equal or verdict.only_in != cg.APRIME.label():
        raise ValueError(f"{doc['name']} at p={p} has no Aprime-only morphism")
    dom = catalog.subgroups[catalog.class_reps[verdict.domain_class]]
    cod = catalog.subgroups[catalog.class_reps[verdict.codomain_class]]
    return {"domain": list(dom.elements), "codomain": list(cod.elements),
            "matrices": [[list(r) for r in verdict.matrix]]}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input of one workload under out and return the job list."""
    out.mkdir(parents=True, exist_ok=True)
    docs: dict[str, dict] = {}
    paths: dict[str, str] = {}
    jobs = []
    for spec in workloads.jobs_of(workload):
        argv = [spec["cmd"]]
        name = spec.get("group")
        if name is not None:
            if name not in docs:
                docs[name] = relabelled_group(name, seed)
                paths[name] = _write(out / f"group-{name}.json", docs[name])
            argv.append(paths[name])
        if spec["cmd"] in ("analyze", "pregular", "closure"):
            argv += ["--prime", str(spec["prime"])]
        if spec["cmd"] in ("dickson", "symreduce"):
            argv += ["--prime", str(spec["prime"]), "--rank", str(spec["rank"])]
        if spec["cmd"] == "pregular":
            argv += ["--character", spec["character"]]
        if spec["cmd"] == "gallery":
            argv.append(spec["entry"])
        if spec["cmd"] == "closure":
            cat = {"base_kind": cg.A.label(), "homs": []}
            if spec["mode"] == "grow":
                cat["homs"].append(grow_record(docs[name], spec["prime"]))
            stem = spec["id"].replace("/", "-")
            argv += ["--category", _write(out / f"{stem}.json", cat)]
        jobs.append({"id": spec["id"], "argv": argv})
    random.Random(f"{seed}/{workload}/order").shuffle(jobs)
    doc = {"workload": workload, "seed": seed, "jobs": jobs}
    _write(out / "jobs.json", doc)
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
