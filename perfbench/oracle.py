"""Label-independent output invariants, frozen per job in expected.json.

The benchmark relabels every input group by a seeded permutation of its
points, so element indices, class numbering and subgroup bases in the
CLI output change with the seed.  The invariants below do not: they are
counts, sorted multisets and verdicts.  ``expected.json`` holds the
values computed once by freeze.py (on two seeds, which must agree); a
job is correct when its invariants equal the frozen ones.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"

# bench group -> bundled gallery fixture stating numbers about the same group
FIXTURE_OF = {("gl3-2", 2): "gl3-2", ("gl3-3", 3): "gl3-3",
              ("affine-8", 2): "affine-8", ("tri-2-3", 2): "triangular-2-3"}


def _analyze(doc: dict) -> dict:
    cat = doc["catalog"]
    return {
        "order": doc["group"]["order"],
        "catalog_size": cat["size"],
        "class_count": cat["class_count"],
        "classes_by_rank": cat["classes_by_rank"],
        "p_rank": cat["p_rank"],
        "component_count": {k: v["component_count"]
                            for k, v in doc["kinds"].items()},
        "hom_sizes": {k: sorted(n for row in v["hom_sizes"] for n in row)
                      for k, v in doc["kinds"].items()},
        "a_equals_aprime": doc["verdicts"]["a_equals_aprime"],
        "an_collapse": doc["verdicts"]["an_collapse"],
        "fibres": sorted([f["rank"], f["aut_a"], f["aut_aprime"]]
                         for f in doc["fibre_indices"]),
    }


def _closure(doc: dict) -> dict:
    return {"hom_count_before": doc["hom_count_before"],
            "hom_count_after": doc["hom_count_after"],
            "already_closed": doc["already_closed"],
            "pairs_changed": len(doc["pairs_changed"])}


def invariants(cmd: str, code: int, stdout: str):
    """The invariants of one CLI run: its exit code and a summary of stdout."""
    if cmd == "analyze":
        out = _analyze(json.loads(stdout))
    elif cmd == "closure":
        out = _closure(json.loads(stdout))
    elif cmd == "pregular":
        out = stdout.split()[0] if stdout.strip() else ""
    elif cmd == "gallery":
        lines = stdout.splitlines()
        out = {"claims": len(lines),
               "all_pass": bool(lines) and all(s.startswith("PASS ") for s in lines)}
    else:
        out = stdout
    return {"exit": code, "output": out}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def fixture_disagreements(expected: dict) -> list[str]:
    """Where a gallery fixture states a number about a benchmark group's
    analyze output, the frozen value must be the same number."""
    from elabcat import gallery

    simple = {"group_order": "order", "catalog_size": "catalog_size",
              "class_count": "class_count", "classes_by_rank": "classes_by_rank",
              "p_rank": "p_rank", "a_equals_aprime": "a_equals_aprime"}
    bad = []
    for (group, p), entry_name in FIXTURE_OF.items():
        job = f"analyze/{group}/p{p}"
        if job not in expected:
            continue
        frozen = expected[job]["output"]
        entry = gallery.load_entry(entry_name)
        if entry.prime != p:
            bad.append(f"{job}: fixture {entry_name} is for p={entry.prime}")
            continue
        for claim in entry.claims:
            if claim.check in simple:
                got = frozen[simple[claim.check]]
            elif (claim.check == "component_count"
                  and claim.args["kind"] in frozen["component_count"]):
                got = frozen["component_count"][claim.args["kind"]]
            else:
                continue
            if got != claim.expected:
                bad.append(f"{job}: {claim.claim_id} expects {claim.expected!r}, "
                           f"frozen {got!r}")
    return bad
