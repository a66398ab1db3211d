"""The benchmark's workloads, as label-free job specifications.

A job is identified by a stable id such as ``analyze/S6/p2``; the seeded
generator (gen.py) turns each spec into a CLI argv over relabelled input
files.  Nothing here imports elabcat, so run.py reads it without
importing the library.
"""

from __future__ import annotations

# the bundled gallery entries (src/elabcat/fixtures), one job each
GALLERY_ENTRIES = ("affine-3", "affine-4", "affine-8", "cyclic-3", "gl3-2",
                   "gl3-3", "prop10-2-1", "triangular-2-3")


def _session() -> list[dict]:
    jobs = []
    for group, p in (("S5", 2), ("S6", 2), ("S7", 2), ("tri-2-3", 2),
                     ("gl3-2", 2), ("affine-8", 2),
                     ("S5", 3), ("S6", 3), ("S7", 3), ("gl3-3", 3)):
        jobs.append({"id": f"analyze/{group}/p{p}", "cmd": "analyze",
                     "group": group, "prime": p})
    for group, p, character in (("S6", 2, "regular"), ("S7", 2, "permutation"),
                                ("gl3-3", 3, "regular")):
        jobs.append({"id": f"pregular/{group}/p{p}/{character}",
                     "cmd": "pregular", "group": group, "prime": p,
                     "character": character})
    for p, n in ((2, 4), (2, 5), (3, 3), (5, 2)):
        jobs.append({"id": f"dickson/p{p}/n{n}", "cmd": "dickson",
                     "prime": p, "rank": n})
    for p, n in ((2, 4), (3, 3), (5, 2)):
        jobs.append({"id": f"symreduce/p{p}/n{n}", "cmd": "symreduce",
                     "prime": p, "rank": n})
    for entry in GALLERY_ENTRIES:
        jobs.append({"id": f"gallery/{entry}", "cmd": "gallery",
                     "entry": entry})
    return jobs


def _rank4() -> list[dict]:
    return [{"id": "analyze/A4xA4/p2", "cmd": "analyze",
             "group": "A4xA4", "prime": 2}]


def _closure() -> list[dict]:
    jobs = []
    for group in ("gl3-2", "affine-8", "tri-2-3"):
        for mode in ("grow", "verify"):
            jobs.append({"id": f"closure/{group}/p2/{mode}", "cmd": "closure",
                         "group": group, "prime": 2, "mode": mode})
    for group, p in (("S5", 2), ("S6", 3)):
        jobs.append({"id": f"closure/{group}/p{p}/verify", "cmd": "closure",
                     "group": group, "prime": p, "mode": "verify"})
    return jobs


WORKLOADS = {"session": _session, "rank4": _rank4, "closure": _closure}

# seconds of a run given to one pass: a pass of each workload takes 7 to
# 9 s at the reference speed of hostspeed.py at the seed commit
PASS_S = 8


def passes(seconds: int) -> int:
    """Untraced passes in a run of the given length: fixed by the
    arguments, never by the speed of the code under test."""
    return max(1, seconds // PASS_S)


def jobs_of(workload: str) -> list[dict]:
    """The job specs of one workload, in their unshuffled order."""
    return WORKLOADS[workload]()
