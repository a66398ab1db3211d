"""Mutation fuzz of the input documents.

Each example applies one to three random edits to a golden group or
closure category, a bundled gallery fixture, or a character file, and
runs the command that reads it through cli.main in process.  An edit
deletes a key, drops or duplicates a list item, or replaces a value
(the whole document included) with null, a bool, +-2^70, 1.5, NaN, "",
[], {} or a nested list.  Every run must exit 0, 2, 3, 4 or 5, never 1
(an internal error), with exactly one stderr line on a non-zero exit.

The gallery entries prop10-2-1, affine-8 and gl3-3 are left out: their
builds cost most of an unedited run and read no field the others lack.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elabcat import cli, gallery

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(gallery.__file__).resolve().parent / "fixtures"
VALUES = [None, True, False, 2 ** 70, -2 ** 70, 1.5, math.nan, "", [], {}, [[0, [1]]]]


def _load(path):
    return json.loads(path.read_text())


def _copy(value):
    return json.loads(json.dumps(value))


# (document, the command line reading it, FILE standing for the edited copy)
GROUPS = [(_load(path), ["analyze", "FILE", "--prime", "2", "--kinds", "A,Aprime"])
          for path in sorted(GOLDEN.glob("*.group.json"))]
CATEGORIES = []
for path in sorted(GOLDEN.glob("*.category.json")):
    group, prime = re.fullmatch(r"(.*)-p(\d+)-\w+\.category\.json", path.name).groups()
    CATEGORIES.append((_load(path), ["closure", str(GOLDEN / f"{group}.group.json"),
                                     "--prime", prime, "--category", "FILE"]))
ENTRIES = [(_load(FIXTURES / f"{name}.json"), ["gallery", "FILE"])
           for name in gallery.entry_names() if name not in ("prop10-2-1", "affine-8", "gl3-3")]
CHARACTERS = [({"values": [12, 0, 0, 0]},
               ["pregular", str(GOLDEN / "alt4.group.json"), "--prime", "2", "--character",
                "FILE"])]


def _spots(value):
    """(container, key) of every value below value, depth first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield value, key
        yield from _spots(inner)


@st.composite
def edited(draw, documents):
    doc, argv = draw(st.sampled_from(documents))
    holder = [_copy(doc)]        # the document is holder[0]
    for _ in range(draw(st.integers(1, 3))):
        spots = [(holder, 0)] + list(_spots(holder[0]))
        parent, key = draw(st.sampled_from(spots))
        edits = ["replace"] + (["delete"] if isinstance(parent, dict) else
                               ["drop", "duplicate"] if parent is not holder else [])
        edit = draw(st.sampled_from(edits))
        if edit in ("delete", "drop"):
            del parent[key]
        elif edit == "duplicate":
            parent.insert(key, _copy(parent[key]))
        else:
            parent[key] = _copy(draw(st.sampled_from(VALUES)))
    return holder[0], argv


def run_edited(tmp_path, doc, argv):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(path) if a == "FILE" else a for a in argv])
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue(), doc)
    lines = err.getvalue().splitlines()
    assert code == 0 or len(lines) == 1 and lines[0].startswith("error: "), (code, lines, doc)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@FUZZ
@given(case=edited(GROUPS))
def test_edited_group_documents(tmp_path, case):
    run_edited(tmp_path, *case)


@FUZZ
@given(case=edited(CATEGORIES))
def test_edited_closure_categories(tmp_path, case):
    run_edited(tmp_path, *case)


@FUZZ
@given(case=edited(ENTRIES))
def test_edited_gallery_entries(tmp_path, case):
    run_edited(tmp_path, *case)


@FUZZ
@given(case=edited(CHARACTERS))
def test_edited_character_files(tmp_path, case):
    run_edited(tmp_path, *case)
