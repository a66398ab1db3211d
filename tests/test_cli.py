import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from brute_force import build_parser

from elabcat import __version__, chern, cli
from elabcat.categories import A, CREG, SubgroupCategory, build_category
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded
from elabcat.fpmat import PRIME_LIMIT, injective_count

A4 = {"name": "alt4", "degree": 4,
      "generators": [[1, 0, 3, 2], [2, 0, 1, 3]]}

SWAP_CATEGORY = {"base_kind": "A",
                 "homs": [{"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
                           "matrices": [[[0, 1], [1, 0]]]}]}


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, full_env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "elabcat", *args],
                          capture_output=True, text=True, env=full_env)


@pytest.fixture
def a4_path(tmp_path):
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(A4))
    return str(path)


class TestAnalyze:
    def test_report_values(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["group"]["order"] == 12
        assert doc["catalog"]["size"] == 5
        assert doc["catalog"]["p_rank"] == 2
        assert doc["verdicts"]["a_equals_aprime"] is False
        assert doc["verdicts"]["divergence"]["matrix"] == [[0, 1], [1, 0]]
        assert doc["verdicts"]["an_collapse"] == 2
        assert doc["fibre_indices"][0]["index"] == [2, 1]
        assert set(doc["kinds"]) == {"A", "Aprime", "An(1)", "An(2)"}

    def test_no_torsion_note(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "5")
        doc = json.loads(r.stdout)
        assert doc["catalog"]["p_rank"] == 0
        assert any("5-torsion" in note for note in doc["notes"])

    def test_kind_selection(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2", "--kinds", "A,Creg")
        doc = json.loads(r.stdout)
        assert set(doc["kinds"]) == {"A", "Creg"}

    def test_bad_kind_is_input_error(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2", "--kinds", "Yolo")
        assert r.returncode == 2

    def test_pretty_reformats_same_data(self, a4_path):
        compact = run_cli("analyze", a4_path, "--prime", "2")
        pretty = run_cli("analyze", a4_path, "--prime", "2", "--pretty")
        d1 = json.loads(compact.stdout)
        d2 = json.loads(pretty.stdout)
        d1.pop("timing")
        d2.pop("timing")
        assert d1 == d2
        assert list(d1) == list(d2)

    def test_determinism_without_timing(self, a4_path):
        runs = [run_cli("analyze", a4_path, "--prime", "2") for _ in range(2)]
        docs = [json.loads(r.stdout) for r in runs]
        for doc in docs:
            doc.pop("timing")
        blobs = [json.dumps(d, sort_keys=False) for d in docs]
        assert blobs[0] == blobs[1]

    def test_malformed_group(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"degree\": 4")
        r = run_cli("analyze", str(path), "--prime", "2")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 4}))
        r = run_cli("analyze", str(path), "--prime", "2")
        assert r.returncode == 2

    def test_cap_exit_code(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2",
                    env={"ELABCAT_CATALOG_CAP": "2"})
        assert r.returncode == 3
        assert "catalog_cap" in r.stderr


def main_input_error(capsys, *argv):
    """Run the CLI in process and check for exit 2 with one stderr line."""
    assert cli.main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err


def assert_input_error(r):
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.strip().splitlines()) == 1


class TestBadInput:
    @pytest.mark.parametrize("prime", ["4", "1"])
    def test_analyze_non_prime(self, a4_path, prime):
        assert_input_error(run_cli("analyze", a4_path, "--prime", prime))

    def test_dickson_non_prime(self):
        assert_input_error(run_cli("dickson", "--prime", "4", "--rank", "2"))

    @pytest.mark.parametrize("n", [
        3215031751,                          # strong pseudoprime to 2, 3, 5, 7
        3825123056546413051,                 # ... to every prime base up to 23
        318665857834031151167461,            # ... up to 37
        (1 << 89) + 1,                       # divisible by 3
    ])
    def test_large_composites_are_not_prime(self, n):
        assert not cli.is_prime(n)

    def test_primality_matches_trial_division(self):
        slow = [n for n in range(2, 5000) if all(n % q for q in range(2, n))]
        assert [n for n in range(-3, 5000) if cli.is_prime(n)] == slow
        assert cli.is_prime(1_000_000_000_000_000_003) and cli.is_prime((1 << 89) - 1)

    def test_prime_past_the_test_limit(self):
        r = run_cli("dickson", "--prime", str(PRIME_LIMIT), "--rank", "1")
        assert_input_error(r)
        assert r.stderr == (f"error: dickson: bad --prime: expected a prime below {PRIME_LIMIT}, "
                            f"got '{PRIME_LIMIT}'\n")

    @pytest.mark.parametrize("cmd", ["dickson", "symreduce"])
    def test_rank_below_one(self, cmd):
        assert_input_error(run_cli(cmd, "--prime", "2", "--rank", "0"))

    @pytest.mark.parametrize("kinds", [" , ", ""])
    def test_kinds_naming_no_kind(self, a4_path, kinds):
        r = run_cli("analyze", a4_path, "--prime", "2", "--kinds", kinds)
        assert_input_error(r)
        assert "names no kind" in r.stderr

    def test_kind_divisor_must_divide_p_minus_1(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2", "--kinds", "AprimeD(2)")
        assert_input_error(r)
        assert "AprimeD(2)" in r.stderr

    def test_non_bijective_generator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[0, 0, 1]]}))
        assert_input_error(run_cli("analyze", str(path), "--prime", "2"))

    @pytest.mark.parametrize("gens", [[[1.5, 0.2]], [[True, False]]])
    def test_non_integer_generator_images(self, tmp_path, gens):
        # cast to integers, both would read as [[1, 0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 2, "generators": gens}))
        r = run_cli("analyze", str(path), "--prime", "2")
        assert_input_error(r)
        assert f"{path}: bad generators[0][0]: expected an integer" in r.stderr

    def test_negative_max_n(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2", "--max-n", "-1")
        assert_input_error(r)
        assert "--max-n" in r.stderr

    def test_underscored_cap(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2", env={"ELABCAT_CATALOG_CAP": "1_000"})
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: bad ELABCAT_CATALOG_CAP: expected a non-negative integer, "
                   "got '1_000'\n")

    def test_non_integer_cap(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2",
                    env={"ELABCAT_CATALOG_CAP": "lots"})
        assert_input_error(r)
        assert "ELABCAT_CATALOG_CAP" in r.stderr

    @pytest.mark.parametrize("value", ["x", "-1", "2.5", "1_000", "\u0663", " 3"])
    def test_malformed_cap_the_command_never_reads(self, a4_path, monkeypatch, capsys, value):
        # analyze multiplies no polynomial, yet the term cap is checked first
        monkeypatch.setenv("ELABCAT_TERM_CAP", value)
        assert cli.main(["analyze", a4_path, "--prime", "2"]) == 2
        assert capsys.readouterr() == ("", "error: bad ELABCAT_TERM_CAP: expected a "
                                           f"non-negative integer, got {value!r}\n")


def gallery_entry(tmp_path, **claim):
    """An affine-4 entry file holding one claim, its fields overridden by claim."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps({
        "name": "x", "builder": "affine", "params": {"q": 4}, "prime": 2,
        "claims": [{"id": "c", "text": "t", "provenance": "derived",
                    "check": "group_order", "expected": 12, **claim}]}))
    return str(path)


class TestDocumentReader:
    """Malformed values in a document, each one line in the reader's words."""

    def test_kind_parameter_must_be_an_integer(self, a4_path, tmp_path, capsys):
        assert cli.main(["analyze", a4_path, "--prime", "2", "--kinds", "An(x)"]) == 2
        assert capsys.readouterr().err == (
            "error: bad --kinds value: the parameter of An must be an integer, got 'x'\n")
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "An(x)"}))
        assert cli.main(["closure", a4_path, "--prime", "2", "--category", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad base_kind: the parameter of An must be an integer, got 'x'\n")

    @pytest.mark.parametrize("claim, message", [
        ({"check": []}, "bad claims[0].check: expected a string, got []"),
        ({"check": "aut_order", "args": {"object": "kernel", "kind": []}},
         "bad claims[0].args.kind: expected a string, got []"),
        ({"check": "aut_order", "args": {"kind": "A"}}, "missing key 'claims[0].args.object'"),
        ({"provenance": None},
         'bad claims[0].provenance: expected one of "cited", "derived", "trivial", got null'),
        ({"check": "aut_order", "args": {"object": "kernel", "kind": "An(x)"}},
         "bad claims[0].args.kind: the parameter of An must be an integer, got 'x'"),
        ({"check": "an_equals_a_on_object", "args": {"object": "kernel", "n": -1}},
         "bad claims[0].args.n: expected a non-negative integer, got -1"),
        ({"check": "object_rank", "args": {"object": "kernal"}},
         "bad claims[0].args.object: the affine build has no subgroup named 'kernal'"),
        ({"check": "matrix_orbits_match"},
         "bad claims[0].check: the affine build has no matrix group named 'q_group'"),
    ], ids=["check", "kind", "args key", "provenance", "kind label", "negative n", "unknown part",
            "part of another build"])
    def test_gallery_claim(self, tmp_path, capsys, claim, message):
        path = gallery_entry(tmp_path, **claim)
        assert cli.main(["gallery", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_generator_image_past_int64(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({**A4, "generators": [[1, 0, 3, 2 ** 70]]}))
        assert cli.main(["analyze", str(path), "--prime", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad generators[0][3]: expected an integer of at most 64 bits, "
            f"got 1180591620717411303424\n")

    def test_null_name_is_the_file_stem(self, tmp_path, capsys):
        # an optional key set to null reads as left out
        path = tmp_path / "nameless.json"
        path.write_text(json.dumps({**A4, "name": None}))
        assert cli.main(["analyze", str(path), "--prime", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["group"]["name"] == "nameless"
        path.write_text(json.dumps({**A4, "name": 5}))
        main_input_error(capsys, "analyze", str(path), "--prime", "2")

    def test_failed_claim_prints_one_error_line(self, tmp_path, capsys):
        assert cli.main(["gallery", gallery_entry(tmp_path, expected=13)]) == 4
        out, err = capsys.readouterr()
        assert out.startswith("FAIL x c [derived]: expected 13, computed 12")
        assert err == "error: gallery claims failed: 1\n"


# valid command lines: every command, options before and after the
# positionals, --name=value, flags present and absent
VALID_COMMAND_LINES = [
    ["analyze", "g.json", "--prime", "2"],
    ["analyze", "--prime", "2", "g.json"],
    ["analyze", "g.json", "--prime=3", "--kinds", "A,Creg", "--max-n", "0", "--pretty"],
    ["analyze", "--pretty", "--max-n=2", "g.json", "--kinds=An(2)", "--prime", "5"],
    ["analyze", "g.json", "--prime", "2", "--prime", "3"],      # the last one is kept
    ["analyze", "g.json", "--prime", "2", "--kinds="],
    ["gallery"],
    ["gallery", "affine-4"],
    ["gallery", "-1"],
    ["dickson", "--prime", "2", "--rank", "4"],
    ["dickson", "--rank=3", "--prime=3"],
    ["symreduce", "--rank", "2", "--prime", "5"],
    ["pregular", "g.json", "--prime", "2", "--character", "regular"],
    ["pregular", "--character=values.json", "--prime", "3", "g.json"],
    ["closure", "g.json", "--prime", "2", "--category", "c.json"],
    ["closure", "--pretty", "--category=c.json", "g.json", "--prime=2"],
]

# each malformed in its command line alone: read as argparse read them,
# the abbreviated option and the separator ran the command
ALT4 = str(Path(__file__).resolve().parent / "golden" / "alt4.group.json")
MALFORMED_COMMAND_LINES = {
    "no command": [],
    "unknown command": ["frobnicate"],
    "unknown option": ["analyze", ALT4, "--prime", "2", "--colour"],
    "abbreviated option": ["analyze", ALT4, "--pri", "2"],
    "separator": ["analyze", "--prime", "2", "--", ALT4],
    "single-dash option": ["dickson", "-p", "2", "--rank", "2"],
    "version after a command": ["analyze", ALT4, "--prime", "2", "--version"],
    "option with no value": ["analyze", ALT4, "--prime"],
    "flag with a value": ["analyze", ALT4, "--prime", "2", "--pretty=yes"],
    "non-integer prime": ["analyze", ALT4, "--prime", "two"],
    "non-integer rank": ["dickson", "--prime", "2", "--rank", "2.0"],
    "non-integer max-n": ["analyze", ALT4, "--prime", "2", "--max-n=x"],
    "negative max-n": ["analyze", ALT4, "--prime", "2", "--max-n", "-1"],
    "missing required option": ["dickson", "--prime", "2"],
    "missing positional": ["closure", "--prime", "2", "--category", "c.json"],
    "nothing after the command": ["analyze"],
    "extra positional": ["analyze", ALT4, "h.json", "--prime", "2"],
    "extra gallery entry": ["gallery", "affine-4", "affine-8"],
    # int() reads these as 11, 3 and 3
    "underscored prime": ["dickson", "--prime", "1_1", "--rank", "1"],
    "non-ASCII digit": ["dickson", "--prime", "\u0663", "--rank", "1"],
    "spaced prime": ["dickson", "--prime", " 3", "--rank", "1"],
}


class TestCommandLine:
    @pytest.mark.parametrize("argv", VALID_COMMAND_LINES, ids=" ".join)
    def test_reader_matches_argparse(self, argv):
        assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", MALFORMED_COMMAND_LINES.values(),
                             ids=MALFORMED_COMMAND_LINES.keys())
    def test_malformed_command_line(self, capsys, argv):
        main_input_error(capsys, *argv)

    @pytest.mark.parametrize("value", ["1_1", "\u0663", " 3", "3 ", "+", ""])
    def test_numbers_are_ascii_digits(self, capsys, value):
        assert cli.main(["dickson", "--prime", value, "--rank", "1"]) == 2
        assert capsys.readouterr() == ("", "error: dickson: bad --prime: expected a prime below "
                                           f"{PRIME_LIMIT}, got {value!r}\n")

    def test_signed_numbers_are_read(self, capsys):
        assert cli.main(["dickson", "--prime", "+3", "--rank", "1"]) == 0
        assert cli.main(["analyze", ALT4, "--prime", "2", "--max-n", "+1"]) == 0

    def test_malformed_command_line_in_a_fresh_process(self):
        r = run_cli("analyze")
        assert_input_error(r)
        assert r.stderr == "error: analyze: missing GROUP, --prime\n"

    def test_help_lists_every_command(self, capsys):
        assert cli.usage("analyze") == (
            "elabcat analyze GROUP --prime PRIME [--kinds KINDS] [--max-n MAX_N] [--pretty]")
        for argv in (["--help"], ["-h"]):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            assert all(f"  {cli.usage(name)}\n      {cmd.help}\n" in out
                       for name, cmd in cli.COMMANDS.items())

    @pytest.mark.parametrize("name", ["analyze", "gallery", "dickson", "symreduce",
                                      "pregular", "closure"])
    def test_help_after_a_command(self, capsys, name):
        # asked for anywhere after the command, before a missing or extra
        # argument is reported
        assert cli.main([name, "--help"]) == cli.main([name, "x", "y", "-h"]) == 0
        out = capsys.readouterr().out
        assert out == 2 * f"usage: {cli.usage(name)}\n    {cli.COMMANDS[name].help}\n"

    def test_help_in_a_fresh_process(self):
        r = run_cli("--help")
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout.startswith("usage: elabcat COMMAND [ARGS]\n")


class TestGuardsAndFailures:
    def test_lazy_creg_hom_sets_are_guarded(self, tmp_path):
        # (Z/2)^5 acting regularly: 374 subgroups, and Creg on the rank-5
        # one alone has |GL_5(F_2)| = 9,999,360 maps.  analyze counts Creg
        # without listing a map; closure and materialize list them, and
        # are refused before they start
        gens = [[x ^ (1 << i) for x in range(32)] for i in range(5)]
        path = tmp_path / "z2-5.json"
        path.write_text(json.dumps({"name": "z2-5", "degree": 32,
                                    "generators": gens}))
        start = time.perf_counter()
        r = run_cli("analyze", str(path), "--prime", "2", "--kinds", "Creg")
        assert time.perf_counter() - start < 10
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        rank = {E["class"]: E["rank"] for E in doc["catalog"]["subgroups"]}
        assert doc["kinds"]["Creg"]["hom_sizes"] == [
            [injective_count(2, rank[y], rank[x]) for y in sorted(rank)] for x in sorted(rank)]

        category = tmp_path / "creg.json"
        category.write_text(json.dumps({"base_kind": "Creg", "homs": []}))
        start = time.perf_counter()
        r = run_cli("closure", str(path), "--prime", "2", "--category", str(category))
        assert time.perf_counter() - start < 10
        assert r.returncode == 3
        assert r.stderr.startswith("error: guard hom_count_cap: ")
        assert "71299041" in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1

        catalog = enumerate_elabs(cli.load_group(str(path)), 2)
        with pytest.raises(CapExceeded):
            build_category(CREG, catalog).materialize()

    def test_search_built_hom_sets_are_guarded(self, tmp_path):
        # AGL(1,32) from x -> x xor 1 and x -> t*x mod t^5+t^2+1: its 31
        # translations form one class, so Aprime on the translations may
        # send each basis vector anywhere in it, a bound of 31^5 maps
        def times_t(x):
            return (x << 1) ^ 0b100101 if x & 16 else x << 1
        gens = [[x ^ 1 for x in range(32)], [times_t(x) for x in range(32)]]
        path = tmp_path / "agl1-32.json"
        path.write_text(json.dumps({"name": "agl1-32", "degree": 32,
                                    "generators": gens}))
        start = time.perf_counter()
        r = run_cli("analyze", str(path), "--prime", "2")
        assert time.perf_counter() - start < 5
        assert r.returncode == 3
        assert r.stderr.startswith("error: guard hom_count_cap: ")
        assert "28629151" in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["analyze", "closure"])
    def test_a_hom_sets_are_guarded_before_they_are_built(self, a4_path, tmp_path, command):
        # A4 at p=2, cap 5: analyze counts A by its isomorphisms and is
        # stopped by the bound on the Aprime automorphisms of the Klein
        # four-group; closure counts its A base, 10 maps between class
        # representatives, before it builds a row
        message = {"analyze": "a hom-set of rank 2 into rank 2 may hold 9 maps",
                   "closure": "the base between class representatives holds 10 maps"}
        args = [command, a4_path, "--prime", "2"]
        if command == "analyze":
            args += ["--kinds", "A"]
        else:
            path = tmp_path / "cat.json"
            path.write_text(json.dumps(SWAP_CATEGORY))
            args += ["--category", str(path)]
        r = run_cli(*args, env={"ELABCAT_HOM_COUNT_CAP": "5"})
        assert r.returncode == 3
        assert r.stderr.startswith(f"error: guard hom_count_cap: {message[command]}, ")
        assert len(r.stderr.strip().splitlines()) == 1
        assert run_cli(*args, env={"ELABCAT_HOM_COUNT_CAP": "26"}).returncode == 0

    def test_default_kinds_factor_large_primes(self):
        golden = Path(__file__).resolve().parent / "golden"
        start = time.perf_counter()
        r = run_cli("analyze", str(golden / "alt4.group.json"),
                    "--prime", "1000000000000000003")
        assert time.perf_counter() - start < 5
        assert r.returncode in (0, 3), r.stderr

    def test_prime_factors(self):
        for n in range(1, 3000):
            factors = cli.prime_factors(n)
            assert all(cli.is_prime(q) for q in factors)
            assert [d for d in range(2, n + 1) if n % d == 0 and cli.is_prime(d)] == sorted(factors)
            assert math.prod(q ** e for q, e in factors.items()) == n
        n = 1000003 * 1000033 ** 2 * 2 ** 5
        assert cli.prime_factors(n) == {2: 5, 1000003: 1, 1000033: 2}
        labels = [k.label() for k in cli.default_kinds(13, 1, None)]
        assert labels == ["A", "Aprime", "AprimeD(2)", "AprimeD(3)", "AprimeD(4)",
                          "AprimeD(6)", "AprimeD(12)", "An(1)"]

    @pytest.mark.parametrize("args, code", [
        (["dickson", "--prime", "1000000000000000003", "--rank", "1"], 3),
        (["symreduce", "--prime", "1000000000000000003", "--rank", "1"], 3),
        (["dickson", "--prime", "1009", "--rank", "2"], 3),
        (["dickson", "--prime", "2", "--rank", "1000000000"], 3),
        (["analyze", None, "--prime", "4294967311"], 0),
        (["analyze", None, "--prime", "4294967311", "--kinds", "A,Aprime"], 0),
    ])
    def test_large_primes_finish(self, a4_path, args, code):
        start = time.perf_counter()
        r = run_cli(*[a4_path if a is None else a for a in args])
        assert time.perf_counter() - start < 5
        assert r.returncode == code, r.stderr
        if code == 3:
            assert r.stderr.startswith("error: guard term_cap: ")
        else:
            doc = json.loads(r.stdout)
            assert doc["catalog"]["size"] == 1
            assert list(doc["kinds"])[:2] == ["A", "Aprime"]

    def test_unexpected_exception_is_one_line(self, monkeypatch, capsys):
        def broken(p, n):
            raise RuntimeError("boom\nsecond line")
        monkeypatch.setattr(chern, "dickson_check", broken)
        assert cli.main(["dickson", "--prime", "2", "--rank", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom second line\n"


GOLDEN = Path(__file__).resolve().parent / "golden"


def a_row_past_the_cap():
    # A4 at p=2: the A row out of a rank-1 representative holds 4 maps
    # into representatives; no command builds a row alone, so it is read
    # through the library
    catalog = enumerate_elabs(cli.load_group(str(GOLDEN / "alt4.group.json")), 2)
    build_category(A, catalog).hom(catalog.class_reps[1], len(catalog) - 1)


# every cap refusal: (caps set, the command or the library call, the
# stderr line after "error: guard ")
CAP_REFUSALS = {
    "catalog": ({"ELABCAT_CATALOG_CAP": "10"},
                ["analyze", str(GOLDEN / "sym5.group.json"), "--prime", "2"],
                "catalog_cap: subgroup catalog passed the cap (10); "
                "raise ELABCAT_CATALOG_CAP to allow more"),
    "product-terms": ({"ELABCAT_TERM_CAP": "100"}, ["dickson", "--prime", "2", "--rank", "5"],
                      "term_cap: polynomial product passed 100 terms; "
                      "raise ELABCAT_TERM_CAP to allow more"),
    "weights": ({"ELABCAT_TERM_CAP": "20"}, ["dickson", "--prime", "2", "--rank", "5"],
                "term_cap: 2^5 weights pass the term cap (20); "
                "raise ELABCAT_TERM_CAP to allow more"),
    "searched-hom-set": ({"ELABCAT_HOM_COUNT_CAP": "3"},
                         ["analyze", str(GOLDEN / "sym5.group.json"), "--prime", "2",
                          "--kinds", "Aprime"],
                         "hom_count_cap: a hom-set of rank 2 into rank 2 may hold 4 maps, "
                         "more than the cap (3); raise ELABCAT_HOM_COUNT_CAP to allow more"),
    "group-closure": ({"ELABCAT_ELEMENT_CAP": "100"},
                      ["analyze", str(GOLDEN / "sym5.group.json"), "--prime", "2"],
                      "element_cap: group closure passed the element cap (100); "
                      "raise ELABCAT_ELEMENT_CAP to allow more"),
    "hom-dict": ({"ELABCAT_HOM_COUNT_CAP": "5"},
                 ["closure", str(GOLDEN / "alt4.group.json"), "--prime", "2",
                  "--category", "explicit.json"],
                 "hom_count_cap: the category holds 26 maps, more than the cap (5); "
                 "raise ELABCAT_HOM_COUNT_CAP to allow more"),
    "closure-base": ({"ELABCAT_HOM_COUNT_CAP": "5"},
                     ["closure", str(GOLDEN / "alt4.group.json"), "--prime", "2",
                      "--category", str(GOLDEN / "alt4-p2-grow.category.json")],
                     "hom_count_cap: the base between class representatives holds 10 maps, "
                     "more than the cap (5); raise ELABCAT_HOM_COUNT_CAP to allow more"),
    # refused on its degree alone, before any per-point array is built
    "document-degree": ({}, ["analyze", "huge.group.json", "--prime", "2"],
                        "element_cap: group element table of 1 x 1000000000000 entries "
                        "passed 64 per element of the cap; raise ELABCAT_ELEMENT_CAP to "
                        "allow more"),
    "gallery-degree": ({"ELABCAT_ELEMENT_CAP": "7"}, ["gallery", "affine-8"],
                       "element_cap: affine-8 acts on 8 points, past what the element cap "
                       "(7) allows; raise ELABCAT_ELEMENT_CAP to allow more"),
    # refused before p^(n+1) is formed, and its exponent stays short
    "gallery-prop10-degree": ({}, ["gallery", "prop10.json"],
                              "element_cap: prop10-2-14300 acts on more than 2^14301 points, "
                              "past what the element cap (65536) allows; raise "
                              "ELABCAT_ELEMENT_CAP to allow more"),
    "row": ({"ELABCAT_HOM_COUNT_CAP": "3"}, a_row_past_the_cap,
            "hom_count_cap: the A hom-sets out of 1 objects hold 4 maps, more than the cap "
            "(3); raise ELABCAT_HOM_COUNT_CAP to allow more"),
}


@pytest.mark.parametrize("env,run,line", CAP_REFUSALS.values(), ids=CAP_REFUSALS)
def test_cap_refusal(monkeypatch, tmp_path, capsys, env, run, line):
    # a command exits 3 with one line; a library call raises what the
    # command line would print
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "explicit.json").write_text(json.dumps({"homs": []}))   # every map explicit
    (tmp_path / "huge.group.json").write_text(json.dumps({"degree": 10 ** 12, "generators": []}))
    (tmp_path / "prop10.json").write_text(json.dumps({
        "name": "prop10-2-14300", "builder": "prop10", "params": {"p": 2, "n": 14300},
        "prime": 2, "claims": []}))
    if callable(run):
        with pytest.raises(CapExceeded) as e:
            run()
        err = f"error: guard {e.value.guard}: {e.value}\n"
    else:
        assert cli.main(run) == 3
        err = capsys.readouterr().err
    assert err == f"error: guard {line}\n"


class TestGallery:
    def test_single_entry_passes(self):
        r = run_cli("gallery", "affine-4")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_claim_failure_exit_code(self, tmp_path):
        doc = {"name": "x", "builder": "affine", "params": {"q": 4},
               "prime": 2,
               "claims": [{"id": "wrong", "text": "wrong on purpose",
                           "provenance": "derived", "check": "group_order",
                           "expected": 99}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        r = run_cli("gallery", str(path))
        assert r.returncode == 4
        assert r.stdout.startswith("FAIL")

    def test_unknown_entry(self):
        r = run_cli("gallery", "nope")
        assert r.returncode == 2

    @pytest.mark.parametrize("text", [
        '{"name": "x", "claims": [',                       # not JSON
        '[1, 2]',                                          # not an object
        '{"name": "x", "builder": "affine", "params": {"q": 4}, "prime": 2, '
        '"claims": [1]}',                                  # a claim not an object
        '{"name": "x", "builder": "affine", "params": {"q": 4}, "prime": 2, '
        '"claims": 7}',
    ])
    def test_malformed_entry_file(self, tmp_path, capsys, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        main_input_error(capsys, "gallery", str(path))

    @pytest.mark.parametrize("builder,params,prime,check,args", [
        ("affine", {}, 2, "group_order", {}),                        # no q
        ("affine", {"q": 6}, 2, "group_order", {}),                  # not a prime power
        ("gl3", {"p": 4}, 2, "group_order", {}),                     # not a prime
        ("prop10", {"p": 2, "n": 0}, 2, "group_order", {}),
        ("cyclic", {"n": 3}, 3, "matrix_orbit_sizes", {"which": "q"}),  # no matrix groups
        ("affine", {"q": 4}, 2, "aut_order", {"kind": "A"}),         # no object
        ("triangular", {"p": 2, "n": 3}, 2, "matrix_group_order", {}),  # no which
    ])
    def test_malformed_entry_values(self, tmp_path, capsys, builder, params, prime,
                                    check, args):
        doc = {"name": "x", "builder": builder, "params": params, "prime": prime,
               "claims": [{"id": "c", "text": "t", "provenance": "derived",
                           "check": check, "expected": 1, "args": args}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        main_input_error(capsys, "gallery", str(path))

    def test_kind_divisor_must_divide_p_minus_1(self, tmp_path, capsys):
        # read by the one kind parser that --kinds and base_kind use
        doc = {"name": "x", "builder": "cyclic", "params": {"n": 3}, "prime": 3,
               "claims": [{"id": "c", "text": "t", "provenance": "derived",
                           "check": "aut_order", "expected": 1,
                           "args": {"kind": "AprimeD(4)", "object": "kernel"}}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        main_input_error(capsys, "gallery", str(path))

    def test_prop10_past_the_element_cap(self, tmp_path):
        # the (2, 2) group has 2^10 translations but far more elements
        doc = {"name": "prop10-2-2", "builder": "prop10", "params": {"p": 2, "n": 2},
               "prime": 2, "claims": []}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        r = run_cli("gallery", str(path))
        assert r.returncode == 3
        assert r.stderr.startswith("error: guard element_cap")

    @pytest.mark.parametrize("builder,params,prime", [
        ("affine", {"q": 65537}, 65537),
        ("cyclic", {"n": 70000}, 2),
        ("gl3", {"p": 47}, 47),
        ("triangular", {"p": 2, "n": 17}, 2),
    ])
    def test_degree_past_the_element_cap(self, tmp_path, capsys, builder, params, prime):
        # each group is transitive or holds its translations, so it is
        # refused on its degree before any permutation is formed
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"name": "x", "builder": builder, "params": params,
                                    "prime": prime, "claims": []}))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert cli.main(["gallery", str(path)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 16 * 2 ** 20
        assert capsys.readouterr().err.startswith("error: guard element_cap")

    def test_large_entry_prime(self, tmp_path, capsys):
        # one Miller-Rabin test, not trial division up to 10^9
        doc = {"name": "x", "builder": "cyclic", "params": {"n": 3},
               "prime": 1_000_000_000_000_000_003,
               "claims": [{"id": "c", "text": "t", "provenance": "derived",
                           "check": "group_order", "expected": 3}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert cli.main(["gallery", str(path)]) == 0
        assert time.perf_counter() - start < 2
        doc["prime"] = PRIME_LIMIT
        path.write_text(json.dumps(doc))
        main_input_error(capsys, "gallery", str(path))


class TestPolynomialCommands:
    def test_dickson_output(self):
        r = run_cli("dickson", "--prime", "2", "--rank", "2")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "c2 = x1^2 + x1*x2 + x2^2"
        assert lines[1] == "c3 = x1^2*x2 + x1*x2^2"
        assert lines[2] == "degrees = [2, 3]"
        assert lines[3] == "invariant = true"

    def test_symreduce_golden(self):
        r = run_cli("symreduce", "--prime", "2", "--rank", "2")
        assert r.stdout.strip() == "1 + s1 + s2"

    @pytest.mark.parametrize("cmd, p, n", [
        ("dickson", 2, 4), ("dickson", 2, 5), ("dickson", 3, 3),
        ("dickson", 5, 2), ("symreduce", 2, 4), ("symreduce", 3, 3),
        ("symreduce", 5, 2)])
    def test_golden_output(self, cmd, p, n):
        golden = Path(__file__).resolve().parent / "golden" / f"{cmd}-p{p}-r{n}.txt"
        r = run_cli(cmd, "--prime", str(p), "--rank", str(n))
        assert r.returncode == 0
        assert r.stdout == golden.read_text()

    def test_dickson_rank_4_at_p3_fits(self):
        r = run_cli("dickson", "--prime", "3", "--rank", "4")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-2:] == ["degrees = [54, 72, 78, 80]",
                                              "invariant = true"]

    def test_dickson_term_cap(self):
        start = time.monotonic()
        r = run_cli("dickson", "--prime", "2", "--rank", "7")
        assert time.monotonic() - start < 5
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == ("error: guard term_cap: polynomial product passed "
                            "200000 terms; raise ELABCAT_TERM_CAP to allow more\n")

    def test_pregular_regular(self, a4_path):
        r = run_cli("pregular", a4_path, "--prime", "2",
                    "--character", "regular")
        assert r.returncode == 0
        assert r.stdout.strip() == "true"

    def test_pregular_trivial(self, a4_path):
        r = run_cli("pregular", a4_path, "--prime", "2",
                    "--character", "trivial")
        assert r.returncode == 0
        assert r.stdout.startswith("false (")

    def test_pregular_character_file(self, a4_path, tmp_path):
        # regular character of A_4 given explicitly: 12 on the identity
        # class, 0 elsewhere (classes: 1, 2^2, 3, 3)
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"values": [12, 0, 0, 0]}))
        r = run_cli("pregular", a4_path, "--prime", "2",
                    "--character", str(path))
        assert r.stdout.strip() == "true"

    def test_pregular_bad_character_file(self, a4_path, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"values": [1, 2]}))
        r = run_cli("pregular", a4_path, "--prime", "2",
                    "--character", str(path))
        assert r.returncode == 2

    @pytest.mark.parametrize("values", [[True, 1, 1, 1], [12, 0, 0, 0.5]])
    def test_pregular_values_must_be_integers(self, a4_path, tmp_path, capsys, values):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"values": values}))
        main_input_error(capsys, "pregular", a4_path, "--prime", "2",
                         "--character", str(path))


class TestClosure:
    def test_swap_closes_to_aprime(self, a4_path, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(SWAP_CATEGORY))
        r = run_cli("closure", a4_path, "--prime", "2", "--category",
                    str(path))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["already_closed"] is False
        assert doc["hom_count_before"] == 27
        assert doc["hom_count_after"] == 29
        assert doc["pairs_changed"] == [
            {"domain": 4, "codomain": 4, "before": 4, "after": 6}]

    def test_already_closed(self, a4_path, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "Aprime", "homs": []}))
        r = run_cli("closure", a4_path, "--prime", "2", "--category",
                    str(path))
        doc = json.loads(r.stdout)
        assert doc["already_closed"] is True

    @pytest.mark.parametrize("base", ["A", "Creg"])
    def test_no_torsion(self, a4_path, tmp_path, capsys, base):
        # at p=5 the catalog holds only the trivial subgroup
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": base, "homs": []}))
        assert cli.main(["closure", a4_path, "--prime", "5", "--category", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["already_closed"] is True and doc["hom_count_after"] == 1

    def test_guard_exit_code(self, a4_path, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(
            {"homs": [{"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
                       "matrices": [[[1, 0], [0, 1]]]}]}))
        r = run_cli("closure", a4_path, "--prime", "2", "--category",
                    str(path))
        assert r.returncode == 5

    @pytest.mark.parametrize("record", [
        # read as the swap by int(x) before integers were required
        {"domain": ["0", "3", 8, 11.7], "codomain": [0, 3, 8, 11],
         "matrices": [[[0.5, 1.9], [1, 0]]]},
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[[0.5, 1.9], [1, 0]]]},
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[[False, True], [True, False]]]},
        {"domain": [0, True, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[[0, 1], [1, 0]]]},
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[[0, 1]]]},                        # one row for rank 2
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[[1, 1], [1, 1]]]},                # not injective
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[0, 1]]},
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11]},
        [0, 3, 8, 11],
    ])
    def test_malformed_record_rejected(self, a4_path, tmp_path, capsys, record):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": [record]}))
        main_input_error(capsys, "closure", a4_path, "--prime", "2",
                         "--category", str(path))

    @pytest.mark.parametrize("domain, message", [
        ([0, 0], "not a catalog subgroup"),
        ([-1, 0], "not a catalog subgroup"),
        ([99999999999999999999999], "not a catalog subgroup"),
        ([0, 1, 2, 3], "not a catalog subgroup"),         # distinct, not a member
        ([0, 1.0], "bad homs[0].domain[1]: expected an integer, got 1.0"),
        ([True, 0], "bad homs[0].domain[0]: expected an integer, got true"),
    ])
    def test_domain_lookup(self, a4_path, tmp_path, capsys, domain, message):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": [
            {"domain": domain, "codomain": [0, 3, 8, 11], "matrices": []}]}))
        assert cli.main(["closure", a4_path, "--prime", "2", "--category", str(path)]) == 2
        if not message.startswith("bad "):
            message = f"hom record names an element set that is {message}"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_bad_matrix_names_both_ranks(self, a4_path, tmp_path, capsys):
        # a map from a member of rank 1 into one of rank 2 is 2 rows of 1 entry
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": [
            {"domain": [0, 3], "codomain": [0, 3, 8, 11], "matrices": [[[1, 0]]]}]}))
        assert cli.main(["closure", a4_path, "--prime", "2", "--category", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad matrix: each needs 2 rows of 1 integers\n")

    def test_homs_must_be_a_list(self, a4_path, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": 7}))
        main_input_error(capsys, "closure", a4_path, "--prime", "2",
                         "--category", str(path))

    @pytest.mark.parametrize("base", [5, ["A"], "An(-1)", "Bogus"])
    def test_bad_base_kind_rejected(self, a4_path, tmp_path, capsys, base):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": base, "homs": []}))
        assert cli.main(["closure", a4_path, "--prime", "2", "--category",
                         str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad base_kind: "), err
        assert len(err.strip().splitlines()) == 1

    def test_entries_are_read_mod_p(self, a4_path, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": [
            {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
             "matrices": [[[2, -1], [3, 0]]]}]}))
        assert cli.main(["closure", a4_path, "--prime", "2", "--category",
                         str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["hom_count_after"] == 29

    @pytest.mark.parametrize("document", [{}, {"homs": []}])
    def test_empty_input_misses_the_trivial_automorphism(self, tmp_path, document):
        # no base kind and no maps: the first A map it omits is the empty
        # map of the trivial subgroup
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(document))
        golden = Path(__file__).resolve().parent / "golden"
        r = run_cli("closure", str(golden / "alt4.group.json"), "--prime", "2",
                    "--category", str(path))
        assert r.returncode == 5
        assert r.stderr == ("error: input omits 1 conjugation-induced morphism "
                            "on object pair (0, 0)\n")

    def test_empty_input_over_s7_is_refused_without_listing_a_map(self, tmp_path, monkeypatch,
                                                                    capsys):
        # S7 at p=2 has 607,888 member pairs with A maps: the first, (0, 0),
        # is refused off A's class sizes, with no hom-set listed
        def hom_dict(self):
            raise AssertionError("hom_dict listed every A map")
        monkeypatch.setattr(SubgroupCategory, "hom_dict", hom_dict)
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"homs": []}))
        golden = Path(__file__).resolve().parent / "golden"
        assert cli.main(["closure", str(golden / "sym7.group.json"), "--prime", "2",
                         "--category", str(path)]) == 5
        assert capsys.readouterr() == ("", "error: input omits 1 conjugation-induced morphism "
                                           "on object pair (0, 0)\n")

    def test_unknown_subgroup_rejected(self, a4_path, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(
            {"homs": [{"domain": [0, 1], "codomain": [0, 1],
                       "matrices": [[[1]]]}]}))
        r = run_cli("closure", a4_path, "--prime", "2", "--category",
                    str(path))
        assert r.returncode == 2


class TestMisc:
    def test_in_process_output_matches_a_fresh_process(self, capsys):
        # commands run one after another in one process, as the benchmark
        # runs them, print what each prints in a process of its own
        runs = [["dickson", "--prime", "2", "--rank", "3"],
                ["symreduce", "--prime", "3", "--rank", "2"]]
        outs = []
        for argv in runs:
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [run_cli(*argv).stdout for argv in runs]

    def test_version(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert r.stdout == f"elabcat {__version__}\n"

    def test_no_command_fails(self):
        r = run_cli()
        assert r.returncode != 0

    def test_numpy_ma_is_never_imported(self):
        # numpy.ma costs about 1 MiB of peak RSS and np.unique imports it,
        # so deduplication sorts and compares instead
        golden = Path(__file__).resolve().parent / "golden"
        runs = [["analyze", str(golden / "alt4.group.json"), "--prime", "2"],
                ["closure", str(golden / "alt4.group.json"), "--prime", "2",
                 "--category", str(golden / "alt4-p2-grow.category.json")]]
        code = ("import contextlib, io, sys\n"
                "from elabcat.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [main(argv) for argv in {runs!r}]\n"
                "print(codes, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env)
        assert r.stdout.split("\n")[0] == "[0, 0] False", r.stderr

    def test_argparse_is_never_imported(self):
        # building an argparse parser imports locale and gettext and costs
        # about 3 ms, a quarter of a short command; the COMMANDS table is read
        # without them
        golden = Path(__file__).resolve().parent / "golden"
        runs = [["analyze", str(golden / "alt4.group.json"), "--prime", "2"],
                ["closure", str(golden / "alt4.group.json"), "--prime", "2",
                 "--category", str(golden / "alt4-p2-grow.category.json")],
                ["gallery", "affine-4"],
                ["dickson", "--prime", "2", "--rank", "3"]]
        code = ("import contextlib, io, sys\n"
                "from elabcat.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [main(argv) for argv in {runs!r}]\n"
                "print(codes, [m for m in ('argparse', 'gettext', 'locale') "
                "if m in sys.modules])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env)
        assert r.stdout.split("\n")[0] == "[0, 0, 0, 0] []", r.stderr

    def test_dataclasses_is_never_imported(self):
        # records are NamedTuples: a dataclass generates and compiles its
        # methods at every import, and importing dataclasses costs too;
        # fibre indices are reduced with math.gcd, so fractions (and the
        # decimal it imports) stay out as well; numpy imports none of them
        golden = Path(__file__).resolve().parent / "golden"
        runs = [["analyze", str(golden / "alt4.group.json"), "--prime", "2"],
                ["pregular", str(golden / "alt4.group.json"), "--prime", "2",
                 "--character", "permutation"],
                ["gallery", "affine-4"],
                ["dickson", "--prime", "2", "--rank", "3"]]
        code = ("import contextlib, io, sys\n"
                "import numpy\n"
                "names = {'dataclasses', 'fractions', 'decimal'}\n"
                "seen = [sorted(names & set(sys.modules))]\n"
                "import elabcat.cli\n"
                "seen.append(sorted(names & set(sys.modules)))\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [elabcat.cli.main(argv) for argv in {runs!r}]\n"
                "print(codes, seen + [sorted(names & set(sys.modules))])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env)
        assert r.stdout.split("\n")[0] == "[0, 0, 0, 0] [[], [], []]", r.stderr

    def test_closed_stdout_exits_quietly(self):
        # a 4 MB report, far more than a pipe holds, so the command is
        # still writing when its reader closes the pipe after one line
        golden = Path(__file__).resolve().parent / "golden"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "elabcat", "analyze", str(golden / "z3-4.group.json"),
             "--prime", "3", "--pretty"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141
