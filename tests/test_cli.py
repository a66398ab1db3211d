import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from elabcat import chern, cli

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

    @pytest.mark.parametrize("cmd", ["dickson", "symreduce"])
    def test_rank_below_one(self, cmd):
        assert_input_error(run_cli(cmd, "--prime", "2", "--rank", "0"))

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
        assert "integer images" in r.stderr

    def test_negative_max_n(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2", "--max-n", "-1")
        assert_input_error(r)
        assert "--max-n" in r.stderr

    def test_non_integer_cap(self, a4_path):
        r = run_cli("analyze", a4_path, "--prime", "2",
                    env={"ELABCAT_CATALOG_CAP": "lots"})
        assert_input_error(r)
        assert "ELABCAT_CATALOG_CAP" in r.stderr


class TestGuardsAndFailures:
    def test_lazy_creg_hom_sets_are_guarded(self, tmp_path):
        # (Z/2)^5 acting regularly: 374 subgroups, and Creg between the
        # two rank-5 copies alone has |GL_5(F_2)| = 9,999,360 matrices
        gens = [[x ^ (1 << i) for x in range(32)] for i in range(5)]
        path = tmp_path / "z2-5.json"
        path.write_text(json.dumps({"name": "z2-5", "degree": 32,
                                    "generators": gens}))
        start = time.perf_counter()
        r = run_cli("analyze", str(path), "--prime", "2", "--kinds", "Creg")
        assert time.perf_counter() - start < 10
        assert r.returncode == 3
        assert r.stderr.startswith("error: guard hom_count_cap: ")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_unexpected_exception_is_one_line(self, monkeypatch, capsys):
        def broken(p, n):
            raise RuntimeError("boom\nsecond line")
        monkeypatch.setattr(chern, "dickson_check", broken)
        assert cli.main(["dickson", "--prime", "2", "--rank", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom second line\n"


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

    def test_homs_must_be_a_list(self, a4_path, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": 7}))
        main_input_error(capsys, "closure", a4_path, "--prime", "2",
                         "--category", str(path))

    def test_entries_are_read_mod_p(self, a4_path, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"base_kind": "A", "homs": [
            {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
             "matrices": [[[2, -1], [3, 0]]]}]}))
        assert cli.main(["closure", a4_path, "--prime", "2", "--category",
                         str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["hom_count_after"] == 29

    def test_unknown_subgroup_rejected(self, a4_path, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(
            {"homs": [{"domain": [0, 1], "codomain": [0, 1],
                       "matrices": [[[1]]]}]}))
        r = run_cli("closure", a4_path, "--prime", "2", "--category",
                    str(path))
        assert r.returncode == 2


class TestMisc:
    def test_version(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert "elabcat" in r.stdout

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
