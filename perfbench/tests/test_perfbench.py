"""Tests of the benchmark's own logic: python3 -m pytest perfbench/tests"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle
import run
import tracing
from worker import run_job

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ALT4 = [[1, 2, 0, 3], [1, 0, 3, 2]]
SYM4 = [[1, 0, 2, 3], [1, 2, 3, 0]]


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
        ("c", 5.5, 7.0, 0, 0),      # overlaps b: the union counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def _labellings(gens, count):
    degree = len(gens[0])
    for seed in range(count):
        sigma = list(range(degree))
        random.Random(seed).shuffle(sigma)
        yield gen.relabel(gens, sigma)


@pytest.mark.parametrize("gens", [ALT4, SYM4], ids=["alt4", "S4"])
@pytest.mark.parametrize("argv", [["analyze", "--prime", "2"],
                                  ["analyze", "--prime", "3"],
                                  ["pregular", "--prime", "2", "--character", "regular"]])
def test_invariants_do_not_depend_on_point_labels(tmp_path, gens, argv):
    seen_inv, seen_raw = [], set()
    for k, relabelled in enumerate(_labellings(gens, 4)):
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps({"name": "g", "degree": len(gens[0]),
                                    "generators": relabelled}))
        _s, code, stdout, errors = run_job([argv[0], str(path), *argv[1:]])
        assert code == 0, errors
        seen_inv.append(oracle.invariants(argv[0], code, stdout))
        seen_raw.add(stdout)
    assert all(inv == seen_inv[0] for inv in seen_inv)
    if argv[0] == "analyze" and argv[2] == "2":
        assert len(seen_raw) > 1     # the labels did reach the raw output


def test_closure_invariants_do_not_depend_on_point_labels(tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"base_kind": "A"}))
    seen = []
    for k, relabelled in enumerate(_labellings(ALT4, 3)):
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps({"name": "alt4", "degree": 4,
                                    "generators": relabelled}))
        record = gen.grow_record({"name": "alt4", "degree": 4,
                                  "generators": relabelled}, 2)
        grow = tmp_path / f"grow{k}.json"
        grow.write_text(json.dumps({"base_kind": "A", "homs": [record]}))
        row = []
        for category in (cat, grow):
            _s, code, stdout, errors = run_job(
                ["closure", str(path), "--prime", "2", "--category", str(category)])
            assert code == 0, errors
            row.append(oracle.invariants("closure", code, stdout))
        seen.append(row)
    assert all(row == seen[0] for row in seen)
    verify, grown = seen[0]
    assert verify["output"]["already_closed"]
    assert grown["output"]["hom_count_after"] > grown["output"]["hom_count_before"]


def test_frozen_values_agree_with_gallery_fixtures():
    expected = oracle.load_expected()
    assert oracle.fixture_disagreements(expected) == []
    assert expected["analyze/gl3-2/p2"]["output"]["catalog_size"] == 36


def test_every_job_has_a_frozen_value():
    expected = oracle.load_expected()
    ids = {job["id"] for w in gen.workloads.WORKLOADS
           for job in gen.workloads.jobs_of(w)}
    assert ids == set(expected)


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.generate("closure", 7, tmp_path / "a")
    b = gen.generate("closure", 7, tmp_path / "b")
    c = gen.generate("closure", 8, tmp_path / "c")
    files = lambda d: {p.name: p.read_text() for p in d.glob("*.json")
                       if p.name != "jobs.json"}
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
    ids = lambda doc: [j["id"] for j in doc["jobs"]]
    assert ids(a) == ids(b) and sorted(ids(a)) == sorted(ids(c))


def test_tracer_wraps_rebound_names_and_restores_them():
    from elabcat import cli, elabs, gallery
    original = elabs.enumerate_elabs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.enumerate_elabs is elabs.enumerate_elabs is gallery.enumerate_elabs
        assert cli.enumerate_elabs is not original
        tracer.begin_job(0)
        assert run_job(["gallery", "cyclic-3"])[1] == 0
        tracer.begin_job(1)
        assert run_job(["dickson", "--prime", "2", "--rank", "2"])[1] == 0
    finally:
        tracer.uninstall()
    assert cli.enumerate_elabs is original and elabs.enumerate_elabs is original
    assert tracer.absent == []
    layers = tracing.layer_metrics(tracer.spans, tracer.counts, None)
    assert layers["cli.main.calls"] == 2
    assert layers["gallery.verify_gallery.claims"] > 0
    assert layers["fppoly.FpPolynomial.__mul__.calls"] > 0
    assert {s[4] for s in tracer.spans} == {0, 1}
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]


def test_missing_name_reads_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (
        ("groups", "no_such_function", None, ()),
        ("groups", "FiniteGroup.no_such_method", None, ())))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["groups.no_such_function",
                             "groups.FiniteGroup.no_such_method"]


def _synthetic_pass(n_jobs, speed=1.0):
    return {"wall_s": 1.0, "peak_rss_mib": 40.0,
            "jobs": [{"id": f"j{i}", "seconds": 0.01 * (i + 1), "speed": speed,
                      "exit": 0, "ok": True, "errors": ""} for i in range(n_jobs)]}


def test_job_times_are_medians_at_the_reference_speed():
    passes = [_synthetic_pass(3, speed) for speed in (0.5, 1.0, 2.0)]
    passes[2]["jobs"][0]["seconds"] = 9.0      # one slow outlier pass
    assert run.job_times(passes) == pytest.approx(
        {"j0": 0.01, "j1": 0.02, "j2": 0.03})


def test_metric_names_match_benchmark_json():
    metrics, _notes = run.end_to_end([_synthetic_pass(28)], [0.2, 0.3])
    assert {k: u for k, (_v, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    spans = [("cli.main", 0.0, 1.0, -1, 0)]
    traced = dict(_synthetic_pass(28), layers=tracing.layer_metrics(spans, {}, (3, 1)),
                  spans=1, absent=[])
    layers, _notes = run.layer_report({"traced": traced, "passes": [_synthetic_pass(28)]})
    assert [(k, u) for k, (_v, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.metric_specs()


def test_tail_percentile_leaves_ten_samples_above():
    for n, q in ((28, 64), (84, 88), (20, 50)):
        assert run.tail_percentile(n) == q
        values = [float(i) for i in range(n)]
        assert sum(v > run.nearest_rank(values, q) for v in values) == 10
    assert run.tail_percentile(16) == 100 and run.tail_percentile(1) == 100


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.workloads.WORKLOADS)
    names = [m["name"] for sec in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[sec]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) == \
        len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
