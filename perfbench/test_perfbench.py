"""
The benchmark's own checks; about a minute and a half on a 2-core host.

    python3 -m pytest perfbench -q

Each workload runs once traced and once untraced: every traced function
must be called on the workloads that exercise it (which also proves that
the aliases other modules imported by name were wrapped), and the traced
and untraced outputs must equal the stored reference byte for byte.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

REF = json.loads(run.REFERENCE.read_text())


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in run.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_every_traced_function_has_a_workload():
    traced = {f"{mod}.{fn}" for mod, fns in tracer.SPANS.items() for fn in fns}
    exercised = {fn for w in run.WORKLOADS.values() for fn in w.exercised}
    assert exercised == traced


def test_warm_reference_equals_cold():
    assert REF["table-warm"] == REF["table-cold"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_matches_untraced_and_calls_every_function(name):
    w = run.WORKLOADS[name]
    problems = []
    source = run.prefill(REF, problems) if w.cache == "prefilled" else None
    assert not problems
    traced = run.spawn(w, "traced", source)
    plain = run.spawn(w, "plain", source)
    assert traced.exit == plain.exit == 0
    assert traced.digest == plain.digest == REF[name]["sha256"]
    calls = traced.trace["calls"]
    missing = [fn for fn in w.exercised if not calls.get(fn)]
    assert not missing, f"{name}: never called {missing}"
    tally = run.Tally(w)
    assert run.check_child(tally, traced, REF), tally.problems
