"""``python -m repro.analysis --json examples/``: every example payload
loads, and the report partitions it the way the examples promise."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import main

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
#: The document at the last intended change of facts.  Regenerate it
#: from the repository root with
#: ``PYTHONPATH=src python -m repro.analysis --json examples/ >
#: tests/analysis/data/examples_report.json``.
GOLDEN = Path(__file__).resolve().parent / "data" / "examples_report.json"

EFFECT_KEYS = {
    "function", "pure", "natives", "callbacks", "allocates",
    "may_not_terminate", "has_unbounded_loop", "recursive",
    "unknown_effects", "loop_count", "max_loop_depth", "cost_units",
}
BOUND_KEYS = {
    "function", "fuel_bound", "local_fuel_bound", "mem_bound",
    "depth_bound", "min_fuel", "min_memory", "loops", "wrap_free_pcs",
    "nowrap_pcs", "value_bound", "in_bounds_pcs",
}
FLOW_KEYS = {
    "function", "return_sources", "callback_flows", "readonly_params",
    "escaping_allocs", "local_allocs", "trap_pcs", "trap_free",
}


@pytest.fixture(scope="module")
def document():
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", str(EXAMPLES)])
    assert code == 0
    return json.loads(out.getvalue())


def _functions(document):
    for entry in document["classes"]:
        for name, facts in entry["functions"].items():
            yield entry, name, facts


def test_every_payload_loads(document):
    # A script without UDF payloads is reported empty, not failed.
    assert document["failures"] == [
        {"target": str(EXAMPLES / "design_advisor.py"), "empty": True}
    ]
    assert len(document["classes"]) >= 9


def test_some_function_gets_a_kernel(document):
    eligible = {
        name for __, name, facts in _functions(document)
        if facts["tier"]["eligible"]
    }
    # Today: mem_bomb, alloc_bomb and score.
    assert eligible
    assert "score" in eligible
    for __, __, facts in _functions(document):
        tier = facts["tier"]
        assert (tier["refusal"] is None) == tier["eligible"]


def test_score_is_inlinable(document):
    (score,) = [
        facts for __, name, facts in _functions(document) if name == "score"
    ]
    assert score["inline"]["inlinable"] is True
    assert score["inline"]["sql"].startswith("(CASE WHEN")


def test_flows_refuse_the_exfiltration_demo(document):
    entries = {entry["target"]: entry for entry in document["classes"]}
    leaky = entries["malicious_udfs.py[11]"]
    assert leaky["flow_verdict"] == "refuse"
    assert [
        finding["level"] for finding in leaky["findings"]
        if finding["kind"] == "tainted-sink-flow"
    ] == ["error"]
    assert any(
        entry["flow_verdict"] == "accept" for entry in entries.values()
    )


def test_document_keys_are_pinned(document):
    assert set(document) == {"classes", "failures"}
    for entry in document["classes"]:
        assert set(entry) == {
            "target", "class", "functions", "findings", "flow_verdict",
        }
        for finding in entry["findings"]:
            assert set(finding) == {"level", "kind", "where", "pc", "message"}
    for __, __, facts in _functions(document):
        assert set(facts) == {
            "effects", "bounds", "cost", "inline", "flows", "tier",
        }
        assert set(facts["effects"]) == EFFECT_KEYS
        assert set(facts["bounds"]) == BOUND_KEYS
        assert set(facts["cost"]) == {
            "cost_per_call", "selectivity", "derived",
        }
        assert set(facts["flows"]) == FLOW_KEYS
        assert set(facts["tier"]) == {"eligible", "refusal"}
        inline_keys = (
            {"inlinable", "nodes", "sql", "param_kinds", "ret_kind"}
            if facts["inline"]["inlinable"]
            else {"inlinable", "reason", "detail"}
        )
        assert set(facts["inline"]) == inline_keys


def test_document_matches_golden(document):
    # A refactor of the load-time analysis moves no fact.
    golden = json.loads(GOLDEN.read_text())
    failures = [
        {**failure,
         "target": Path(failure["target"]).relative_to(ROOT).as_posix()}
        for failure in document["failures"]
    ]
    assert {**document, "failures": failures} == golden
