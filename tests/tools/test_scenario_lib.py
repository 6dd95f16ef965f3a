"""Tests: the scenario runner as an importable library.

The campaign runner's resume cache assumes that a run spec's content hash
fully determines its result — so the central test here is the determinism
regression: calling the extracted run function twice with the same spec
yields *identical* exports.
"""

import json

import pytest

from repro.tools.scenario import (
    OUTPUT_OPTION_KEYS,
    execute_scenario,
    resolve_options,
    run_scenario,
)

FAST = {"hello_interval": 0.5, "tc_interval": 1.0, "warmup": 6.0, "duration": 4.0}


class TestResolveOptions:
    def test_defaults_round_trip(self):
        resolved = resolve_options()
        assert resolved["protocol"] == "dymo"
        assert resolved["topology"] == "chain:5"
        assert not OUTPUT_OPTION_KEYS & set(resolved)

    def test_dash_and_underscore_keys(self):
        a = resolve_options({"hello-interval": 0.25})
        b = resolve_options({"hello_interval": 0.25})
        assert a == b

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown scenario option"):
            resolve_options({"helo_interval": 0.25})

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            resolve_options({"protocol": "babel"})

    def test_scalar_traffic_coerced_to_list(self):
        assert resolve_options({"traffic": "1:3"})["traffic"] == ["1:3"]

    def test_output_keys_kept_when_asked(self):
        resolved = resolve_options({"trace": True}, include_output=True)
        assert resolved["trace"] is True


class TestDeterminism:
    """Same spec in, identical exports out — what campaign resume relies on."""

    def test_same_spec_twice_identical_result(self):
        spec = {"protocol": "olsr", "topology": "chain:5", "seed": 3, **FAST}
        first = run_scenario(dict(spec))
        second = run_scenario(dict(spec))
        assert first == second
        # ... and byte-identical once serialised, i.e. no NaNs survived.
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_reactive_protocol_with_faults_deterministic(self):
        spec = {
            "protocol": "dymo", "topology": "chain:4", "seed": 5,
            "fault": ["break:1:2-3", "restore:3:2-3"], "fault_seed": 9, **FAST,
        }
        assert run_scenario(dict(spec)) == run_scenario(dict(spec))

    def test_deterministic_file_exports(self, tmp_path):
        spec = {"protocol": "dymo", "topology": "chain:4", "seed": 2, **FAST}
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run_scenario(
                dict(spec),
                trace_jsonl=str(out / "trace.jsonl"),
                metrics_json=str(out / "metrics.json"),
            )
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    def test_different_seed_different_result(self):
        base = {"protocol": "dymo", "topology": "random:8:0.5",
                "mobility": "8:4:0.5", **FAST}
        r1 = run_scenario(dict(base), seed=1)
        r2 = run_scenario(dict(base), seed=2)
        assert r1 != r2


class TestResultShape:
    def test_result_is_json_safe_and_complete(self):
        result = run_scenario(protocol="olsr", topology="grid:3x3", seed=1,
                              warmup=12.0, duration=4.0,
                              hello_interval=0.5, tc_interval=1.0)
        json.dumps(result)  # strict JSON, no NaN
        for key in ("spec", "nodes", "flows", "delivery_ratio",
                    "control_frames", "control_bytes", "events_executed",
                    "truncated", "drain_timeouts", "metrics"):
            assert key in result
        assert result["truncated"] is False
        assert result["drain_timeouts"] == 0
        assert result["nodes"] == 9
        assert result["delivery_ratio"] == 1.0
        assert result["flows"][0]["src"] == 1
        assert result["flows"][0]["dst"] == 9

    def test_no_delivery_reports_null_latency(self):
        # Two isolated nodes: chain:2 with the only link broken up front.
        result = run_scenario(
            protocol="dymo", topology="chain:2", duration=2.0, warmup=1.0,
            fault=["break:0:1-2"],
        )
        assert result["delivery_ratio"] == 0.0
        assert result["latency_mean_s"] is None
        assert result["latency_p95_s"] is None

    def test_faults_and_recoveries_reported(self):
        result = run_scenario(
            protocol="olsr", topology="chain:4", seed=1,
            warmup=12.0, duration=15.0, hello_interval=0.5, tc_interval=1.0,
            fault=["crash:1:3", "restart:6:3"], fault_seed=99,
        )
        assert [f["kind"] for f in result["faults"]] == ["crash", "restart"]
        assert any(r["fault"] == "crash" for r in result["recoveries"])

    def test_execute_scenario_artifacts(self):
        import argparse

        args = argparse.Namespace(**resolve_options(
            {"protocol": "dymo", "topology": "chain:3", **FAST},
            include_output=True,
        ))
        artifacts = execute_scenario(args)
        assert artifacts.sim.now > 0
        assert artifacts.result["nodes"] == 3
        assert artifacts.tracer is None  # tracing off by default

    def test_bad_spec_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown topology"):
            run_scenario(topology="torus:9")
