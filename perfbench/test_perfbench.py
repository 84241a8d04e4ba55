"""Self-checks of the benchmark: its declarations agree, the tracer
wraps every binding, and a layer that should run never reads 0.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts the checkout's src first on sys.path)
import meansfield  # noqa: E402
from meansfield import classifiers, cli, evaluation, means, spatial  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_declarations_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(LAYERS) == set(UNITS)
    for name, spec in LAYERS.items():
        assert set(spec) == {"moves", "runs_on", "zero_on"}, name
        assert set(spec["runs_on"]) <= set(WORKLOADS), name
        assert set(spec["zero_on"]) <= set(WORKLOADS), name
        assert not set(spec["runs_on"]) & set(spec["zero_on"]), name
    for w in WORKLOADS:
        assert w in LAYERS["means.power_mean_calls"]["runs_on"] + \
            LAYERS["means.power_mean_calls"]["zero_on"]


def test_every_binding_is_wrapped_and_restored():
    originals = (means.power_mean, classifiers.build_mean_field,
                 spatial.geometric_mean, evaluation.mdm_fit,
                 cli.run_pipeline, meansfield.run_pipeline)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        # the names the library looks functions up by at call time
        assert means.power_mean is not originals[0]
        assert classifiers.build_mean_field is not originals[1]
        assert spatial.geometric_mean is not originals[2]
        assert evaluation.mdm_fit is not originals[3]
        assert cli.run_pipeline is not originals[4]
        assert cli.run_pipeline is meansfield.run_pipeline
        # a binding the tracer missed is reported, not silently kept
        evaluation.mdm_fit = originals[3]
        assert tracer.unwrapped_bindings() == [
            "meansfield.evaluation.mdm_fit"]
    finally:
        tracer.uninstall()
    assert (means.power_mean, classifiers.build_mean_field,
            spatial.geometric_mean, evaluation.mdm_fit, cli.run_pipeline,
            meansfield.run_pipeline) == originals


def test_layer_check_rejects_zero_and_nonzero_where_predicted():
    def predicted(workload):
        return {n: (0.0 if workload in s["zero_on"] else 1.0)
                for n, s in LAYERS.items()}

    metrics = predicted("field-d12")
    assert child.layer_problems("field-d12", metrics, LAYERS) == []
    metrics["means.power_mean_calls"] = 0.0
    assert child.layer_problems("field-d12", metrics, LAYERS) == [
        "means.power_mean_calls is 0.0 on field-d12, where its layer runs"]
    metrics = predicted("cli-d12")
    metrics["means.power_mean_calls"] = 3
    assert child.layer_problems("cli-d12", metrics, LAYERS) == [
        "means.power_mean_calls is 3 on cli-d12, where it must be 0"]


# Small inputs: the layer each workload exercises does not depend on size.
SMALL = {
    "field-d12": {"n_subjects": 2, "trials_per_class": 5},
    "filter-c64": {"n_subjects": 1, "trials_per_class": 5},
    "cli-d12": {"n_subjects": 2, "trials_per_class": 5},
    "score-stream": {"train_per_class": 5, "stream_per_class": 5},
}


def run_once(workload, state):
    values = []
    for step in workload.steps(state):
        values.append(step(values))
    return workload.check(state, values)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_reports_every_layer_that_runs(name, tmp_path):
    workload = type(WORKLOADS[name])()
    for attr, value in SMALL[name].items():
        setattr(workload, attr, value)
    state = workload.setup(3, str(tmp_path))
    untraced = run_once(workload, state)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_once(workload, state) for _ in range(2)]
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    metrics["trace.overhead_ratio"] = 1.0
    metrics["trace.unattributed_share"] = 1.0
    assert child.layer_problems(name, metrics, LAYERS) == []
    assert traced[0].signature == traced[1].signature == untraced.signature
