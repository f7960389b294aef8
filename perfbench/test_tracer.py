"""Self-checks of the tracer on a config that runs in a few seconds.

    python3 -m pytest perfbench -q
"""

import json

import pytest

import workload
from optcert import pipeline, sublevel
from optcert.nets import DenseNet
from tracer import Tracer
from workload import tiny_config


def traced_run(out):
    """A traced straight run, then three traced resume calls over its directory."""
    run, resume = Tracer(), Tracer()
    with run.installed(), run.span("pipeline.run"):
        record = pipeline.run_pipeline(tiny_config(), out, until="report")
    with resume.installed():
        for _ in range(3):
            assert pipeline.run_pipeline(tiny_config(), out, until="report") == record
    return run, resume, record


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two traced runs of one seed: (run tracer, resume tracer, record, directory) each."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp(f"traced{i}")
        runs.append((*traced_run(out), out))
    return runs


def test_every_hook_installed(two_runs):
    run, resume, _, _ = two_runs[0]
    assert run.missing == [] and resume.missing == []


def test_draws_equal_sum_of_draws_used(two_runs):
    tr = two_runs[0][0]
    assert tr.counts["sublevel.estimates"] > 0
    assert tr.calls["sublevel.indicator"] == tr.counts["sublevel.draws_used"]


def test_count_metrics_repeat_exactly(two_runs):
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    (run_a, resume_a, _, out_a), (run_b, resume_b, _, out_b) = two_runs
    a = workload.layer_metrics(run_a, resume_a, 3, out_a)
    b = workload.layer_metrics(run_b, resume_b, 3, out_b)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["problems.instances_parsed"] == 40
    for x, y in ((run_a, run_b), (resume_a, resume_b)):
        assert dict(x.calls) == dict(y.calls)
        assert dict(x.counts) == dict(y.counts)


def test_traced_certificate_equals_untraced(two_runs, tmp_path):
    _, _, record, out = two_runs[0]
    assert pipeline.run_pipeline(tiny_config(), tmp_path, until="report") == record
    assert (tmp_path / "certificate.json").read_bytes() == (out / "certificate.json").read_bytes()


def test_self_times_add_up_to_the_root_span(two_runs):
    table = two_runs[0][0].span_table()
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(table["pipeline.run"]["total_s"], rel=1e-9)


def test_package_restored_after_tracing(two_runs):
    assert pipeline.run_stage.__module__ == "optcert.pipeline"
    assert not hasattr(pipeline.run_stage, "__wrapped__")
    assert not hasattr(sublevel.sublevel_indicator, "__wrapped__")
    assert not hasattr(DenseNet.forward, "__wrapped__")
