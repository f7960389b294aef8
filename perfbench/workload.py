"""One benchmark workload in one process: measure, check, print the result.

Started by ``run.py``, which sets the BLAS thread count first.  The metric
names and units come from ``BENCHMARK.json`` at the repository root; the
last line of standard output is the JSON result object.  Exit codes: 0 when
every check passed, 1 when one failed, 2 when the checkout has no package
to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_STRAIGHT_RUNS = 2  # the determinism check compares two straight runs
MIN_RESUMES_PER_RUN = 10  # resume calls after each straight run, at least
RESUME_SHARE = 0.3  # resume calls for this share of the straight run's time
IMPORT_PROBES = 5  # at least: one before each straight run, the rest at the end
TRACED_RESUMES = 20


def _require_package() -> None:
    if not (SRC / "optcert" / "pipeline.py").is_file():
        print(f"perfbench: no optcert package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


_require_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from optcert import pipeline  # noqa: E402
from optcert.pipeline import ConstraintNotFoundError, ExperimentConfig, StageError  # noqa: E402

from tracer import Tracer  # noqa: E402

PIPELINE_ERRORS = (ConstraintNotFoundError, StageError)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def desk_config(seed: int) -> ExperimentConfig:
    """``desk_config`` of tests/test_acceptance.py, copied so the workload stays fixed."""
    return ExperimentConfig(
        problem="quadratic", dim=20, m_range=(1.0, 2.0), L_range=(5.0, 10.0),
        sizes=(50, 50, 50, 50), n_train=50, seed=seed,
        init={"n_init": 50, "eps_init": 10.0, "max_iterations": 1000},
        locate={"n_max": 3000, "check_every": 500, "run_length": 50,
                "target_len": 50, "score_instances": 10},
        sgld={"n_samples": 8, "thinning": 1, "run_length": 50, "target_len": 50},
    )


def lasso_config(seed: int) -> ExperimentConfig:
    """The LASSO config of ``test_lasso_seeded_config`` with ``locate.n_max`` 30000 -> 6000."""
    return ExperimentConfig(
        problem="lasso", dim=40, design_rows=25, reg_range=(0.1, 1.0),
        sizes=(50, 50, 50, 50), n_train=10, seed=seed,
        init={"n_init": 100, "eps_init": 1.0, "max_iterations": 2000, "target_len": 10},
        locate={"n_max": 6000, "check_every": 500, "run_length": 10,
                "target_len": 10, "score_instances": 20},
        sgld={"n_samples": 10, "thinning": 1, "run_length": 10,
              "target_len": 10, "step0": 1e-8},
    )


def tiny_config(seed: int = 3) -> ExperimentConfig:
    """Shaped like ``tiny_config`` of tests/test_pipeline.py: a run of about a second."""
    return ExperimentConfig(
        problem="quadratic", dim=4, m_range=(1.0, 2.0), L_range=(5.0, 9.0),
        sizes=(10, 10, 10, 10), n_train=10, seed=seed,
        init={"n_init": 20, "eps_init": 5.0, "max_iterations": 200},
        locate={"n_max": 600, "check_every": 200, "run_length": 10,
                "target_len": 10, "score_instances": 5},
        sgld={"n_samples": 3, "thinning": 1, "run_length": 10, "target_len": 10},
        pac={"grid_size": 200},
    )


# name -> (config factory, default seed)
WORKLOADS = {
    "quad_desk": (desk_config, 0),
    "lasso_locate": (lasso_config, 7),
}


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


class Gate:
    """Correctness checks and pipeline-call accounting of one run."""

    def __init__(self):
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def call(self, fn, *args):
        """Run one pipeline call; a pipeline failure is counted, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except PIPELINE_ERRORS as exc:
            self.failed += 1
            print(f"pipeline call failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


class StageTimer:
    """Times every ``pipeline.run_stage`` call while installed."""

    def __init__(self):
        self.seconds = {}

    def __enter__(self):
        self._original = original = pipeline.run_stage

        def timed(name, out_dir, compute):
            t0 = time.perf_counter()
            try:
                return original(name, out_dir, compute)
            finally:
                self.seconds[name] = time.perf_counter() - t0

        pipeline.run_stage = timed
        return self

    def __exit__(self, *exc):
        pipeline.run_stage = self._original


def straight_run(cfg, out: Path) -> tuple[dict, dict]:
    """One run of every stage into an empty directory: (record, seconds)."""
    with StageTimer() as timer:
        t0 = time.perf_counter()
        record = pipeline.run_pipeline(cfg, out, until="report")
        total = time.perf_counter() - t0
    seconds = {f"{stage}_s": t for stage, t in timer.seconds.items()}
    seconds["pipeline_s"] = total
    return record, seconds


def resume_call(cfg, out: Path) -> tuple[dict, float]:
    t0 = time.perf_counter()
    record = pipeline.run_pipeline(cfg, out, until="report")
    return record, time.perf_counter() - t0


def check_certificate(gate: Gate, out: Path) -> bytes:
    """The certificate's own invariants; returns its bytes for comparisons."""
    raw = (out / "certificate.json").read_bytes()
    cert = json.loads(raw)
    gate.check(math.isfinite(cert["bound"]), f"bound not finite: {cert['bound']}")
    gate.check(cert["bound"] >= cert["emp_risk"],
               f"bound {cert['bound']} below emp_risk {cert['emp_risk']}")
    gate.check(abs(math.fsum(cert["weights"]) - 1.0) <= 1e-12, "posterior weights do not sum to 1")
    gate.check(len(cert["kept_indices"]) > 0, "kept support is empty")
    return raw


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    probe = (
        "import time; t0 = time.perf_counter(); import optcert.pipeline; "
        "print(time.perf_counter() - t0)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def warm_up(out: Path, gate: Gate) -> None:
    """One tiny run and one resume, so lazy imports and first-call costs are not timed."""
    cfg = tiny_config()
    gate.call(pipeline.run_pipeline, cfg, out, "report")
    gate.call(pipeline.run_pipeline, cfg, out, "report")
    shutil.rmtree(out, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, work: Path, gate: Gate) -> dict:
    """Straight runs, each followed by resume calls over its directory, for ``seconds``.

    A straight run starts only while one more like the last, with its resume
    calls, still ends in time; the rest of the run goes to resume calls over
    the last directory.  The import probes are spread over the run, one before
    each straight run, so that they see the host as the timed work does.
    """
    t0 = time.perf_counter()
    cfg = WORKLOADS[name][0](seed)
    construct = time.perf_counter() - t0
    warm_up(work / "warmup", gate)
    runs, resumes, imports, reference = [], [], [], {}

    def resume_until(out: Path, deadline: float, at_least: int = 0) -> None:
        calls = 0
        while calls < at_least or time.perf_counter() < deadline:
            again = gate.call(resume_call, cfg, out)
            calls += 1
            if again is not None:
                resumes.append(again[1])
                gate.check(again[0] == reference["record"], "resume returned another record")

    start, cycle, last, i = time.perf_counter(), 0.0, None, 0
    while i < MIN_STRAIGHT_RUNS or time.perf_counter() + cycle <= start + seconds:
        imports.append(import_seconds())
        out = work / f"run{i}"
        i += 1
        done = gate.call(straight_run, cfg, out)
        if done is None:
            continue
        record, timing = done
        runs.append(timing)
        cert = check_certificate(gate, out)
        reference.setdefault("cert", cert)
        reference.setdefault("record", record)
        gate.check(cert == reference["cert"], "two straight runs wrote different certificate.json")
        if last is not None:
            shutil.rmtree(last)
        last, cycle = out, (1.0 + RESUME_SHARE) * timing["pipeline_s"]
        resume_until(out, time.perf_counter() + RESUME_SHARE * timing["pipeline_s"],
                     MIN_RESUMES_PER_RUN)
    if last is not None:
        resume_until(last, start + seconds)
    while len(imports) < IMPORT_PROBES:
        imports.append(import_seconds())

    gate.check(len(runs) >= MIN_STRAIGHT_RUNS, f"only {len(runs)} straight runs finished")
    gate.check(len(resumes) >= MIN_STRAIGHT_RUNS * MIN_RESUMES_PER_RUN,
               f"only {len(resumes)} resume calls finished")
    if gate.errors:
        return {}
    print("samples: " + json.dumps({"straight": runs, "resume_s": resumes, "import_s": imports,
                                    "construct_s": construct}))
    metrics = dict(
        pipeline_s=statistics.fmean(r["pipeline_s"] for r in runs),
        resume_ms=statistics.fmean(resumes) * 1e3,
        resume_ms_p90=float(np.percentile(resumes, 90)) * 1e3,
        setup_s=statistics.median(imports) + construct,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        success_ratio=1.0 - gate.failed / gate.attempted,
    )
    print(f"{len(runs)} straight runs, {len(resumes)} resume calls, {len(imports)} import probes")
    return metrics


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Tracer, resume: Tracer, resumes: int, out: Path) -> dict:
    """Per-layer metrics: the compute path per straight run, the read path per resume call."""
    c, b, n = run.calls, run.busy, run.counts
    spans = run.span_table()

    def span_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def span_calls(name):
        return spans.get(name, {}).get("calls", 0)

    parsed = resume.calls["problems.instance_from_json"] / resumes
    cert = json.loads((out / "certificate.json").read_text())
    return {
        "nets.forward_calls": c["nets.forward"],
        "nets.forward_us": _ratio(b["nets.forward"], c["nets.forward"]) * 1e6,
        "nets.backward_calls": c["nets.backward"],
        "nets.backward_us": _ratio(b["nets.backward"], c["nets.backward"]) * 1e6,
        "nets.adam_steps": c["nets.adam_step"],
        "nets.adam_us": _ratio(b["nets.adam_step"], c["nets.adam_step"]) * 1e6,
        "algorithms.learned_steps": c["algorithms.learned_step"],
        "algorithms.step_us": _ratio(b["algorithms.learned_step"], c["algorithms.learned_step"]) * 1e6,
        "algorithms.baseline_steps": c["algorithms.baseline_step"],
        "algorithms.hypergrad_steps": c["algorithms.ratio_step"],
        "algorithms.hypergrad_us": _ratio(b["algorithms.ratio_step"], c["algorithms.ratio_step"]) * 1e6,
        "sublevel.estimates": n["sublevel.estimates"],
        "sublevel.draws": c["sublevel.indicator"],
        "sublevel.inconclusive": n["sublevel.inconclusive"],
        "sublevel.estimate_ms": _ratio(span_s("sublevel.estimate"), span_calls("sublevel.estimate")) * 1e3,
        "sublevel.repeat_draw_ratio": _ratio(n["sublevel.repeat_draws"], c["sublevel.indicator"]),
        "prior_training.locate_checks": n["prior_training.locate_checks"],
        "prior_training.locate_accepts": n["prior_training.locate_accepts"],
        "prior_training.score_rollouts": n["prior_training.score.rollouts"],
        "sampler.proposals": c["sampler.sgld_step"],
        "sampler.accept_ratio": _ratio(n["sampler.accepts"], c["sampler.sgld_step"]),
        "pac.risk_rollouts": n["pac.risk.rollouts"],
        "pac.build_stats_s": span_s("pac.build_stats"),
        "pac.certify_ms": _ratio(span_s("pac.certify"), span_calls("pac.certify")) * 1e3,
        "pac.kept_ratio": len(cert["kept_indices"]) / len(cert["p_hats"]),
        "pipeline.artifact_bytes": dir_bytes(out),
        "pipeline.load_ms": resume.busy["pipeline.load"] / resumes * 1e3,
        "problems.gen_ms": resume.busy["problems.gen"] / resumes * 1e3,
        "problems.parse_ms":
            (resume.busy["problems.instance_from_json"] + resume.busy["problems.context_from_json"])
            / resumes * 1e3,
        "problems.instances_parsed": int(parsed) if parsed.is_integer() else parsed,
    }


def print_spans(title: str, tr: Tracer) -> None:
    print(f"{title}: spans by self time")
    for span, row in sorted(tr.span_table().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:36s} calls {row['calls']:6d}  total {row['total_s']:9.4f} s"
              f"  self {row['self_s']:9.4f} s")


def measure_traced(name: str, seed: int, work: Path, gate: Gate, trace_file: Path) -> dict:
    """An untraced straight run, the same run traced, then traced resume calls over it."""
    cfg = WORKLOADS[name][0](seed)
    warm_up(work / "warmup", gate)
    done = gate.call(straight_run, cfg, work / "untraced")
    if done is None:
        return {}
    record, timing = done
    cert = check_certificate(gate, work / "untraced")

    out, run_tr, resume_tr = work / "traced", Tracer(), Tracer()
    with run_tr.installed(), run_tr.span("pipeline.run"):
        traced = gate.call(straight_run, cfg, out)
    if traced is None:
        return {}
    gate.check(traced[0] == record, "traced run returned another record")
    gate.check(check_certificate(gate, out) == cert,
               "traced run wrote another certificate.json than the untraced run")
    with resume_tr.installed():
        for _ in range(TRACED_RESUMES):
            with resume_tr.span("pipeline.resume"):
                again = gate.call(resume_call, cfg, out)
            if again is None:
                return {}
            gate.check(again[0] == record, "traced resume returned another record")

    trace_file.write_text(json.dumps({"run": run_tr.dump(), "resume": resume_tr.dump()}))
    for missing in sorted(set(run_tr.missing)):
        print(f"hook not installed: {missing}", file=sys.stderr)
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    print_spans("straight run", run_tr)
    print_spans(f"{TRACED_RESUMES} resume calls", resume_tr)
    metrics = layer_metrics(run_tr, resume_tr, TRACED_RESUMES, out)
    metrics.update({f"pipeline.{k}": v for k, v in timing.items() if k != "pipeline_s"})
    metrics["trace.overhead_s"] = traced[1]["pipeline_s"] - timing["pipeline_s"]
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print("env: " + json.dumps(environment()))
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")

    gate = Gate()
    work = WORK / f"{args.workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            trace_file = WORK / f"trace-{args.workload}-seed{seed}.json"
            values = measure_traced(args.workload, seed, work, gate, trace_file)
        else:
            values = measure(args.workload, seed, args.seconds, work, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            gate.check(False, f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:32s} {values[m['name']]!r:>24} {m['unit']}")
    for err in gate.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    correct = not gate.errors
    print(json.dumps({"correct": correct, "attempted": max(gate.attempted, 1),
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
