import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from optcert import pipeline
from optcert.cli import _summary, main
from optcert.pipeline import (
    ConstraintNotFoundError,
    ExperimentConfig,
    STAGE_ORDER,
    StageError,
    StaleArtifactError,
    run_pipeline,
    run_stage,
)


def tiny_config(**overrides):
    base = dict(
        problem="quadratic",
        dim=4,
        m_range=(1.0, 2.0),
        L_range=(5.0, 9.0),
        sizes=(10, 10, 10, 10),
        n_train=10,
        seed=3,
        init={"n_init": 20, "eps_init": 5.0, "max_iterations": 200},
        locate={"n_max": 600, "check_every": 200, "run_length": 10,
                "target_len": 10, "score_instances": 5},
        sgld={"n_samples": 3, "thinning": 1, "run_length": 10, "target_len": 10},
        pac={"grid_size": 200},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# config sections (and top-level sizes and counts) with a misspelt key, a
# value out of range, or a knob that no longer exists; each is refused before
# anything runs
BAD_SECTIONS = [
    ("sgld", {"n_sample": 3, "thinning": 1, "run_length": 10, "target_len": 10}),
    ("sublevel", {"p_l": 2.0}),
    ("locate", {"n_max": 600, "log_path": "locate.csv"}),
    ("sgld", {"n_samples": 3, "decay": 0.5}),
    ("sgld", {"n_samples": 3, "thinning": 1, "run_length": 10, "segment_len": 5, "target_len": 2}),
    ("init", {"segment_len": 0}),
    ("locate", {"n_max": 600, "segment_len": 51}),
    ("init", {"clip_norm": 2.0}),
    ("locate", {"clip_norm": 0.5}),
    ("pac", {"grid_size": 200, "eps_pac": 1.5}),
    ("pac", {"grid_size": 200, "eps_pac": 0.0}),
    ("pac", {"grid_size": 0}),
    ("pac", {"grid_size": 200, "lambda_min": -1.0}),
    ("pac", {"grid_size": 200, "lambda_min": 10.0, "lambda_max": 1.0}),
    ("locate", {"n_max": 600, "check_every": 0}),
    ("locate", {"n_max": 600, "decay_every": 0}),
    ("init", {"decay_every": 0}),
    ("sizes", (50, 50, 50)),
    ("sizes", (10, 10, 0, 10)),
    # counts of zero, which ran to a report, failed late or left a stage degenerate
    ("sgld", {"n_samples": 0}),
    ("sgld", {"thinning": 0}),
    ("sgld", {"run_length": 0}),
    ("locate", {"n_max": 600, "run_length": 0}),
    ("locate", {"n_max": 600, "score_instances": 0}),
    ("init", {"n_init": 0}),
    ("sublevel", {"max_draws": 10_000}),  # a constant now, so an unknown key
    ("dim", 0),
    ("n_train", 0),
    ("sgld", {"patience": 200}),  # a constant now, so an unknown key
    # non-integer counts and bad seeds, which ran or failed after the output directory was made
    ("seed", -1),
    ("seed", 1.5),
    ("dim", 4.5),
    ("n_train", 2.5),
    ("sgld", {"n_samples": 2.5}),
    ("sizes", (10, 10, 2.5, 10)),
    ("dim", True),
    ("locate", {"n_max": 600.5}),
    ("locate", {"n_max": 600, "run_length": 10, "target_len": 10.5}),
    ("init", {"max_iterations": 200.5}),
    ("pac", {"grid_size": 200.5}),
    # quadratic data ranges, which failed only in the data stage
    ("m_range", (2.0, 1.0)),
    ("L_range", (0.5, 1.0)),
    # step sizes and guard factors that are not finite and > 0, which ran until a
    # stage failed or reported an infeasible band
    ("sgld", {"step0": -1.0}),
    ("sgld", {"step0": float("inf")}),
    ("locate", {"n_max": 600, "lr": -0.1}),
    ("locate", {"n_max": 600, "guard_factor": -1.0}),
    ("init", {"lr": float("nan")}),
    ("init", {"guard_factor": 0.0}),
]


def tiny_lasso_config(**overrides):
    lasso = {"problem": "lasso", "dim": 6, "design_rows": 4, "reg_range": (0.1, 0.5)}
    return tiny_config(**{**lasso, **overrides})


# LASSO data shapes and ranges, which failed in the data stage or (design_rows 0)
# wrote a data.json with an empty design
BAD_LASSO_DATA = [
    ("design_rows", 7),
    ("design_rows", 0),
    ("design_rows", 2.5),
    ("reg_range", (1.0, 0.1)),
    ("reg_range", (0.0, 0.5)),
]


class TestExperimentConfig:
    def test_from_json_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"problem": "lasso", "dim": 8, "design_rows": 5}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.problem == "lasso" and cfg.dim == 8

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="cubic")

    @pytest.mark.parametrize("section, value", BAD_SECTIONS)
    def test_bad_section_is_refused_at_construction(self, section, value):
        with pytest.raises((TypeError, ValueError)):
            tiny_config(**{section: value})

    @pytest.mark.parametrize("key, value", BAD_LASSO_DATA)
    def test_bad_lasso_data_is_refused_at_construction(self, key, value):
        with pytest.raises(ValueError):
            tiny_lasso_config(**{key: value})

    def test_only_the_problem_kinds_own_ranges_are_checked(self):
        tiny_config(design_rows=0, reg_range=(1.0, 0.1))
        tiny_lasso_config(m_range=(2.0, 1.0), L_range=(0.5, 1.0))

    @pytest.mark.parametrize("section", ["init", "locate", "sgld"])
    def test_segment_len_message_names_the_section(self, section):
        with pytest.raises(ValueError, match=rf"^{section}: need 1 <= segment_len <= target_len"):
            tiny_config(**{section: {"segment_len": 11, "target_len": 10}})

    def test_hash_stability(self):
        a, b = tiny_config(), tiny_config()
        assert a.hash() == b.hash()
        assert a.hash() != tiny_config(seed=4).hash()
        assert len(a.hash()) == 16

    def test_hash_is_that_of_the_deep_copied_fields(self):
        # sections holding tuples and lists, next to the tuple-valued ranges
        cfg = tiny_config(sizes=[10, 10, 10, 10], locate={"n_max": 600, "check_every": 200})
        cfg.sublevel = {"band": (0.9, 1.0), "nested": {"pair": [(1, 2), (3, 4)]}}
        payload = json.dumps({**asdict(cfg), "artifact_format": 2}, sort_keys=True, default=list)
        assert cfg.hash() == hashlib.sha256(payload.encode()).hexdigest()[:16]

    def test_numpy_integers_hash_and_run_like_python_ints(self, tmp_path):
        cfg = tiny_config(dim=np.int64(4), seed=np.int64(3), sizes=tuple(np.full(4, 10)),
                          locate={"n_max": np.int32(600), "check_every": 200, "run_length": 10,
                                  "target_len": 10, "score_instances": 5})
        assert cfg.hash() == tiny_config().hash()
        run_pipeline(cfg, tmp_path / "numpy", until="data")
        run_pipeline(tiny_config(), tmp_path / "python", until="data")
        assert (tmp_path / "numpy" / "data.json").read_bytes() == (tmp_path / "python" / "data.json").read_bytes()


class TestLossSummary:
    """``_loss_summary`` has the rows p10, p50, p90 and mean of numpy's NaN-aware functions."""

    def test_percentiles_of_a_finite_matrix_have_the_nan_aware_bytes(self):
        losses = np.random.default_rng(0).lognormal(size=(50, 51))
        got = pipeline._loss_summary(losses)
        for row, q in enumerate((10, 50, 90)):
            assert got[row].tobytes() == np.nanpercentile(losses, q, axis=0).tobytes()

    @pytest.mark.filterwarnings("ignore:Mean of empty slice")  # the NaN column's mean
    @pytest.mark.parametrize("shape", [(50, 51), (1, 4), (2, 4), (7, 3)])
    def test_percentiles_have_the_bytes_of_numpy_with_non_finite_entries(self, shape):
        rng = np.random.default_rng(sum(shape))
        losses = rng.lognormal(sigma=10.0, size=shape)
        losses[rng.random(shape) < 0.3] = np.inf
        losses[:, 1] = np.nan  # a column without a finite entry
        finite = np.where(np.isfinite(losses), losses, np.nan)
        with pytest.warns(RuntimeWarning):  # numpy's all-NaN slice
            want = np.nanpercentile(finite, (10, 50, 90), axis=0)
        got = pipeline._loss_summary(losses)
        for row in range(3):
            assert got[row].tobytes() == want[row].tobytes(), row

    def test_non_finite_entries_are_excluded(self):
        losses = np.random.default_rng(1).lognormal(size=(20, 6))
        with_inf = np.vstack([losses, np.full(6, np.inf)])
        assert pipeline._loss_summary(with_inf).tobytes() == pipeline._loss_summary(losses).tobytes()


class TestRunStage:
    def test_computes_then_skips(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return {"v": 7}

        assert run_stage("s", tmp_path, compute) == {"v": 7}
        assert run_stage("s", tmp_path, compute) == {"v": 7}
        assert len(calls) == 1
        assert (tmp_path / "s.json").exists()


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    record = run_pipeline(tiny_config(), out, until="report")
    return out, record


class TestPipeline:
    def test_all_artifacts_written(self, completed_run):
        out, _ = completed_run
        for stage in STAGE_ORDER:
            assert (out / f"{stage}.json").exists()

    def test_report_contents(self, completed_run):
        _, record = completed_run
        assert set(record) >= {"learned_median_final", "baseline_median_final",
                               "bound", "sublevel_point"}
        assert np.isfinite(record["bound"])
        assert record["learned_median_final"] >= 0.0

    def test_bound_exceeds_posterior_risk(self, completed_run):
        out, _ = completed_run
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["bound"] >= cert["emp_risk"] - 1e-12
        assert cert["config_hash"] == tiny_config().hash()
        weights = np.asarray(cert["weights"])
        assert weights.sum() == pytest.approx(1.0)
        assert len(cert["kept_indices"]) == len(weights)

    def test_certificate_record_layout(self, completed_run):
        out, _ = completed_run
        cert = json.loads((out / "certificate.json").read_text())
        assert list(cert) == ["lambda_star", "bound", "kl", "weights", "point_estimate", "emp_risk",
                              "emp_second", "kept_indices", "p_hats", "point_alpha", "config_hash"]
        assert cert["weights"] and all(type(w) is float for w in cert["weights"])

    def test_plot_files(self, completed_run):
        out, _ = completed_run
        import csv

        with open(out / "loss_curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "iteration"
        assert len(rows) == 1 + 10 + 1  # header + k+1 iterations
        with open(out / "histogram.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "bound"
        assert len(rows) == 2 + 10  # bound row, header, one per test instance
        with open(out / "cumtime.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 10
        assert float(rows[-1][1]) >= float(rows[1][1])  # cumulative
        with open(out / "sublevel_posterior.csv") as fh:
            rows = list(csv.reader(fh))
        a, b, point = map(float, rows[1])
        assert point == pytest.approx(a / (a + b))

    def test_resume_reuses_artifacts(self, completed_run):
        out, record = completed_run
        again = run_pipeline(tiny_config(), out, until="report")
        assert again == record

    def test_without_until_returns_the_report(self, completed_run):
        out, record = completed_run
        assert run_pipeline(tiny_config(), out) == record

    @pytest.mark.parametrize("stop", STAGE_ORDER[:-1])
    def test_stopped_and_resumed_run_writes_the_straight_artifacts(self, completed_run, tmp_path, stop):
        out, record = completed_run
        run_pipeline(tiny_config(), tmp_path, until=stop)
        assert run_pipeline(tiny_config(), tmp_path, until="report") == record
        for name in [f"{stage}.json" for stage in STAGE_ORDER] + list(PLOT_FILES):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_every_artifact_carries_the_config_hash(self, completed_run):
        out, _ = completed_run
        stamp = tiny_config().hash()
        for stage in STAGE_ORDER:
            text = (out / f"{stage}.json").read_text()
            assert json.loads(text)["config_hash"] == stamp
            # the layout a resume reads the stamp from: the last key, in the last bytes
            assert text.endswith(f', "config_hash": "{stamp}"}}'), stage

    def test_determinism_across_directories(self, completed_run, tmp_path):
        out, _ = completed_run
        rerun = run_pipeline(tiny_config(), tmp_path, until="certificate")
        original = json.loads((out / "certificate.json").read_text())
        assert rerun == original

    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_samples_record_is_what_its_artifact_reads_computed_or_reused(self, tmp_path, n_samples):
        cfg = tiny_config(sgld={"n_samples": n_samples, "thinning": 1, "run_length": 10, "target_len": 10})
        computed = run_pipeline(cfg, tmp_path, until="samples")
        stored = json.loads((tmp_path / "samples.json").read_text())
        # the stage writes its points from arrays, and returns them as lists
        assert [type(point) for point in computed["points"]] == [list] * n_samples
        assert computed == stored
        assert run_pipeline(cfg, tmp_path, until="samples") == stored
        json.dumps(_summary(computed))  # what the CLI prints

    def test_reused_samples_load_as_float_points_without_matrices(self, completed_run):
        out, _ = completed_run
        record = json.loads((out / "samples.json").read_text())
        run = SimpleNamespace()
        pipeline._load_samples(run, record)
        assert len(run.samples.points) == len(record["points"]) == 3
        for point, stored in zip(run.samples.points, record["points"]):
            assert isinstance(point, np.ndarray) and point.dtype == float
            assert point.tolist() == stored
        assert run.samples.estimates == record["estimates"]
        assert run.samples.val_losses is None

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(tiny_config(), tmp_path, until="nonsense")

    def test_a_setup_failure_is_a_stage_error_and_writes_nothing(self, tmp_path):
        cfg = tiny_config()
        cfg.seed = -1  # set after construction, which no check sees
        with pytest.raises(StageError):
            run_pipeline(cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} called")

    return refused


PLOT_FILES = ("loss_curves.csv", "histogram.csv", "sublevel_posterior.csv")


def _counting_reads(monkeypatch) -> list:
    """Patch ``Path.read_text`` to record the name of every file it reads."""
    reads, read_text = [], Path.read_text

    def counted(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    return reads


class TestDeferredLoads:
    """A resume verifies every artifact, but builds only what a stage that still has to run needs."""

    def test_finished_directory_builds_nothing(self, completed_run, monkeypatch):
        out, record = completed_run
        monkeypatch.setattr(pipeline, "instance_from_json", _refuse("instance_from_json"))
        monkeypatch.setattr(pipeline, "_probe_arch", _refuse("_probe_arch"))
        monkeypatch.setattr(pipeline.LearnedQuadArch, "init", _refuse("LearnedQuadArch.init"))
        monkeypatch.setattr(pipeline.QuadLearnedAlgo, "set_flat", _refuse("set_flat"))
        assert run_pipeline(tiny_config(), out, until="report") == record

    def test_stale_samples_are_refused(self, completed_run, tmp_path):
        out, _ = completed_run
        run_pipeline(tiny_config(seed=4), tmp_path / "other", until="samples")
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        shutil.copy(tmp_path / "other" / "samples.json", resumed)
        with pytest.raises(StaleArtifactError) as info:
            run_pipeline(tiny_config(), resumed, until="report")
        assert str(resumed / "samples.json") in str(info.value)

    @pytest.fixture
    def location_not_found(self, completed_run, tmp_path):
        out, _ = completed_run
        for stage in ("data", "init", "prior_location"):
            shutil.copy(out / f"{stage}.json", tmp_path)
        path = tmp_path / "prior_location.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "found": False}))
        return tmp_path

    def test_reused_location_outside_the_band_raises(self, location_not_found):
        with pytest.raises(ConstraintNotFoundError, match="feasible band"):
            run_pipeline(tiny_config(), location_not_found, until="prior_location")

    def test_locate_prior_command_exits_two(self, location_not_found):
        cfg_path = location_not_found / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(tiny_config())))
        res = CliRunner().invoke(
            main, ["locate-prior", "--config", str(cfg_path), "--out", str(location_not_found)]
        )
        assert res.exit_code == 2, res.output

    def test_report_is_rewritten_without_a_probe(self, completed_run, tmp_path, monkeypatch):
        out, record = completed_run
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        for name in ("report.json",) + PLOT_FILES:
            (resumed / name).unlink()
        monkeypatch.setattr(pipeline, "_probe_arch", _refuse("_probe_arch"))
        assert run_pipeline(tiny_config(), resumed, until="report") == record
        for name in ("report.json",) + PLOT_FILES:
            assert (resumed / name).read_bytes() == (out / name).read_bytes(), name

    def test_computing_resume_reads_each_artifact_once(self, completed_run, tmp_path, monkeypatch):
        out, record = completed_run
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        (resumed / "report.json").unlink()
        reads = _counting_reads(monkeypatch)
        assert run_pipeline(tiny_config(), resumed, until="report") == record
        assert sorted(reads) == sorted(f"{stage}.json" for stage in STAGE_ORDER[:-1])

    @pytest.mark.parametrize("problem", ["quadratic", "lasso"])
    def test_straight_run_hands_on_the_generated_data(self, tmp_path, monkeypatch, problem):
        monkeypatch.setattr(pipeline, "instance_from_json", _refuse("instance_from_json"))
        monkeypatch.setattr(pipeline, "context_from_json", _refuse("context_from_json"))
        cfg = tiny_config(problem=problem, dim=6, design_rows=4, reg_range=(0.1, 0.5))
        assert len(run_pipeline(cfg, tmp_path, until="data")["instances"]) == 40


class TestComputeOrLoad:
    """A stage computes its record or loads a reused one, never both."""

    def test_straight_run_loads_nothing(self, completed_run, tmp_path, monkeypatch):
        _, record = completed_run
        refused = tuple(stage._replace(load=_refuse(f"load of {stage.name}")) for stage in pipeline._STAGES)
        monkeypatch.setattr(pipeline, "_STAGES", refused)
        assert run_pipeline(tiny_config(), tmp_path, until="report") == record

    def test_report_resume_loads_each_reused_record_once(self, completed_run, tmp_path, monkeypatch):
        out, record = completed_run
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        (resumed / "report.json").unlink()
        loads = []

        def counted(stage):
            def load(run, reused):
                loads.append(stage.name)
                stage.load(run, reused)

            return stage._replace(load=load)

        monkeypatch.setattr(pipeline, "_STAGES", tuple(counted(stage) for stage in pipeline._STAGES))
        assert run_pipeline(tiny_config(), resumed, until="report") == record
        assert loads == list(STAGE_ORDER[:-1])
        assert (resumed / "report.json").read_bytes() == (out / "report.json").read_bytes()


class TestStampedResume:
    """A resume that computes nothing verifies the records it neither checks nor returns from their last bytes."""

    def test_report_resume_parses_only_the_location_and_the_report(self, completed_run, monkeypatch):
        out, record = completed_run
        reads = _counting_reads(monkeypatch)
        assert run_pipeline(tiny_config(), out, until="report") == record
        assert reads == ["prior_location.json", "report.json"]

    def test_certificate_resume_returns_the_straight_certificate(self, completed_run, tmp_path, monkeypatch):
        out, _ = completed_run
        straight = run_pipeline(tiny_config(), tmp_path, until="certificate")
        reads = _counting_reads(monkeypatch)
        assert run_pipeline(tiny_config(), out, until="certificate") == straight
        assert reads == ["prior_location.json", "certificate.json"]

    def test_location_outside_the_band_still_raises(self, completed_run, tmp_path):
        out, _ = completed_run
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        path = resumed / "prior_location.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "found": False}))
        with pytest.raises(ConstraintNotFoundError, match="feasible band"):
            run_pipeline(tiny_config(), resumed, until="report")

    @pytest.fixture(params=["data", "init", "samples", "certificate"])
    def reformatted(self, request, completed_run, tmp_path):
        """A finished directory with one unchecked, unreturned artifact rewritten with another layout."""
        out, _ = completed_run
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        return resumed / f"{request.param}.json"

    def test_reformatted_artifact_with_the_right_hash_resumes(self, completed_run, reformatted, monkeypatch):
        _, record = completed_run
        reformatted.write_text(json.dumps(json.loads(reformatted.read_text()), indent=1))
        reads = _counting_reads(monkeypatch)
        assert run_pipeline(tiny_config(), reformatted.parent, until="report") == record
        assert reformatted.name in reads

    def test_reformatted_artifact_with_another_hash_is_refused(self, reformatted):
        stale = {**json.loads(reformatted.read_text()), "config_hash": tiny_config(seed=4).hash()}
        reformatted.write_text(json.dumps(stale, indent=1))
        with pytest.raises(StaleArtifactError) as info:
            run_pipeline(tiny_config(), reformatted.parent, until="report")
        assert str(reformatted) in str(info.value)
        assert tiny_config(seed=4).hash() in str(info.value) and tiny_config().hash() in str(info.value)

    def test_a_skipped_body_is_checked_when_a_later_call_loads_it(self, completed_run, tmp_path):
        out, record = completed_run
        resumed = tmp_path / "resumed"
        shutil.copytree(out, resumed)
        (resumed / "samples.json").write_text(f'{{"points": null, "config_hash": "{tiny_config().hash()}"}}')
        assert run_pipeline(tiny_config(), resumed, until="report") == record
        (resumed / "report.json").unlink()
        with pytest.raises(StageError):
            run_pipeline(tiny_config(), resumed, until="report")


class TestStaleArtifacts:
    """A directory written by another config, or before artifacts carried its hash, is refused."""

    @pytest.fixture(params=["other_seed", "unstamped"])
    def stale_dir(self, request, completed_run, tmp_path):
        """(directory, hash its artifacts carry, config seed to run) for each kind of stale directory."""
        out, _ = completed_run
        for stage in STAGE_ORDER:
            shutil.copy(out / f"{stage}.json", tmp_path)
        if request.param == "other_seed":
            return tmp_path, tiny_config().hash(), 99
        for stage in STAGE_ORDER:
            path = tmp_path / f"{stage}.json"
            record = json.loads(path.read_text())
            del record["config_hash"]
            path.write_text(json.dumps(record))
        return tmp_path, "None", tiny_config().seed

    def test_run_raises_naming_path_and_hashes(self, stale_dir):
        out, written, seed = stale_dir
        cfg = tiny_config(seed=seed)
        with pytest.raises(StaleArtifactError) as info:
            run_pipeline(cfg, out, until="certificate")
        message = str(info.value)
        assert str(out / "data.json") in message
        assert written in message and cfg.hash() in message

    def test_posterior_command_exits_three_and_leaves_the_certificate(self, stale_dir):
        out, written, seed = stale_dir
        cert = (out / "certificate.json").read_bytes()
        cfg_path = out / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(tiny_config())))
        res = CliRunner().invoke(
            main, ["posterior", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
        )
        assert res.exit_code == 3, res.output
        assert written in res.output and tiny_config(seed=seed).hash() in res.output
        assert (out / "certificate.json").read_bytes() == cert


def _with_certify_compute(wrapper):
    """The stage table with the certificate stage computed by ``wrapper(its compute, run)``."""
    return tuple(
        stage._replace(compute=lambda run, compute=stage.compute: wrapper(compute, run))
        if stage.name == "certificate" else stage
        for stage in pipeline._STAGES
    )


class TestAtomicArtifacts:
    @pytest.mark.parametrize("failure", ["serialise", "rename"])
    def test_failed_write_leaves_nothing_and_rerun_recomputes(
        self, completed_run, tmp_path, monkeypatch, failure
    ):
        if failure == "serialise":
            monkeypatch.setattr(pipeline, "_STAGES", _with_certify_compute(
                lambda certify_stage, run: {**certify_stage(run), "extra": object()}))
        else:
            real_replace = pipeline.os.replace

            def replace(src, dst):
                if Path(dst).name == "certificate.json":
                    raise OSError("simulated crash before the rename")
                real_replace(src, dst)

            monkeypatch.setattr(pipeline.os, "replace", replace)
        with pytest.raises(StageError):
            run_pipeline(tiny_config(), tmp_path, until="certificate")
        assert not (tmp_path / "certificate.json").exists()
        assert not list(tmp_path.glob(".*.tmp"))
        monkeypatch.undo()
        rerun = run_pipeline(tiny_config(), tmp_path, until="certificate")
        out, _ = completed_run
        assert rerun == json.loads((out / "certificate.json").read_text())


class TestAtomicPlotFiles:
    def test_failed_csv_write_leaves_nothing_and_rerun_recomputes(self, completed_run, tmp_path, monkeypatch):
        out, record = completed_run
        for stage in STAGE_ORDER[:-1]:
            shutil.copy(out / f"{stage}.json", tmp_path)
        real_writer = pipeline.csv.writer

        class FailingPartWay:
            """A CSV writer that writes the first row of ``loss_curves.csv``, then raises."""

            def __init__(self, fh):
                self.writer, self.fails = real_writer(fh), "loss_curves.csv" in fh.name

            def writerow(self, row):
                self.writer.writerow(row)
                if self.fails:
                    raise OSError("simulated crash part-way")

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(pipeline.csv, "writer", FailingPartWay)
        with pytest.raises(StageError):
            run_pipeline(tiny_config(), tmp_path, until="report")
        assert not (tmp_path / "loss_curves.csv").exists()
        assert not (tmp_path / "report.json").exists()
        assert not list(tmp_path.glob(".*.tmp"))
        monkeypatch.undo()
        assert run_pipeline(tiny_config(), tmp_path, until="report") == record
        for name in ("report.json",) + PLOT_FILES:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


class TestArtifactEncoding:
    @pytest.mark.parametrize("obj", [
        {"points": [[0.1, -2.5e-300, 1e308], [], [3]], "estimates": [0.98, 1.0], "empty": {}, "none": []},
        {"context": None, "instances": [{"diag": [1.0, 2.0], "rhs": [0.5, float("nan")]}],
         "nested": {"a": [1, {"b": "\u00e9\"q"}], "t": (1, 2)}, "flag": True},
        {"x": float("inf")},
    ])
    def test_same_bytes_as_json_dump(self, obj, tmp_path):
        path = tmp_path / "a.json"
        pipeline._dump_json(path, obj)
        assert path.read_text() == json.dumps(obj)

    def test_float_arrays_are_written_as_their_lists(self, tmp_path):
        # lengths around the slice that one json.dumps call encodes, and the floats it names
        n = pipeline._JSON_FLOATS
        rng = np.random.default_rng(0)
        points = [rng.normal(size=size) for size in (0, 1, n - 1, n, n + 1, 3 * n)]
        points.append(np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]))
        record = {"points": points, "estimates": [0.5] * len(points), "config_hash": "abc"}
        pipeline._dump_json(tmp_path / "a.json", record)
        assert (tmp_path / "a.json").read_text() == json.dumps({**record, "points": [p.tolist() for p in points]})

    @pytest.mark.parametrize("n_points", [2, 20])
    def test_lasso_sized_samples_are_written_in_bounded_memory(self, tmp_path, n_points):
        points = [np.random.default_rng(i).normal(size=25_409) for i in range(n_points)]
        record = {"points": points, "estimates": [0.99] * n_points, "config_hash": "abc"}
        tracemalloc.start()
        try:
            one_list = points[0].tolist()
            list_bytes = tracemalloc.get_traced_memory()[0]
            del one_list
            tracemalloc.reset_peak()
            pipeline._dump_json(tmp_path / "samples.json", record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * list_bytes
        expected = json.dumps({**record, "points": [p.tolist() for p in points]})
        assert (tmp_path / "samples.json").read_text() == expected

    def test_stage_artifacts_reencode_to_their_bytes(self, tmp_path):
        run_pipeline(tiny_config(), tmp_path, until="samples")
        for name in ("data", "init", "prior_location", "samples"):
            text = (tmp_path / f"{name}.json").read_text()
            assert text == json.dumps(json.loads(text))


def _old_format_hash(cfg) -> str:
    """The stamp of a config before the artifact format was hashed with it."""
    return hashlib.sha256(json.dumps(vars(cfg), sort_keys=True, default=list).encode()).hexdigest()[:16]


class TestVectorEncoding:
    """Parameter vectors are stored as the base64 of their little-endian float64 bytes."""

    @pytest.mark.parametrize("vector", [
        np.array([-0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, np.pi]),
        np.random.default_rng(0).normal(scale=1e3, size=25_409),
        np.array([]),
    ], ids=["edges", "lasso_sized", "empty"])
    def test_round_trip_is_bit_exact(self, vector):
        stored = json.loads(json.dumps(pipeline._vector(vector)))
        assert stored["dtype"] == "<f8"
        assert pipeline._from_vector(stored).tobytes() == vector.astype("<f8").tobytes()

    @pytest.fixture(params=["truncated", "truncated_by_whole_floats", "not_base64", "float32"])
    def corrupt_init(self, request, completed_run, tmp_path):
        """A directory up to init whose stored ``alpha`` cannot be loaded; its stamp is intact."""
        out, _ = completed_run
        for stage in ("data", "init"):
            shutil.copy(out / f"{stage}.json", tmp_path)
        path = tmp_path / "init.json"
        record = json.loads(path.read_text())
        text = record["alpha"]["base64"]
        record["alpha"] = {
            "truncated": {"dtype": "<f8", "base64": text[:-8]},  # six bytes short
            "truncated_by_whole_floats": {"dtype": "<f8", "base64": text[:-32]},
            "not_base64": {"dtype": "<f8", "base64": "!" + text[1:]},
            "float32": {"dtype": "<f4", "base64": text},
        }[request.param]
        path.write_text(json.dumps(record))
        return tmp_path

    def test_computing_resume_refuses_a_corrupt_vector(self, corrupt_init):
        with pytest.raises(StageError):
            run_pipeline(tiny_config(), corrupt_init, until="prior_location")
        assert not (corrupt_init / "prior_location.json").exists()

    def test_locate_prior_command_exits_three(self, corrupt_init):
        cfg_path = corrupt_init / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(tiny_config())))
        res = CliRunner().invoke(main, ["locate-prior", "--config", str(cfg_path), "--out", str(corrupt_init)])
        assert res.exit_code == 3, res.output
        assert "stage failed" in res.output

    def test_old_format_directory_is_stale(self, completed_run, tmp_path):
        out, _ = completed_run
        cfg = tiny_config()
        old = _old_format_hash(cfg)
        for stage in STAGE_ORDER:
            record = json.loads((out / f"{stage}.json").read_text())
            for key, value in record.items():
                if isinstance(value, dict) and "base64" in value:
                    record[key] = pipeline._from_vector(value).tolist()
            record["config_hash"] = old
            (tmp_path / f"{stage}.json").write_text(json.dumps(record))
        with pytest.raises(StaleArtifactError) as info:
            run_pipeline(cfg, tmp_path, until="report")
        assert old != cfg.hash()
        assert old in str(info.value) and cfg.hash() in str(info.value)

    def test_cli_summary_prints_no_vector(self, completed_run, tmp_path):
        out, _ = completed_run
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(tiny_config())))
        res = CliRunner().invoke(main, ["locate-prior", "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "base64" not in res.output
        assert set(json.loads(res.output.strip().splitlines()[-1])) == {"found", "estimate", "config_hash"}


class TestBlasThreads:
    """A run uses one BLAS thread, whatever count the caller set, and restores that count."""

    def test_two_thread_caller_gets_the_one_thread_bytes(self, completed_run, tmp_path, monkeypatch):
        blas = pipeline._blas_threads()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS is not loadable here")
        set_threads, get_threads = blas
        during = []

        def recording(certify_stage, run):
            during.append(get_threads())
            return certify_stage(run)

        monkeypatch.setattr(pipeline, "_STAGES", _with_certify_compute(recording))
        before = get_threads()
        set_threads(2)
        try:
            run_pipeline(tiny_config(), tmp_path, until="report")
            after = get_threads()
        finally:
            set_threads(before)
        assert during == [1] and after == 2
        out, _ = completed_run
        for stage in STAGE_ORDER:
            name = f"{stage}.json"
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_without_the_library_a_warning_is_recorded(self, monkeypatch):
        def unloadable(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(pipeline.ctypes, "CDLL", unloadable)
        with pytest.warns(RuntimeWarning, match="thread count is left as it is"):
            assert pipeline._blas_threads.__wrapped__() is None


class TestInfeasibleSupport:
    """Every support point outside the band is a constraint failure (exit 2), not a stage failure."""

    @pytest.fixture
    def before_certificate(self, completed_run, tmp_path, monkeypatch):
        out, _ = completed_run
        for stage in STAGE_ORDER[: STAGE_ORDER.index("certificate")]:
            shutil.copy(out / f"{stage}.json", tmp_path)
        build_stats = pipeline.build_stats

        def all_infeasible(*args, **kwargs):
            stats, phi, p_hats = build_stats(*args, **kwargs)
            return stats, np.full_like(phi, -np.inf), p_hats

        monkeypatch.setattr(pipeline, "build_stats", all_infeasible)
        return tmp_path

    def test_run_raises_constraint_not_found(self, before_certificate):
        with pytest.raises(ConstraintNotFoundError, match="feasible band"):
            run_pipeline(tiny_config(), before_certificate, until="certificate")
        assert not (before_certificate / "certificate.json").exists()

    def test_posterior_command_exits_two(self, before_certificate):
        cfg_path = before_certificate / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(tiny_config())))
        res = CliRunner().invoke(
            main, ["posterior", "--config", str(cfg_path), "--out", str(before_certificate)]
        )
        assert res.exit_code == 2, res.output


class TestValidationHandOff:
    """The certificate stage reads the sampler's validation matrices when the samples stage ran."""

    def test_straight_run_passes_them_and_a_resume_rolls_out(self, completed_run, tmp_path, monkeypatch):
        out, _ = completed_run
        calls = []
        build_stats = pipeline.build_stats

        def recording(*args, val_losses=None, **kwargs):
            calls.append(val_losses)
            return build_stats(*args, val_losses=val_losses, **kwargs)

        monkeypatch.setattr(pipeline, "build_stats", recording)
        run_pipeline(tiny_config(), tmp_path / "straight", until="certificate")
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        for stage in STAGE_ORDER[: STAGE_ORDER.index("certificate")]:
            shutil.copy(out / f"{stage}.json", resumed)
        run_pipeline(tiny_config(), resumed, until="certificate")
        straight, from_artifact = calls
        points = json.loads((out / "samples.json").read_text())["points"]
        assert len(straight) == len(points)
        assert all(m.shape == (10, 11) for m in straight)  # 10 validation instances, run_length 10
        assert from_artifact is None
        straight_cert = (tmp_path / "straight" / "certificate.json").read_bytes()
        assert straight_cert == (out / "certificate.json").read_bytes()


def test_a_run_does_not_import_numpy_ma(tmp_path):
    """numpy's median and quantile code would import ``numpy.ma`` (about 1.3 MB) for nothing."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(tiny_config())))
    code = ("import sys; from optcert.pipeline import ExperimentConfig, run_pipeline; "
            f"run_pipeline(ExperimentConfig.from_json({str(cfg_path)!r}), {str(tmp_path / 'o')!r}); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["False"]


class TestDataStage:
    def test_split_isolation(self, tmp_path):
        record = run_pipeline(tiny_config(), tmp_path, until="data")
        instances = record["instances"]
        assert len(instances) == 40
        # serialized instances are all distinct draws
        texts = {json.dumps(i, sort_keys=True) for i in instances}
        assert len(texts) == 40

    def test_resume_reads_instances_without_generating(self, completed_run, monkeypatch):
        out, record = completed_run

        def generate(*args, **kwargs):
            raise AssertionError("instances generated although data.json exists")

        monkeypatch.setattr(pipeline, "gen_quadratics", generate)
        assert run_pipeline(tiny_config(), out, until="report") == record

    def test_lasso_data(self, tmp_path):
        cfg = tiny_config(problem="lasso", dim=6, design_rows=4,
                          reg_range=(0.1, 0.5))
        record = run_pipeline(cfg, tmp_path, until="data")
        assert record["context"] is not None
        assert record["instances"][0]["kind"] == "lasso"


def _printed_length_summary(record):
    """The CLI summary by its definition: every list and dict printed in full and measured."""
    return {k: v for k, v in record.items() if not isinstance(v, (list, dict)) or len(str(v)) < 200}


class TestCli:
    def test_gen_data_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": "quadratic", "dim": 3, "m_range": [1, 2],
            "L_range": [3, 4], "sizes": [4, 4, 4, 4], "n_train": 4,
        }))
        runner = CliRunner()
        res = runner.invoke(main, ["gen-data", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 0

    def test_full_run_summary(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = tiny_config()
        cfg_path.write_text(json.dumps(asdict(cfg)))
        runner = CliRunner()
        res = runner.invoke(main, ["evaluate", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output.strip().splitlines()[-1])
        assert "bound" in summary

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(tiny_config())))
        runner = CliRunner()
        r1 = runner.invoke(main, ["gen-data", "--config", str(cfg_path),
                                  "--seed", "11", "--out", str(tmp_path / "a")])
        r2 = runner.invoke(main, ["gen-data", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        a = (tmp_path / "a" / "data.json").read_text()
        b = (tmp_path / "b" / "data.json").read_text()
        assert a != b

    @pytest.mark.parametrize("stage", STAGE_ORDER)
    def test_summary_keeps_the_keys_of_the_printed_length_test(self, completed_run, stage):
        out, _ = completed_run
        record = json.loads((out / f"{stage}.json").read_text())
        assert _summary(record) == _printed_length_summary(record)

    def test_summary_at_the_item_count_edge(self):
        record = {"kept": [1] * 66, "dropped": [1] * 67, "pairs": {str(i): i for i in range(30)},
                  "nested_kept": [[1] * 65], "nested_dropped": [[1] * 67]}
        assert len(str(record["kept"])) == 198 and len(str(record["dropped"])) == 201
        assert len(str(record["nested_kept"])) == 197
        assert _summary(record) == _printed_length_summary(record)
        assert _summary(record) == {"kept": record["kept"], "nested_kept": record["nested_kept"]}

    def test_summary_drops_long_values_without_printing_them(self):
        class Unprintable:
            def __repr__(self):
                raise AssertionError("a long value was printed")

        many = [Unprintable()] * 67
        record = {"flat": many, "nested": [many], "in_dict": {"points": [many]}, "bound": 1.5}
        assert _summary(record) == {"bound": 1.5}

    @staticmethod
    def _exits_three_and_writes_nothing(tmp_path, cfg: dict, *options):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = CliRunner().invoke(main, ["init", "--config", str(cfg_path), *options,
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 3, res.output
        assert "invalid config" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, value", BAD_SECTIONS)
    def test_invalid_config_exits_three_and_writes_nothing(self, tmp_path, section, value):
        self._exits_three_and_writes_nothing(tmp_path, {**asdict(tiny_config()), section: value})

    @pytest.mark.parametrize("key, value", BAD_LASSO_DATA)
    def test_invalid_lasso_data_exits_three_and_writes_nothing(self, tmp_path, key, value):
        self._exits_three_and_writes_nothing(tmp_path, {**asdict(tiny_lasso_config()), key: value})

    def test_negative_seed_override_exits_three_and_writes_nothing(self, tmp_path):
        self._exits_three_and_writes_nothing(tmp_path, asdict(tiny_config()), "--seed", "-1")

    def test_infeasible_band_exits_two(self, tmp_path):
        # a band requiring p_hat <= 0.3 cannot be reached by the trained rule
        cfg = tiny_config(sublevel={"p_l": 0.0, "p_u": 0.3},
                          locate={"n_max": 300, "check_every": 100,
                                  "run_length": 10, "target_len": 10,
                                  "score_instances": 5})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        runner = CliRunner()
        res = runner.invoke(main, ["locate-prior", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
