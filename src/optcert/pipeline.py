"""End-to-end experiment pipeline with per-stage persistence.

Stages: data generation, imitation initialization, constrained prior
location, Langevin prior sampling, posterior certification, and test-set
evaluation.  Each stage writes a JSON artifact into the output directory
and is skipped on re-runs when its artifact already exists, so interrupted
experiments resume where they stopped.

Each stage draws from its own random stream, keyed by the config's seed and
the stage, so a resumed run writes the same artifacts as a straight one.
Every artifact records the config's hash as ``config_hash``; a reused one
without that hash (written by another config, before artifacts carried it,
or in an older artifact format) raises StaleArtifactError, a StageError:
exit 3 on the command line.  The learned parameter vectors are stored
exactly, as the base64 of their little-endian float64 bytes.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import ctypes
import functools
import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .algorithms import (
    FistaAlgo,
    HbfAlgo,
    LassoLearnedAlgo,
    LearnedLassoArch,
    LearnedQuadArch,
    QuadLearnedAlgo,
    hbf_params,
    ratio_step,
    rollout,
)
from .pac import PacConfig, SufficientStats, build_prior, build_stats, certify
from .prior_training import (
    LocateConfig,
    StageConfig,
    _check_counts,
    find_initialization,
    locate_prior,
)
from .problems import (
    _check_lasso_ranges,
    _check_quadratic_ranges,
    _is_int,
    context_from_json,
    context_to_json,
    gen_lasso,
    gen_quadratics,
    instance_from_json,
    instance_to_json,
    split_dataset,
)
from .sampler import ConstraintNotFoundError, SampleSet, SgldConfig, constrained_sample
from .sublevel import SublevelSpec, estimate_from_rollout

__all__ = [
    "ExperimentConfig",
    "ConstraintNotFoundError",
    "StageError",
    "StaleArtifactError",
    "run_pipeline",
    "run_stage",
]


class StageError(RuntimeError):
    """A pipeline stage failed for a reason other than infeasibility."""


class StaleArtifactError(StageError):
    """A reused artifact does not carry the running config's hash."""


# 2: parameter vectors as base64 of little-endian float64 bytes (1: decimal lists)
ARTIFACT_FORMAT = 2
_PROBE_TRIES = 20  # draws of the learned rule's weights before the init stage gives up
_TIMING_REPEATS = 3  # rollouts per algorithm whose step times the report takes the median of
_JSON_FLOATS = 4_096  # entries of a float array per json.dumps call when an artifact is written


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    dim: int = 20
    design_rows: int = 15
    m_range: tuple = (1.0, 2.0)
    L_range: tuple = (500.0, 1000.0)
    reg_range: tuple = (0.1, 1.0)
    sizes: tuple = (50, 50, 50, 50)
    n_train: int = 50
    seed: int = 0
    sublevel: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)
    locate: dict = field(default_factory=dict)
    sgld: dict = field(default_factory=dict)
    pac: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in ("quadratic", "lasso"):
            raise ValueError(f"unknown problem kind: {self.problem!r}")
        self.m_range = tuple(self.m_range)
        self.L_range = tuple(self.L_range)
        self.reg_range = tuple(self.reg_range)
        self.sizes = tuple(self.sizes)
        if len(self.sizes) != 4 or not all(_is_int(size) and size >= 1 for size in self.sizes):
            raise ValueError(f"sizes: need four positive integer split sizes, got {self.sizes}")
        _check_counts("config", dim=self.dim, n_train=self.n_train)
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"config: need an integer seed >= 0, got seed={self.seed!r}")
        # the ranges of the other problem kind are unused and go unchecked
        if self.problem == "quadratic":
            _check_quadratic_ranges(self.m_range, self.L_range)
        else:
            _check_lasso_ranges(self.dim, self.design_rows, self.reg_range)
        # build every section once, so that an unknown key or a bad value is
        # refused before a stage runs
        for section in (self.sublevel_spec, self.stage_config, self.locate_config,
                        self.sgld_config, self.pac_config):
            section()

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls(**json.loads(Path(path).read_text()))

    def sublevel_spec(self) -> SublevelSpec:
        return SublevelSpec(**self.sublevel)

    def stage_config(self) -> StageConfig:
        return StageConfig(**self.init)

    def locate_config(self) -> LocateConfig:
        return LocateConfig(**self.locate)

    def sgld_config(self) -> SgldConfig:
        return SgldConfig(**self.sgld)

    def pac_config(self) -> PacConfig:
        return PacConfig(**self.pac)

    def hash(self) -> str:
        # the artifact format is hashed too, so a directory of another format is stale;
        # a NumPy scalar hashes as its Python value, any other iterable as a list
        payload = json.dumps({**vars(self), "artifact_format": ARTIFACT_FORMAT}, sort_keys=True,
                             default=lambda obj: obj.item() if isinstance(obj, np.generic) else list(obj))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _probe_arch(algo, instances, x0, rng):
    """Re-initialize the architecture until the hypergradient is nonzero.

    A freshly drawn step network can be entirely dead (every hidden unit
    off), which makes the one-step hypergradient identically zero and
    training impossible; redraw the weights in that case.
    """
    for _ in range(_PROBE_TRIES):
        state = algo.init_state(x0)
        inst = instances[rng.integers(len(instances))]
        _, g, _ = ratio_step(algo, state, inst)
        if g is not None and np.any(g != 0.0) and np.all(np.isfinite(g)):
            return
        algo.reinit(rng)
    raise StageError("could not draw a trainable initialization")


def _write_json(fh, record: dict) -> None:
    """Write the bytes of ``json.dump(record, fh)``, a float array as its list, with the C encoder.

    ``json.dump`` streams through the pure-Python encoder.  Here each value
    of the record (a dict with str keys) is one ``json.dumps`` call, except
    that a list of records (lists, dicts or 1-d float arrays, such as the
    instances or the sampled points) is written one at a time, and an array
    ``_JSON_FLOATS`` entries at a time: neither a string of the whole
    document nor the list of a whole array is built, so the peak memory of
    writing the LASSO samples does not grow with their number or length.
    """
    fh.write("{")
    for i, (key, value) in enumerate(record.items()):
        fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, (list, tuple)) and all(isinstance(item, (list, tuple, dict, np.ndarray))
                                                    for item in value):
            fh.write("[")
            for j, item in enumerate(value):
                fh.write(", " if j else "")
                if isinstance(item, np.ndarray):
                    # json.dumps of the list, one slice at a time, without the brackets of each slice
                    fh.write("[")
                    for start in range(0, len(item), _JSON_FLOATS):
                        part = json.dumps(item[start: start + _JSON_FLOATS].tolist())[1:-1]
                        fh.write(f"{', ' if start else ''}{part}")
                    fh.write("]")
                else:
                    fh.write(json.dumps(item))
            fh.write("]")
        else:
            fh.write(json.dumps(value))
    fh.write("}")


def _as_read(record: dict) -> dict:
    """``record`` as ``json.loads`` reads its artifact back: each float array in its lists becomes a list."""
    return {key: [item.tolist() if isinstance(item, np.ndarray) else item for item in value]
            if isinstance(value, list) else value for key, value in record.items()}


def _write_atomically(path: Path, write) -> None:
    """Call ``write(fh)`` on a temporary file in ``path``'s directory, then rename it to ``path``.

    A failure or a kill part-way leaves no ``path`` behind, so the next run
    recomputes the stage instead of reading a truncated artifact.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump_json(path: Path, record: dict) -> None:
    """Write the stage ``record`` atomically."""
    _write_atomically(path, lambda fh: _write_json(fh, record))


def _write_csv(path: Path, rows) -> None:
    """Write ``rows`` atomically as a CSV file."""
    _write_atomically(path, lambda fh: csv.writer(fh).writerows(rows))


def _vector(a) -> dict:
    """A float vector as the base64 of its little-endian float64 bytes: exact and compact."""
    return {"dtype": "<f8", "base64": base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")}


def _from_vector(obj: dict) -> np.ndarray:
    """The read-only float vector that ``_vector`` encoded; corrupt base64 raises ValueError."""
    if obj.get("dtype") != "<f8":
        raise StageError(f"a stored vector has dtype {obj.get('dtype')!r}, not '<f8'")
    return np.frombuffer(base64.b64decode(obj["base64"], validate=True), dtype="<f8")


def _ends_with_stamp(path: Path, stamp: str) -> bool:
    """Whether ``path`` ends with ``, "config_hash": "<stamp>"}``.

    The pipeline adds the stamp to a record last and ``_write_json`` keeps
    key order, so every artifact it writes ends this way.
    """
    tail = f', "config_hash": "{stamp}"}}'.encode()
    with open(path, "rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - len(tail), 0))
        return fh.read() == tail


def run_stage(name: str, out_dir: Path, compute):
    """Run ``compute`` unless ``<name>.json`` already exists; persist the result."""
    path = out_dir / f"{name}.json"
    if path.exists():
        return json.loads(path.read_text())
    result = compute()
    _dump_json(path, result)
    return result


def _column_percentiles(x: np.ndarray, qs) -> np.ndarray:
    """The bytes of ``np.nanpercentile(x, qs, axis=0)``, without importing ``numpy.ma``.

    numpy's quantile code imports ``numpy.ma`` (1.3 MB) through ``np.unique``.
    Its linear method takes the entries of each sorted column at the floor
    and the ceiling of (n - 1)·q, n the column's non-NaN count, and
    interpolates from the nearer one.  A column of NaN gives NaN.
    """
    ordered = np.sort(x, axis=0)  # NaN last
    last = np.count_nonzero(~np.isnan(x), axis=0) - 1
    at = last * np.true_divide(qs, 100)[:, None]
    lo = np.floor(at)
    t = at - lo
    below = np.take_along_axis(ordered, np.clip(lo, 0, last).astype(np.intp), axis=0)
    above = np.take_along_axis(ordered, np.clip(lo + 1, 0, last).astype(np.intp), axis=0)
    diff = above - below
    out = np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)
    return np.where(last >= 0, out, np.nan)


def _run_losses(algo, instances, x0, k: int):
    """Loss matrix plus cumulative per-iteration wall time.

    The time of iteration j is that of step j over the whole instance list
    (one batched step for the package algorithms), median over
    ``_TIMING_REPEATS`` rollouts.
    """
    times = np.zeros((_TIMING_REPEATS, k))
    for r in range(_TIMING_REPEATS):
        losses = rollout(algo, instances, x0, k, step_seconds=times[r])
    return losses, np.cumsum(np.sort(times, axis=0)[_TIMING_REPEATS // 2])


def _stage_data(run):
    """The data record: the LASSO context (None for quadratics) and every instance."""
    cfg = run.cfg
    total = sum(cfg.sizes)
    if cfg.problem == "quadratic":
        instances = gen_quadratics(total, cfg.dim, cfg.m_range, cfg.L_range, cfg.seed)
        run.ctx = None
    else:
        run.ctx, instances = gen_lasso(total, cfg.dim, cfg.design_rows, cfg.reg_range, cfg.seed)
    run.splits = split_dataset(instances, cfg.sizes)
    return {
        "context": context_to_json(run.ctx) if run.ctx is not None else None,
        "instances": [instance_to_json(i) for i in instances],
    }


def _load_data(run, record):
    # JSON keeps every bit of a float, so the instances and the LASSO context
    # equal the generated data
    ctx = record["context"]
    run.ctx = context_from_json(ctx) if ctx is not None else None
    run.splits = split_dataset([instance_from_json(o) for o in record["instances"]], run.cfg.sizes)


def _build_algos(run) -> None:
    """The learned and baseline algorithms, the learned one drawn from the init stage's stream."""
    cfg, ctx, rng = run.cfg, run.ctx, run.rng
    if cfg.problem == "quadratic":
        run.learned = QuadLearnedAlgo(LearnedQuadArch.init(rng))
        run.baseline = HbfAlgo(hbf_params(cfg.m_range[0], cfg.L_range[1]))
    else:
        run.learned = LassoLearnedAlgo(LearnedLassoArch.init(rng, prox_tau=1.0 / ctx.lipschitz), ctx)
        run.baseline = FistaAlgo(ctx)


def _stage_init(run):
    _build_algos(run)
    # only a computed init probes: a reused record overwrites every weight
    _probe_arch(run.learned, run.splits.prior, run.x0, run.rng)
    res = find_initialization(
        run.learned, run.baseline, run.splits.prior, run.x0, run.cfg.stage_config(), run.rng
    )
    return {"alpha": _vector(res.alpha), "converged": bool(res.converged)}


def _load_init(run, record):
    _build_algos(run)
    run.learned.set_flat(_from_vector(record["alpha"]))


def _stage_locate(run):
    loc = locate_prior(
        run.learned, run.splits.prior, run.splits.val, run.x0, run.spec,
        run.cfg.locate_config(), run.rng,
    )
    return {
        "alpha": _vector(loc.alpha),
        "found": bool(loc.constraint_found),
        "estimate": loc.estimate,
    }


def _check_locate(record):
    if not record["found"]:
        raise ConstraintNotFoundError("prior location left the feasible band")


def _load_locate(run, record):
    run.learned.set_flat(_from_vector(record["alpha"]))


def _stage_sample(run):
    run.samples = constrained_sample(
        run.learned, run.splits.prior, run.splits.val, run.x0, run.spec,
        run.cfg.sgld_config(), run.rng,
    )
    # the points stay arrays, which the writer encodes a slice at a time
    return {"points": run.samples.points, "estimates": list(map(float, run.samples.estimates))}


def _load_samples(run, record):
    run.samples = SampleSet(points=[np.asarray(p, dtype=float) for p in record["points"]],
                            estimates=record["estimates"])


def _stage_certify(run):
    stats, phi, p_hats = build_stats(
        run.learned, run.samples.points, run.splits.train, run.splits.val, run.x0,
        run.cfg.n_train, run.spec, run.rng, val_losses=run.samples.val_losses,
    )
    if not np.isfinite(phi).any():
        raise ConstraintNotFoundError("every sampled point left the feasible band")
    prior, kept = build_prior(phi)
    kept_stats = SufficientStats(t1=stats.t1[kept], t2=stats.t2[kept])
    cert = certify(prior, kept_stats, run.cfg.pac_config())
    point_alpha = np.asarray(run.samples.points[kept[cert.point_index]], dtype=float)
    run.learned.set_flat(point_alpha)
    run.bound = cert.bound
    return {
        "lambda_star": cert.lambda_star,
        "bound": cert.bound,
        "kl": cert.kl,
        "weights": cert.posterior.weights.tolist(),
        "point_estimate": cert.point_index,
        "emp_risk": cert.emp_risk,
        "emp_second": cert.emp_second,
        "kept_indices": kept.tolist(),
        "p_hats": p_hats.tolist(),
        "point_alpha": _vector(point_alpha),
    }


def _load_certificate(run, record):
    run.learned.set_flat(_from_vector(record["point_alpha"]))
    run.bound = record["bound"]


def _loss_summary(losses: np.ndarray) -> np.ndarray:
    """The rows p10, p50, p90 and mean of each column of ``losses``, over its finite entries."""
    finite = np.where(np.isfinite(losses), losses, np.nan)
    return np.vstack([_column_percentiles(finite, (10, 50, 90)), np.nanmean(finite, axis=0)])


def _stage_report(run):
    """Roll the learned and baseline rules out on the test split and write the four CSV files."""
    k, out_dir = run.cfg.n_train, run.out_dir
    learned, learned_time = _run_losses(run.learned, run.splits.test, run.x0, k)
    baseline, baseline_time = _run_losses(run.baseline, run.splits.test, run.x0, k)
    res = estimate_from_rollout(learned, run.spec, run.rng)
    lp, bp = _loss_summary(learned), _loss_summary(baseline)
    columns = ("p10", "p50", "p90", "mean")
    _write_csv(out_dir / "loss_curves.csv", [
        ["iteration", *(f"learned_{c}" for c in columns), *(f"baseline_{c}" for c in columns)],
        *([i, *lp[:, i], *bp[:, i]] for i in range(k + 1)),
    ])
    _write_csv(out_dir / "histogram.csv", [
        ["bound", run.bound], ["learned_final", "baseline_final"], *zip(learned[:, -1], baseline[:, -1]),
    ])
    _write_csv(out_dir / "cumtime.csv", [
        ["iteration", "learned_cumtime", "baseline_cumtime"], *zip(range(1, k + 1), learned_time, baseline_time),
    ])
    _write_csv(out_dir / "sublevel_posterior.csv", [
        ["count_a", "count_b", "point_estimate"],
        [res.posterior.count_a, res.posterior.count_b, res.point_estimate],
    ])
    return {
        "learned_median_final": float(lp[1, -1]),
        "baseline_median_final": float(bp[1, -1]),
        "bound": run.bound,
        "sublevel_point": res.point_estimate,
    }


class _Stage(NamedTuple):
    """One pipeline stage.

    ``compute(run)`` returns the stage's record and leaves ``run`` as
    ``load(run, record)`` would; ``check(record)``, when given, refuses a
    record that no later stage may use.
    """

    name: str
    compute: Callable
    check: Callable | None
    load: Callable


_STAGES = (
    _Stage("data", _stage_data, None, _load_data),
    _Stage("init", _stage_init, None, _load_init),
    _Stage("prior_location", _stage_locate, _check_locate, _load_locate),
    _Stage("samples", _stage_sample, None, _load_samples),
    _Stage("certificate", _stage_certify, None, _load_certificate),
    _Stage("report", _stage_report, None, lambda run, record: None),
)
STAGE_ORDER = tuple(stage.name for stage in _STAGES)


@functools.cache
def _blas_threads():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS, or None.

    numpy's wheels ship the library as ``numpy.libs/libscipy_openblas64_-<hash>.so``
    beside the package; under another BLAS build a warning is recorded once.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_-*.so"):
        try:
            lib = ctypes.CDLL(str(path))
            return lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
    warnings.warn("numpy's bundled OpenBLAS was not found, so the BLAS thread count is left as it "
                  "is; certificates may then differ between thread counts", RuntimeWarning)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the count it found.

    A multi-threaded product may sum in another order, so without this a
    certificate would depend on the thread count, which no stamp records.
    """
    blas = _blas_threads()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def run_pipeline(cfg: ExperimentConfig, out_dir, until: str | None = None) -> dict:
    """Run the stages in order, stopping after ``until`` when given.

    Returns the record of the last completed stage, as ``json.loads`` reads
    its artifact.  When some stage up to ``until`` computes, every reused
    artifact is read, checked and loaded into splits, algorithms and
    samples; a computed record is never loaded.  When none computes,
    nothing is built: the returned record and ``prior_location.json``,
    whose ``found`` is checked, are parsed, and every other artifact is
    verified by the stamp in its last bytes, or parsed and checked when
    they do not match.  The body of an artifact
    verified by its stamp is checked only when a later call loads it.
    The stages run on one BLAS thread, and the caller's count is restored.
    Raises ConstraintNotFoundError when no feasible region exists,
    StaleArtifactError when a reused artifact lacks the config's hash, and
    StageError for other failures.
    """
    if until is not None and until not in STAGE_ORDER:
        raise ValueError(f"unknown stage: {until!r}")
    out_dir = Path(out_dir)
    stages = _STAGES[:STAGE_ORDER.index(until) + 1] if until is not None else _STAGES
    try:
        # the loop sets ``rng``, the running stage's stream; the stages add ``ctx``
        # and ``splits`` (data), ``learned`` and ``baseline`` (init), ``samples``,
        # with validation matrices when sampled in this call, and ``bound``
        run = SimpleNamespace(cfg=cfg, out_dir=out_dir, spec=cfg.sublevel_spec(), x0=np.zeros(cfg.dim))
        stamp = cfg.hash()
        seeds = np.random.SeedSequence(cfg.seed).spawn(len(_STAGES))
        out_dir.mkdir(parents=True, exist_ok=True)
        on_disk = [(out_dir / f"{stage.name}.json").exists() for stage in stages]
        computes = not all(on_disk)
        with _one_blas_thread():
            for stage, seed, reused in zip(stages, seeds, on_disk):
                # a resume that computes nothing needs only the stamp of a record it
                # neither checks nor returns; a file that ends otherwise is parsed
                if (not computes and stage.check is None and stage is not stages[-1]
                        and _ends_with_stamp(out_dir / f"{stage.name}.json", stamp)):
                    continue
                run.rng = np.random.default_rng(seed)
                record = run_stage(stage.name, out_dir, lambda: {**stage.compute(run), "config_hash": stamp})
                if record.get("config_hash") != stamp:
                    raise StaleArtifactError(f"{out_dir / f'{stage.name}.json'} has config hash "
                                             f"{record.get('config_hash')}, not this config's {stamp}")
                if stage.check is not None:
                    stage.check(record)
                if computes and reused:
                    stage.load(run, record)
    except (ConstraintNotFoundError, StageError):
        raise
    except Exception as exc:
        raise StageError(str(exc)) from exc
    # a computed record may hold float arrays; a reused one was read from its artifact
    return record if on_disk[-1] else _as_read(record)
