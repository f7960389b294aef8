import importlib
import inspect
import pkgutil

import optcert
from optcert import algorithms, pipeline

# the modules that the benchmark's tracer (perfbench/tracer.py) imports and wraps
TRACED_MODULES = ("algorithms", "nets", "pac", "pipeline", "prior_training", "problems", "sampler", "sublevel")


def test_every_name_in_all_resolves():
    names = ["optcert"] + [f"optcert.{info.name}" for info in pkgutil.iter_modules(optcert.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert len(names) > 1 and missing == []


def test_what_the_benchmark_uses_is_there():
    for name in TRACED_MODULES:
        importlib.import_module(f"optcert.{name}")
    for attr in ("ConstraintNotFoundError", "ExperimentConfig", "StageError"):
        assert hasattr(pipeline, attr), attr
    assert list(inspect.signature(pipeline.run_stage).parameters) == ["name", "out_dir", "compute"]
    run = inspect.signature(pipeline.run_pipeline).parameters
    assert list(run) == ["cfg", "out_dir", "until"] and run["until"].default is None
    # the tracer wraps a learned rule's step methods through the class's own dict
    for cls in (algorithms.QuadLearnedAlgo, algorithms.LassoLearnedAlgo):
        assert {"step", "step_with_tape", "step_backward"} <= set(vars(cls)), cls.__name__
