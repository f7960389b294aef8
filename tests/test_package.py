import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from dataclasses import fields
from pathlib import Path

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


def test_the_config_surface_is_pinned():
    # every key a config file may set, so that a knob added or removed shows up here as a diff
    cfg = pipeline.ExperimentConfig()
    sections = {"sublevel": cfg.sublevel_spec(), "init": cfg.stage_config(), "locate": cfg.locate_config(),
                "sgld": cfg.sgld_config(), "pac": cfg.pac_config()}
    keys = {f.name for f in fields(cfg)} | {f"{name}.{f.name}" for name, section in sections.items()
                                            for f in fields(section)}
    assert keys == {
        "problem", "dim", "design_rows", "m_range", "L_range", "reg_range", "sizes", "n_train", "seed",
        "sublevel", "init", "locate", "sgld", "pac",
        "sublevel.g_scale", "sublevel.g_exponent", "sublevel.p_l", "sublevel.p_u", "sublevel.q_l",
        "sublevel.q_u", "sublevel.width_tol",
        "init.segment_len", "init.target_len", "init.lr", "init.decay_every", "init.n_init", "init.eps_init",
        "init.max_iterations", "init.guard_factor",
        "locate.segment_len", "locate.target_len", "locate.lr", "locate.decay_every", "locate.n_max",
        "locate.check_every", "locate.run_length", "locate.guard_factor", "locate.score_instances",
        "sgld.step0", "sgld.n_samples", "sgld.thinning", "sgld.segment_len", "sgld.target_len",
        "sgld.run_length",
        "pac.lambda_min", "pac.lambda_max", "pac.grid_size", "pac.eps_pac",
    }


# top-level definitions in src/optcert with no reference there, each with its reason
UNREFERENCED = {
    "IstaAlgo",  # tests/test_acceptance.py imports it
    "grad_train_loss_onestep",  # tests/test_acceptance.py imports it
    "beta_quantile",  # tests/test_acceptance.py imports it
    "preprocess",  # the reference that tests compare _preprocess_into against
    "sublevel_indicator",  # the benchmark tracer's hook (ROADMAP item 1)
}


def _references(tree) -> Counter:
    """How often each name appears in ``tree`` as a Name or as an Attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller_in_the_package():
    """A top-level function or class is named somewhere in the package outside its own definition."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(optcert.__file__).parent.glob("*.py"))]
    everywhere = sum(map(_references, trees), Counter())
    unreferenced = {node.name for tree in trees for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and everywhere[node.name] == _references(node)[node.name]}
    assert unreferenced == UNREFERENCED
