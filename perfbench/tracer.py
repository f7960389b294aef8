"""Spans and counters around the optcert modules, installed from outside.

The tracer replaces module and class attributes of the installed package
with timing wrappers and puts the originals back on exit.  Calls that happen
a few dozen times per run (stages, estimates, ``build_stats``, ``certify``,
``evaluate`` and the other public entry points) each get a span: name,
start, end and the index of the enclosing span.  Per-call hot functions
(net passes, single steps, hypergradients, Adam, indicator rollouts) only
keep a call count and a busy total per name, because a span for each of the
~240k calls of one run would cost more than the work it measures.

``from .x import f`` binds ``f`` again in every consumer module, so each
name is wrapped in every namespace that holds it; a name that no longer
exists is skipped and listed in ``missing``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

import optcert.algorithms as algorithms
import optcert.nets as nets
import optcert.pac as pac
import optcert.pipeline as pipeline
import optcert.prior_training as prior_training
import optcert.problems as problems
import optcert.sampler as sampler
import optcert.sublevel as sublevel

_NAMESPACES = {
    "algorithms": algorithms,
    "nets": nets,
    "pac": pac,
    "pipeline": pipeline,
    "prior_training": prior_training,
    "problems": problems,
    "sampler": sampler,
    "sublevel": sublevel,
}

# span name -> modules whose attribute of that name is wrapped
_SPANS = {
    "prior_training.find_initialization": ("prior_training", "pipeline"),
    "prior_training.locate_prior": ("prior_training", "pipeline"),
    "pac.build_stats": ("pac", "pipeline"),
    "pac.build_prior": ("pac", "pipeline"),
    "pac.certify": ("pac", "pipeline"),
    "pipeline.evaluate": ("pipeline",),
    "pipeline.emit_plot_data": ("pipeline",),
    "problems.split_dataset": ("problems", "pipeline"),
}

# counter name -> (attribute, modules holding it)
_COUNTERS = {
    "nets.adam_step": ("adam_step", ("nets", "prior_training")),
    "algorithms.ratio_step": ("ratio_step", ("algorithms", "pipeline", "prior_training", "sampler")),
    "problems.instance_from_json": ("instance_from_json", ("problems", "pipeline")),
    "problems.context_from_json": ("context_from_json", ("problems", "pipeline")),
    "sampler.sgld_step": ("sgld_step", ("sampler",)),
}

_GENERATORS = ("gen_quadratics", "gen_lasso")
_ESTIMATE_HOLDERS = ("sublevel", "prior_training", "sampler", "pac", "pipeline")


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _inside(res, spec) -> bool:
    return bool(res.conclusive and spec.p_l <= res.point_estimate <= spec.p_u)


class Tracer:
    """Collects spans and counters while installed (``with tracer.installed():``)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.calls = defaultdict(int)  # hot function -> calls
        self.busy = defaultdict(float)  # hot function -> seconds inside it
        self.counts = defaultdict(int)  # events counted at the boundaries
        self.missing = []
        self._pairs = set()  # (alpha digest, instance id) already rolled out
        self._alpha = None
        self._first_sample_estimate = False
        self._undo = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - t0
                calls[name] += 1

        return wrapper

    # -- hooks with bookkeeping beyond a span or a counter -------------------

    def _run_stage(self, fn):
        @functools.wraps(fn)
        def wrapper(name, out_dir, compute):
            loading = (Path(out_dir) / f"{name}.json").exists()
            with self.span(f"{'load' if loading else 'stage'}.{name}") as rec:
                result = fn(name, out_dir, compute)
            if loading:
                self.busy["pipeline.load"] += rec[2] - rec[1]
            return result

        return wrapper

    def _estimate(self, fn, holder):
        def on_result(res, spec):
            if holder == "prior_training":
                self.counts["prior_training.locate_checks"] += 1
                self.counts["prior_training.locate_accepts"] += _inside(res, spec)
            elif holder == "sampler":
                # the first estimate of a sampling run scores the start point
                if self._first_sample_estimate:
                    self._first_sample_estimate = False
                else:
                    self.counts["sampler.accepts"] += _inside(res, spec)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = _bind(fn, args, kwargs)
            flat = bound["algo"].get_flat()
            self._alpha = hashlib.blake2b(flat.tobytes(), digest_size=16).digest()
            with self.span("sublevel.estimate"):
                res = fn(*args, **kwargs)
            self.counts["sublevel.estimates"] += 1
            self.counts["sublevel.draws_used"] += res.draws_used
            self.counts["sublevel.inconclusive"] += not res.conclusive
            on_result(res, bound["spec"])
            return res

        return wrapper

    def _indicator(self, fn):
        counted = self._counted("sublevel.indicator", fn)

        @functools.wraps(fn)
        def wrapper(algo, inst, *args, **kwargs):
            pair = (self._alpha, id(inst))
            if pair in self._pairs:
                self.counts["sublevel.repeat_draws"] += 1
            else:
                self._pairs.add(pair)
            return counted(algo, inst, *args, **kwargs)

        return wrapper

    def _rollouts(self, name, fn):
        spanned = self._spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.rollouts"] += len(_bind(fn, args, kwargs)["instances"])
            return spanned(*args, **kwargs)

        return wrapper

    def _sample(self, fn):
        spanned = self._spanned("sampler.constrained_sample", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._first_sample_estimate = True
            return spanned(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        if attr not in vars(owner):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def _patch_in(self, modules, attr, make):
        for mod in modules:
            self._patch(_NAMESPACES[mod], attr, make)

    def _install(self):
        for name, holders in _SPANS.items():
            attr = name.split(".", 1)[1]
            self._patch_in(holders, attr, functools.partial(self._spanned, name))
        for name, (attr, holders) in _COUNTERS.items():
            self._patch_in(holders, attr, functools.partial(self._counted, name))
        for attr in _GENERATORS:
            make = functools.partial(self._counted, "problems.gen")
            self._patch_in(("problems", "pipeline"), attr, make)
        self._patch(pipeline, "run_stage", self._run_stage)
        for mod in _ESTIMATE_HOLDERS:
            self._patch(
                _NAMESPACES[mod], "estimate_sublevel_probability",
                functools.partial(self._estimate, holder=mod),
            )
        self._patch(sublevel, "sublevel_indicator", self._indicator)
        self._patch(pac, "empirical_sublevel_risk",
                    functools.partial(self._rollouts, "pac.risk"))
        self._patch(prior_training, "_median_final_loss",
                    functools.partial(self._rollouts, "prior_training.score"))
        self._patch(sampler, "constrained_sample", self._sample)
        self._patch(pipeline, "constrained_sample", self._sample)
        self._patch(nets.DenseNet, "forward", functools.partial(self._counted, "nets.forward"))
        self._patch(nets.DenseNet, "backward", functools.partial(self._counted, "nets.backward"))
        for cls_name, cls in sorted(vars(algorithms).items()):
            if not (inspect.isclass(cls) and cls_name.endswith("Algo")):
                continue
            kind = "learned" if "Learned" in cls_name else "baseline"
            self._patch(cls, "step", functools.partial(self._counted, f"algorithms.{kind}_step"))
            if kind == "learned":
                for attr in ("step_with_tape", "step_backward"):
                    self._patch(cls, attr, functools.partial(self._counted, f"algorithms.{attr}"))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the block; always restores."""
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def span_table(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return table

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "span_table": self.span_table(),
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "counts": dict(self.counts),
            "missing_hooks": list(self.missing),
        }
