"""Command-line entry points for the certification pipeline.

Each subcommand runs the pipeline up to one stage; stage artifacts are
persisted in the output directory, so later commands reuse earlier results.
Exit codes: 0 success, 2 no feasible hyperparameter region, 3 an invalid
config or a stage failure, including an output directory written by another
config.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from .pipeline import (
    ConstraintNotFoundError,
    ExperimentConfig,
    StageError,
    run_pipeline,
)

EXIT_CONSTRAINT = 2
EXIT_STAGE = 3


def _load_config(config, seed):
    try:
        cfg = ExperimentConfig.from_json(config) if config else ExperimentConfig()
        # ``replace`` builds a new config, so the override is checked as well
        return cfg if seed is None else replace(cfg, seed=seed)
    except (TypeError, ValueError) as exc:
        click.echo(f"invalid config: {exc}", err=True)
        sys.exit(EXIT_STAGE)


def _run(config, seed, out, until):
    cfg = _load_config(config, seed)
    try:
        record = run_pipeline(cfg, out, until=until)
    except ConstraintNotFoundError as exc:
        click.echo(f"constraint not found: {exc}", err=True)
        sys.exit(EXIT_CONSTRAINT)
    except StageError as exc:
        click.echo(f"stage failed: {exc}", err=True)
        sys.exit(EXIT_STAGE)
    click.echo(json.dumps(_summary(record)))


def _few_items(value) -> bool:
    """Whether ``value`` and every list or dict inside it hold fewer than 67 items.

    A list of n items prints at least 3n characters and a dict at least 6n,
    so a value for which this is false prints at least 201.
    """
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, list) or (len(value) < 67 and all(map(_few_items, value)))


def _summary(record: dict) -> dict:
    """The record without its lists and dicts of 200 printed characters or more."""
    return {
        k: v
        for k, v in record.items()
        if not isinstance(v, (list, dict)) or (_few_items(v) and len(str(v)) < 200)
    }


def _stage_command(name: str, stage: str, help_text: str):
    @main.command(name=name, help=help_text)
    @click.option("--config", type=click.Path(exists=True), default=None, help="JSON config file.")
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    @click.option("--out", type=click.Path(), required=True, help="Output directory.")
    def cmd(config, seed, out, _stage=stage):
        _run(config, seed, out, _stage)

    return cmd


@click.group()
def main():
    """Learn an optimization algorithm with a certified risk bound."""


_stage_command("gen-data", "data", "Generate and persist the problem instances.")
_stage_command("init", "init", "Imitation-train the starting hyperparameters.")
_stage_command("locate-prior", "prior_location", "Find a feasible prior mean under the sublevel constraint.")
_stage_command("sample-prior", "samples", "Sample the prior support with constrained Langevin proposals.")
_stage_command("posterior", "certificate", "Build the posterior and compute the certified bound.")
_stage_command("evaluate", "report", "Run the full pipeline and evaluate on the test split.")


if __name__ == "__main__":
    main()
