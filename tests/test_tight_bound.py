"""A certificate that can fail: the bound-validity check at a small sublevel threshold.

At the default threshold scale the desk certificates are about 1,300 and
the held-out risks at most 0.018, so the acceptance check of bound validity
passes whatever the bound's arithmetic does: the bound scales with
``g_scale * loss(x0)``.  At ``g_scale`` 1e-12, with ``lambda_max`` raised so
that the optimal temperature stays inside the grid, the bounds are about
1.3e-9 and within about 25x of the worst held-out risk, so a bound that
drops one of its terms fails here.  The rule and the held-out risk are the
acceptance check's own.  Each bound must also equal the sum of the terms
its certificate records, so a bound reported without one of its terms
fails even where it still exceeds the held-out risk.
"""

import dataclasses

from optcert.pipeline import run_pipeline

from test_acceptance import _posterior_test_risk, desk_config
from test_pipeline import bound_gap

N_RUNS = 10


def tight_config(seed: int):
    return dataclasses.replace(desk_config(seed), sublevel={"g_scale": 1e-12}, pac={"lambda_max": 1e30})


def test_bound_holds_on_held_out_data_at_a_small_threshold(tmp_path):
    held, bounds = 0, []
    for seed in range(N_RUNS):
        run = {"cfg": tight_config(seed), "out": tmp_path / f"desk{seed}"}
        run["cert"] = run_pipeline(run["cfg"], run["out"], until="certificate")
        bounds.append(run["cert"]["bound"])
        assert bound_gap(run["cert"], run["cfg"].pac_config()) <= 1e-12, (seed, run["cert"])
        held += run["cert"]["bound"] >= _posterior_test_risk(run)
    assert max(bounds) < 1e-6, bounds  # the threshold, not the default scale, sets the bound
    assert held >= 0.9 * N_RUNS, f"bound violated on {N_RUNS - held} of {N_RUNS} runs"
