"""The package names the benchmark harness reaches by attribute.

``perfbench``'s verify workload swaps ``solve`` and every name in
``CHECKS_CALLS`` on ``harea.checks`` by name, and its probes price public
calls with fixed argument shapes; a rename or a signature change in the
package would break the benchmark without failing any other test.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import harea.checks as checks  # noqa: E402
from harea import DomainSpec, balanced_steps, boundary_faces, rasterize, sample_datum  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def test_checks_module_carries_every_name_the_verify_workload_wraps():
    names = ("solve",) + sum(workloads.CHECKS_CALLS.values(), ())
    assert [name for name in names if not callable(getattr(checks, name, None))] == []


def test_priced_public_calls_run_with_the_probe_shapes(monkeypatch):
    """Each call once, on a small disk grid, through the probe itself."""
    calls = []

    def once(fn):
        calls.append(fn())
        return 0.0

    monkeypatch.setattr(workloads, "per_call_us", once)
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    sigma, tau = balanced_steps(grid)
    priced = workloads.price_public_calls(grid, datum, sigma, tau)
    assert sorted(priced) == sorted(
        [
            "fields.gradient.us",
            "fields.divergence.us",
            "solver.prox_dual.us",
            "solver.prox_primal.us",
            "energy.penalized_energy.us",
        ]
    )
    assert len(calls) == 5 and all(result is not None for result in calls)


def test_a_verify_pass_makes_seven_solves_and_fails_no_check():
    """The nine verify checks share the h = 1/32 disk and lens solves: seven
    solves per pass.  A memo key that splits a shared solve again, or that
    shares one wrongly, moves the count or fails a check."""
    tally = workloads.Tally()
    api = workloads.Api(Tracer(False, "guard"), tally)
    verify = workloads.Verify()
    verify.run(api, verify.setup(api, 0))
    assert (tally.attempted, tally.failed) == (len(workloads.VERIFY_CHECKS), 0), tally.reasons
    assert len(tally.solves) == 7


def test_the_bsc_probe_prices_all_three_calls():
    priced = workloads.price_bsc()
    assert sorted(priced) == ["bsc.barriers.s", "bsc.boundary_samples.s", "bsc.minimal_Q.s"]
    assert all(np.isfinite(seconds) and seconds >= 0.0 for seconds in priced.values())
