"""Shared experiment runs for the experiment tests."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="session")
def fig9_serial():
    """One serial FIG9 run (its three cluster schemes take most of a
    tier-1 suite's experiment time), shared by the paper-shape check and
    the golden-row check."""
    return run_experiment("FIG9")
