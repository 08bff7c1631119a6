"""Shared experiment runs for the experiment tests."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="session")
def serial_result():
    """One plain serial run per experiment id, made on first use and
    shared by every test that only reads it: the paper-shape checks, the
    golden-row checks and the serial side of serial == pooled == cached.
    Tests that set an environment variable (metrics, the sanitizer) make
    their own fresh runs."""
    results = {}

    def get(experiment_id):
        key = experiment_id.upper()
        if key not in results:
            results[key] = run_experiment(key)
        return results[key]

    return get
