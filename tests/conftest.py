"""Shared fixtures: small end-to-end scene runs reused across test modules.

The session-scoped directories hold a full simulate -> reconstruct ->
evaluate run of the default bearing-ball scene at reduced resolution so
individual tests can assert against files and in-memory results without
re-rendering.
"""

import numpy as np
import pytest

from poldefl import pipeline
from poldefl.manifest import bearing_ball_manifest


SMALL = 128


@pytest.fixture(scope="session")
def ball_sim_dir(tmp_path_factory):
    """Noiseless multi-shot bearing-ball simulation at reduced size."""
    out = tmp_path_factory.mktemp("ball_sim")
    doc = bearing_ball_manifest(size=SMALL)
    pipeline.simulate(doc, out)
    return out


@pytest.fixture(scope="session")
def ball_run(ball_sim_dir):
    """Reconstruction of the noiseless small scene (with baseline)."""
    return pipeline.reconstruct(ball_sim_dir, "multi", with_baseline=True)


@pytest.fixture(scope="session")
def ball_truth(ball_sim_dir):
    from poldefl.manifest import validate_manifest, load_manifest
    from poldefl.simulator import trace

    scene = validate_manifest(load_manifest(ball_sim_dir / "manifest.json"))
    return scene, trace(scene)


@pytest.fixture(scope="session")
def single_sim_dir(tmp_path_factory):
    """Noiseless single-shot (cross-sinusoid) scene, larger so the Fourier
    lobes are well separated."""
    out = tmp_path_factory.mktemp("ball_single")
    doc = bearing_ball_manifest(size=192, mode="single")
    pipeline.simulate(doc, out)
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
