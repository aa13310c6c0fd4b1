import warnings

import hypothesis
import numpy as np
import pytest

from scaopt.numerics import RngStream

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
# --hypothesis-profile=ci: the longer search that CI runs on the trajectory writer's tests
# and the protocol oracle
hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=1000, derandomize=True
)
hypothesis.settings.load_profile("default")

# Hypothesis reports a failing example through hypothesis.extra._patching, which
# it imports only then. That module imports libcst, whose mypy_extensions import
# warns that mypy_extensions.TypedDict is deprecated; under filterwarnings =
# error the warning ends the session with an INTERNALERROR that hides the
# example. Importing the module here, with that one warning ignored, keeps every
# other warning an error.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst Hypothesis writes no patch, and imports nothing
        pass


@pytest.fixture
def rng():
    return RngStream(0)


def sample_in_region(obj, stream, scale=None):
    """A random point inside the objective's declared validity region."""
    radius = obj.region_radius if np.isfinite(obj.region_radius) else 2.0
    if scale is not None:
        radius = min(radius, scale)
    if obj.region_norm == np.inf:
        return stream.uniform_vector(-radius, radius, obj.dim)
    from scaopt.numerics import sample_uniform_ball

    return sample_uniform_ball(obj.dim, radius, stream)


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / denom
