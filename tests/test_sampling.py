"""sampling: numpy's seeded uniform stream, computed without numpy.random."""

import math
from pathlib import Path

import numpy as np
import pytest

from hermite_tr.sampling import uniform
from test_lapack import last_json_line

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
# numpy.random's import chain: the OpenSSL hash module comes in through
# bit_generator -> secrets -> hmac
RNG_MODULES = ["numpy.random", "numpy.random.bit_generator", "_hashlib", "secrets", "hmac"]


def box(seed, dim):
    """A box of dim widths that moves with seed, inside and outside [0, 1]."""
    lower = np.linspace(-1.5, 0.5, dim) - seed % 7
    return lower, lower + np.linspace(0.3, 4.0, dim) * (1 + seed % 3)


def numpys(seed, lower, upper, n):
    return np.random.default_rng(seed).uniform(lower, upper, size=(n, len(lower)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bits_equal_numpys(dim):
    # seeds of one 32-bit word and of two, three and four, which
    # SeedSequence hashes into its pool of four in a second pass
    for seed in [*range(300), 2**32, 2**64 + 5, 10**30]:
        lower, upper = box(seed, dim)
        for n in (0, 1, 7):
            draws = uniform(seed, lower, upper, n)
            expected = numpys(seed, lower, upper, n)
            assert draws.dtype == np.float64 and draws.shape == (n, dim)
            assert draws.tobytes() == expected.tobytes(), (seed, n)


@pytest.mark.parametrize("name, lower, upper", [
    ("one_d", (-2.0,), (2.0,)),
    ("pde2d", (0.5, 0.5), (math.pi, math.pi)),
    ("degenerate", (0.25, -1.0), (0.25, 1.0)),
])
def test_bits_equal_numpys_on_problem_boxes(name, lower, upper):
    for seed in (0, 1, 5, 12):
        assert uniform(seed, lower, upper, 50).tobytes() == \
            numpys(seed, lower, upper, 50).tobytes()


def test_a_larger_n_extends_a_smaller_one():
    # sampled_fit's nested samples: enlarging the sample keeps its prefix
    lower, upper = box(3, 2)
    full = uniform(3, lower, upper, 40)
    for n in (0, 1, 2, 17, 39):
        assert uniform(3, lower, upper, n).tobytes() == full[:n].tobytes()


@pytest.mark.parametrize("lower, upper", [
    ((-1.0e308,), (1.0e308,)),
    ((0.0, -1.0e308), (1.0, 1.0e308)),
    ((0.0,), (math.inf,)),
    ((0.0,), (math.nan,)),
    ((1.0,), (0.0,)),
])
def test_a_width_that_is_not_finite_and_non_negative_is_refused(lower, upper):
    with pytest.raises(ValueError, match="widths"):
        uniform(0, lower, upper, 3)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed"):
        uniform(-1, (0.0,), (1.0,), 3)


@pytest.mark.parametrize("name", ["one_d", "rosenbrock"])
def test_a_bundled_run_leaves_numpy_random_unloaded(name, tmp_path):
    # rosenbrock estimates its norm, so it also draws through sampled_fit
    script = f"""
import json, sys
import hermite_tr.cli
code = hermite_tr.cli.main(["run", {str(CONFIG_DIR / f"{name}.yaml")!r}])
print(json.dumps([code, [m for m in {RNG_MODULES!r} if m in sys.modules]]))
"""
    assert last_json_line(script, tmp_path) == [0, []]
