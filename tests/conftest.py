import numpy as np
import pytest

from hermite_tr.kernels import make_kernel


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


ALL_FAMILIES = ("gaussian", "quad_matern", "wendland2")


@pytest.fixture(params=ALL_FAMILIES)
def family(request):
    return request.param


def kernel_for(family, dim, shape=0.9):
    return make_kernel(family, shape, dim)
