"""Radial kernels with the derivatives needed for gradient-enhanced interpolation.

Every kernel here is strictly positive definite and translation invariant,
k(x, y) = phi(||x - y||), so all derivative blocks reduce to two radial
profiles:

    grad1 k(x, y)        = g1(r) * (x - y)
    [d1_l d2_m k](x, y)  = -g1(r) * I - g2(r) * (x - y)(x - y)^T

with g1 = phi'(r)/r and g2 = (phi''(r) - phi'(r)/r)/r^2.  For the three
supported families both profiles have singularity-free closed forms (the
apparent 0/0 at r = 0 cancels algebraically), so no limit branches are
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import require_finite

GAUSSIAN = "gaussian"
QUAD_MATERN = "quad_matern"
WENDLAND2 = "wendland2"
FAMILIES = (GAUSSIAN, QUAD_MATERN, WENDLAND2)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family with shape parameter and ambient dimension.

    Immutable; all evaluation helpers are pure functions, so instances are
    safe to share across threads.  The profiles at r = 0, where each peaks,
    are computed once: a shape that makes one of them overflow is refused,
    and the two diagonal constants are read from them.
    """

    family: str
    shape: float
    dim: int

    def __post_init__(self):
        require_finite(self, ValueError)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        if not self.shape > 0:
            raise ValueError(f"shape parameter must be positive, got {self.shape}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        try:
            finite = all(map(math.isfinite, self._at_zero))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"shape parameter {self.shape} overflows the {self.family} "
                             "kernel's profiles")

    @property
    def wendland_l(self) -> int:
        """Smoothness index, fixed by the ambient dimension."""
        return self.dim // 2 + 3

    @cached_property
    def _at_zero(self) -> tuple:
        return radial_profiles(self, 0.0)

    @cached_property
    def diag_value(self) -> float:
        """k(x, x) = phi(0), constant for radial kernels."""
        return float(self._at_zero[0])

    @cached_property
    def cross_diag(self) -> float:
        """[d1_l d2_l k](x, x) = -g1(0), the same for every direction l."""
        return -float(self._at_zero[1])


def make_kernel(family: str, shape: float, dim: int) -> KernelSpec:
    """Construct a KernelSpec from the config-level family name."""
    return KernelSpec(family=family, shape=float(shape), dim=int(dim))


def radial_profiles(kernel: KernelSpec, r):
    """Return (phi, g1, g2) evaluated elementwise at distances r >= 0."""
    r = np.asarray(r, dtype=float)
    eps = kernel.shape
    if kernel.family == GAUSSIAN:
        e = np.exp(-(eps**2) * r**2)
        return e, -2.0 * eps**2 * e, 4.0 * eps**4 * e
    if kernel.family == QUAD_MATERN:
        t = eps * r
        e = np.exp(-t)
        phi = (3.0 + 3.0 * t + t**2) * e
        g1 = -(eps**2) * (1.0 + t) * e
        g2 = eps**4 * e
        return phi, g1, g2
    # Wendland second order: compactly supported, zero for eps*r >= 1
    l = kernel.wendland_l
    c = (l + 1) * (l + 2) * (l + 3) * (l + 4)
    t = np.minimum(eps * r, 1.0)
    u = 1.0 - t
    phi = c * u ** (l + 2) * ((l + 1) * (l + 3) * t**2 + 3.0 * (l + 2) * t + 3.0)
    g1 = -c * eps**2 * (l + 3) * (l + 4) * (1.0 + (l + 1) * t) * u ** (l + 1)
    g2 = c**2 * eps**4 * u**l
    return phi, g1, g2

