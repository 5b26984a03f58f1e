"""Trust-region optimization with gradient-enhanced kernel surrogates.

The surrogate interpolates objective values and gradients with a radial
kernel; a computable interpolation error bound defines the trust region,
so candidate steps can be accepted or rejected without touching the
expensive objective whenever the bound is decisive.

The package has no top-level re-exports: import each name from its
module, e.g. ``from hermite_tr.harness import load_config, run_experiment``.
"""
