"""Trust-region optimization with gradient-enhanced kernel surrogates.

The surrogate interpolates objective values and gradients with a radial
kernel; a computable interpolation error bound defines the trust region.
Every candidate step is evaluated on the objective (a known center
reuses its stored datum), and the bound certifies an acceptance unless
that evaluation refutes it.

The package has no top-level re-exports: import each name from its
module, e.g. ``from hermite_tr.harness import load_config, run_experiment``.
"""
