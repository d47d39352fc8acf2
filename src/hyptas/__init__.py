"""Hyperbolic-geometry-guided diffusion for temporal action segmentation.

Desk-scale library: Poincare-ball kernels, a reverse-mode tape with exact
gradients, a two-phase diffusion trainer with prototype anchors, a
deterministic skip-step sampler, a synthetic hierarchical-action generator,
and the standard segmentation metric suite.
"""

# numpy loads `numpy.random` lazily, on first use. Loading it with the package
# keeps that import out of any later call, such as one a signal handler
# interrupts and then re-enters.
import numpy.random  # noqa: F401

__version__ = "0.1.0"
