"""tritrunc: a numerical laboratory for triangular truncation.

Schatten quasinorms, trigonometric polynomial kernels with L^p quadrature,
Hankel matrices and dyadic-decomposition quasinorms, Schur-multiplier
intervals with stated errors, and a batch experiment pipeline that reproduces
the associated power-law scaling at desk scale.
Import from the modules; each module's ``__all__`` is its public surface.
"""

__version__ = "0.1.0"
