"""hopfgenus: exact-rational Hopf-algebra and genus-deformation calculus.

Subpackages:

- core: sparse graded polynomials, truncated multivariate and univariate
  power series, canonical text format
- symm: the Hopf algebra of symmetric functions (Chern/Newton/complete/
  monomial bases), d- and a-class generating functions, the coproduct
  and its primitives
- qsymm: quasisymmetric functions and the quasi-shuffle, Lyndon
  generators, free-algebra Hilbert series
- mzv: certified numerical multizeta values and the zeta specialization
- homology: bar-complex Tor over finite graded algebra presentations and
  the named coefficient-ring dimension tables
- genus: manifold models, Hirzebruch genera, Chern characters, the
  deformation torsor, the Gamma exponential and the coaction model
"""

from ._kernels import BACKEND as kernel_backend

__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
