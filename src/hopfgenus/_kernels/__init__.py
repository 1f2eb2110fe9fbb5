"""The package's two hot kernels: sparse monomial convolution and exact integer rank."""

from .pure import BACKEND, monomial_degree, monomial_mul, mul_terms, rank_bareiss
