"""The package's two hot kernels: sparse monomial convolution and exact integer
rank by sparse elimination over Z."""

from .pure import BACKEND, monomial_degree, mul_terms, rank_bareiss
