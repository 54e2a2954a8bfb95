"""Galois field arithmetic over GF(2^w).

This subpackage is the lowest substrate of the LH*RS reproduction: the
Reed-Solomon parity calculus of the paper is symbol-wise arithmetic over a
finite field GF(2^w).  The paper's implementation uses log/antilog tables;
we do the same, vectorized with numpy so whole record payloads are encoded
per call.

Public API
----------
``GF(width)``
    A field object for ``w`` in {4, 8, 16}; exposes scalar arithmetic
    (``add``/``mul``/``div``/``inv``/``pow``) and vectorized symbol
    arithmetic (``mul_symbols``/``scale_accumulate``).  Byte payloads
    convert to symbols at w in {8, 16} only; GF(2^4) is arithmetic alone.
``GFMatrix``
    Dense matrices over a ``GF``; multiplication, Gauss-Jordan inversion,
    Vandermonde and Cauchy constructions, MDS checks.

The 2D batch kernels (``GF.mul_matrix``, ``GF.gf_matmul``,
``GF.stack_payloads``) operate on whole
stacked-stripe matrices at once: one table gather + XOR per generator
*coefficient* instead of per record, which is where the bulk
encode/decode/recovery paths get their throughput.
"""

from repro.gf.field import GF
from repro.gf.matrix import GFMatrix
from repro.gf.tables import PRIMITIVE_POLYNOMIALS, build_mul_tables, build_tables

__all__ = [
    "GF",
    "GFMatrix",
    "PRIMITIVE_POLYNOMIALS",
    "build_mul_tables",
    "build_tables",
]
