"""Affine Hecke algebra: Bernstein-presentation elements and
finite-dimensional modules."""

from .elements import (
    AffineElement,
    multiply,
    oracle_apply,
    parse_affine,
    render_affine,
)

__all__ = [
    "AffineElement",
    "multiply",
    "oracle_apply",
    "parse_affine",
    "render_affine",
]
