"""Run the usage examples embedded in the docstrings."""

import doctest

import pytest

import hecke_bz.affine.elements
import hecke_bz.affine.modules
import hecke_bz.bridge
import hecke_bz.combinatorics
import hecke_bz.finite_hecke
import hecke_bz.graded
import hecke_bz.module_core
import hecke_bz.scalars
import hecke_bz.symgroup

MODULES = [
    hecke_bz.scalars,
    hecke_bz.combinatorics,
    hecke_bz.symgroup,
    hecke_bz.finite_hecke,
    hecke_bz.module_core,
    hecke_bz.affine.elements,
    hecke_bz.affine.modules,
    hecke_bz.graded,
    hecke_bz.bridge,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
