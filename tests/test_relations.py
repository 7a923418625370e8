"""Metamorphic relations: changes of a complex that no verdict may see.

verify_fracture depends on a complex only up to quasi-isomorphism and
basis, so adding a contractible summand cone(id_W) or changing the basis
of every degree by a unimodular matrix must leave its whole report
equal. Each relation compares two runs, so it needs no known answer.
"""

import random

import pytest

from genutil import random_complex, unimodular_base_change
from fracturecube.fracture import LocalizationFamily, verify_fracture
from fracturecube.holim import cone
from fracturecube.sorted_complex import ComplexMap, direct_sum

FAM = LocalizationFamily((2, 3))
SEEDS = range(30)


def _input(seed):
    rng = random.Random(seed)
    return rng, random_complex(rng, deg_hi=3, max_rank=4, pieces=6)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_contractible_summand_changes_no_report(seed):
    rng, x = _input(seed)
    w = random_complex(rng, deg_hi=3, max_rank=3)
    assert verify_fracture(direct_sum(x, cone(ComplexMap.identity(w))), FAM) == \
        verify_fracture(x, FAM)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_unimodular_base_change_changes_no_report(seed):
    rng, x = _input(seed)
    assert verify_fracture(unimodular_base_change(x, rng), FAM) == verify_fracture(x, FAM)


def test_the_base_changes_change_the_differentials():
    # a relation whose change is the identity would show nothing
    changed = 0
    for seed in SEEDS:
        rng, x = _input(seed)
        changed += unimodular_base_change(x, rng) != x
    assert changed >= len(SEEDS) // 2
