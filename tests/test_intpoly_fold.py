"""The IntPoly oracle runs with every packed kernel of `hecke` disabled."""

import pytest

import intpoly_fold
from grhecke import center, hecke
from grhecke.hecke import jucys_murphy, unit
from grhecke.polyring import IntPoly

KERNELS = ["_step", "_step_add", "_fold_right", "_central_mul", "linear_combination", "_pack"]


def test_oracle_uses_no_packed_kernel(monkeypatch):
    n = 4
    gamma = list(center.gamma_basis(n, 4).gamma.values())
    elements = gamma + [jucys_murphy(n, n)]  # L_n is not central
    summands = [(IntPoly((k, -1)), h) for k, h in enumerate(elements)]

    def run():
        return (
            [intpoly_fold.mul(a, b) for a in elements for b in elements],
            [intpoly_fold.is_central(h) for h in elements],
            intpoly_fold.linear_combination(n, summands),
        )

    before = run()
    assert before[1] == [True] * len(gamma) + [False]

    def disabled(*args):
        raise AssertionError("a packed kernel was called")

    for name in KERNELS:
        monkeypatch.setattr(hecke, name, disabled)
    # the patch reaches the production paths
    with pytest.raises(AssertionError):
        hecke.mul(elements[-1], elements[-1])
    with pytest.raises(AssertionError):
        unit(n).right_gen(1)
    assert run() == before
