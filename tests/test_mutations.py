"""Mutation audit: each defect below must fail at least one gated record.

Each mutant is monkeypatched into ``qtfa.stqolct`` and the parameter-set
records of the default corpus are run at n=16.  The records that caught
each mutant are printed (``pytest -s``).
"""

import pytest

from qtfa import stqolct
from qtfa.quaternion import qconj
from qtfa.verify import _CHECKS, RunConfig, default_config_dict, gated_failures, run_verification


def _conj_q_reconstruction(monkeypatch):
    # the factored reconstruction right-multiplies by conj(q), not q
    init = stqolct._Reconstruction.__init__

    def mutant(self, plan):
        init(self, plan)
        if self._factors is not None:
            q, a, b = self._factors
            self._factors = (qconj(q), a, b)

    monkeypatch.setattr(stqolct._Reconstruction, "__init__", mutant)


def _reconstruction_skips_the_last_row(monkeypatch):
    # the reconstruction takes the last u1 row as zero
    call = stqolct._Reconstruction.__call__

    def mutant(self, i1, buffers):
        if i1 == self._plan.u1.n - 1:
            buffers.block.fill(0.0)
        call(self, i1, buffers)

    monkeypatch.setattr(stqolct._Reconstruction, "__call__", mutant)


def _swapped_off_diagonal_planes(monkeypatch):
    # the window matrix takes W_mp for W_pm and W_pm for W_mp
    terms = stqolct._window_terms

    def mutant(plan):
        planes = {(out, inp): plane for out, inp, plane in terms(plan)}
        return [(out, inp, planes[inp, out]) for out, inp in planes]

    monkeypatch.setattr(stqolct, "_window_terms", mutant)


MUTANTS = {
    "conj-q-reconstruction": _conj_q_reconstruction,
    "reconstruction-skips-last-row": _reconstruction_skips_the_last_row,
    "swapped-off-diagonal-planes": _swapped_off_diagonal_planes,
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_a_gated_record(monkeypatch, mutant):
    MUTANTS[mutant](monkeypatch)
    config = RunConfig.from_dict({**default_config_dict(), "n": 16})
    failures = gated_failures(run_verification(config, only=_CHECKS["params"]))
    caught = sorted({r.name for r in failures})
    print(f"{mutant}: {len(failures)} gated failures in {caught}")
    assert failures
