"""Mutation audit: each defect below must fail at least one gated record.

Each mutant is monkeypatched into the package and the records of every
per-parameter-set task of the default corpus, and of the ``special-fn``
task, are run at n=16.  The records that caught each mutant are printed
(``pytest -s``).  Only ``energy-exact`` catches the two ``_FieldSums``
mutants: the corpus Gaussian of the field records has no energy in the
last row and its sums pass their 1e-3 gates in float32.

Audited gated records that no mutant below catches: ``pitt-constant-zero``
(each Pitt formula mutant keeps C(0) = 4 pi^2), ``donoho-stark``,
``log-up`` and ``donoho-stark-support``.  ROADMAP item 1 lists the
audit's blind spots, and item 13 the marginal mutants that the three
marginal principles cannot see today.
"""

import math

import numpy as np
import pytest

from qtfa import qft, qolct, stqolct, uncertainty, verify
from qtfa.quaternion import qconj
from qtfa.verify import (_CHECKS, RunConfig, default_config_dict, gated_failures,
                         run_verification)


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
            buffers.chans.fill(0.0)
        call(self, i1, buffers)

    monkeypatch.setattr(stqolct._Reconstruction, "__call__", mutant)


def _swapped_off_diagonal_planes(monkeypatch):
    # the window matrix takes W_mp for W_pm and W_pm for W_mp (a plain
    # property: a cached_property set on a built class has no name to cache by)
    terms = stqolct.StqolctPlan._terms.func

    def mutant(plan):
        planes = {(out, inp): plane for out, inp, plane in terms(plan)}
        return [(out, inp, planes[inp, out]) for out, inp in planes]

    monkeypatch.setattr(stqolct.StqolctPlan, "_terms", property(mutant))


def _doubled_join(monkeypatch):
    # the channel join drops its 1/2: every output comes out doubled
    join = qft._join_channels

    def mutant(p, m, out=None):
        out = join(p, m, out)
        out *= 2.0
        return out

    # stqolct holds its own reference to the join
    monkeypatch.setattr(qft, "_join_channels", mutant)
    monkeypatch.setattr(stqolct, "_join_channels", mutant)


def _flipped_chirp_offset(monkeypatch):
    # the fast engine's input chirp takes -p for p
    monkeypatch.setattr(qolct, "_chirp_angle",
                        lambda params, x: (params.a * x * x / 2.0 - x * params.p) / params.b)


def _factored_engine_folds_q(monkeypatch):
    # the factored engine folds q into the signal instead of conj(q)
    engine = stqolct._factored_engine
    monkeypatch.setattr(stqolct, "_factored_engine",
                        lambda f, plan, q, a, b: engine(f, plan, qconj(q), a, b))


def _translations_off_by_one(monkeypatch):
    # every translated 1-D window profile is shifted by one more sample
    translations = stqolct._translations

    def mutant(plan, values, axes):
        exact = translations(plan, values, axes)
        if values.ndim != 1:
            return exact
        shifted = np.zeros_like(exact)
        shifted[1:] = exact[:-1]
        return shifted

    monkeypatch.setattr(stqolct, "_translations", mutant)


def _scaled_rows(monkeypatch):
    # the row engine's output is scaled by 1 + 1e-6
    engine = stqolct._engine

    def mutant(f, plan):
        row = engine(f, plan)

        def scaled(i1, buffers):
            row(i1, buffers)
            buffers.chans *= 1.0 + 1e-6

        return scaled

    monkeypatch.setattr(stqolct, "_engine", mutant)


def _translation_rows_shifted(monkeypatch):
    # the two-axis engine's window planes are shifted one sample along x1
    translations = stqolct._translations

    def mutant(plan, values, axes):
        exact = translations(plan, values, axes)
        if len(axes) != 2:
            return exact
        shifted = np.zeros_like(exact)
        shifted[:, 1:] = exact[:, :-1]
        return shifted

    monkeypatch.setattr(stqolct, "_translations", mutant)


def _cover_skips_a_translation(monkeypatch):
    # the window cover sums one translation fewer along x1: it translates
    # the identity, the one 2-D array translated along one axis
    translations = stqolct._translations

    def mutant(plan, values, axes):
        exact = translations(plan, values, axes)
        return exact[..., 1:] if values.ndim == 2 and axes == (0,) else exact

    monkeypatch.setattr(stqolct, "_translations", mutant)


def _m_channel_unconjugated(monkeypatch):
    # the m channel takes the right (j-complex) profiles unconjugated
    profiles = qolct._profiles

    def mutant(src, dst, signs, heads, tails):
        p, _ = profiles(src, dst, signs, heads, tails)
        _, m = profiles(src, dst, signs, (heads[0], np.conj(heads[1])),
                        (tails[0], np.conj(tails[1])))
        return p, m

    monkeypatch.setattr(qolct, "_profiles", mutant)


def _inverse_without_b_weight(monkeypatch):
    # the inverse profiles lose the |b1 b2| weight of the dw sums
    profiles = qolct._channel_profiles

    def mutant(plan, inverse=False):
        channels = profiles(plan, inverse)
        if not inverse:
            return channels
        weight = abs(plan.params1.b * plan.params2.b)
        return tuple(ch._replace(tail1=ch.tail1 / weight) for ch in channels)

    monkeypatch.setattr(qolct, "_channel_profiles", mutant)


def _forward_skips_a_row_onto_a_stale_spare(monkeypatch):
    # stqolct_forward leaves its middle w2 slab unwritten, and every
    # discarded field is kept as a spare (the 16-point Moyal and corollary
    # fields are far below 32 MiB), so a reused array holds that slab from
    # an earlier field, at times the same field of another Moyal record's
    # call: a stale spare must not pass for the missing slab.  Every
    # window of the corpus's dense fields factors, so each of them is
    # built by a slab pass, and only stqolct_forward runs one.
    pass_ = stqolct._pass

    def mutant(shape, row, *reducers, slabs=False):
        def skipping(reducer):
            def reduce(k, buffers):
                if not slabs or k != shape[2] // 2:
                    reducer(k, buffers)
            return reduce

        pass_(shape, row, *map(skipping, reducers), slabs=slabs)

    monkeypatch.setattr(stqolct, "_pass", mutant)
    monkeypatch.setattr(stqolct, "_SPARE_BYTES", 0)


def _slab_pass_drops_the_last_slab(monkeypatch):
    # the slab pass writes its last w2 slab as zero
    pass_ = stqolct._pass

    def mutant(shape, row, *reducers, slabs=False):
        def dropping(k, buffers):
            row(k, buffers)
            if slabs and k == shape[2] - 1:
                buffers.chans.fill(0.0)

        pass_(shape, dropping, *reducers, slabs=slabs)

    monkeypatch.setattr(stqolct, "_pass", mutant)


def _field_sums_in_float32(monkeypatch):
    # the streamed field sums square float32-rounded coefficients; the
    # row's channels are restored for the reducers after them
    call = stqolct._FieldSums.__call__

    def mutant(self, i1, buffers):
        exact = buffers.chans.copy()
        buffers.chans[...] = exact.astype(np.complex64)
        call(self, i1, buffers)
        buffers.chans[...] = exact

    monkeypatch.setattr(stqolct._FieldSums, "__call__", mutant)


def _field_sums_drop_the_last_row(monkeypatch):
    # the streamed field sums zero the slots of the last u1 row: its
    # marginal slot, its u_energy row and its peak
    call = stqolct._FieldSums.__call__

    def mutant(self, i1, buffers):
        call(self, i1, buffers)
        if i1 == len(self.u_energy) - 1:
            self._marginals[i1] = 0.0
            self.u_energy[i1] = 0.0
            self._peaks[i1] = 0.0

    monkeypatch.setattr(stqolct._FieldSums, "__call__", mutant)


def _transposed_moyal_gram(monkeypatch):
    # the Moyal Gram sums pair the fields the other way round
    conj_product_sum = stqolct._conj_product_sum
    monkeypatch.setattr(stqolct, "_conj_product_sum", lambda gram: conj_product_sum(gram.T))


def _pitt_formula(formula):
    # pitt_constant computed by a mistaken formula; each of these keeps
    # C(0) = 4 pi^2, so pitt-constant-zero cannot see it
    def patch(monkeypatch):
        def mutant(alpha, constant=uncertainty.pitt_constant):
            constant(alpha)  # the domain check
            return formula(alpha, math.gamma)

        # verify holds its own reference
        monkeypatch.setattr(uncertainty, "pitt_constant", mutant)
        monkeypatch.setattr(verify, "pitt_constant", mutant)

    return patch


PITT_MUTANTS = {
    "pitt-ratio-not-squared": lambda a, g: 4 * math.pi**2 / 2**a * g((2 - a) / 4) / g((2 + a) / 4),
    "pitt-two-to-two-alpha": lambda a, g: (4 * math.pi**2 / 4**a
                                           * (g((2 - a) / 4) / g((2 + a) / 4)) ** 2),
    "pitt-gamma-of-halves": lambda a, g: (4 * math.pi**2 / 2**a
                                          * (g((2 - a) / 2) / g((2 + a) / 2)) ** 2),
    "pitt-no-two-to-alpha": lambda a, g: 4 * math.pi**2 * (g((2 - a) / 4) / g((2 + a) / 4)) ** 2,
    "pitt-ratio-inverted": lambda a, g: (4 * math.pi**2 / 2**a
                                         * (g((2 + a) / 4) / g((2 - a) / 4)) ** 2),
}


MUTANTS = {
    "conj-q-reconstruction": _conj_q_reconstruction,
    "reconstruction-skips-last-row": _reconstruction_skips_the_last_row,
    "swapped-off-diagonal-planes": _swapped_off_diagonal_planes,
    "doubled-join": _doubled_join,
    "flipped-chirp-offset": _flipped_chirp_offset,
    "factored-engine-folds-q": _factored_engine_folds_q,
    "translations-off-by-one": _translations_off_by_one,
    "scaled-rows": _scaled_rows,
    "translation-rows-shifted": _translation_rows_shifted,
    "cover-skips-a-translation": _cover_skips_a_translation,
    "m-channel-unconjugated": _m_channel_unconjugated,
    "inverse-without-b-weight": _inverse_without_b_weight,
    "transposed-moyal-gram": _transposed_moyal_gram,
    "forward-skips-a-row-onto-a-stale-spare": _forward_skips_a_row_onto_a_stale_spare,
    "slab-pass-drops-the-last-slab": _slab_pass_drops_the_last_slab,
    "field-sums-in-float32": _field_sums_in_float32,
    "field-sums-drop-the-last-row": _field_sums_drop_the_last_row,
    **{name: _pitt_formula(formula) for name, formula in PITT_MUTANTS.items()},
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_a_gated_record(monkeypatch, mutant):
    MUTANTS[mutant](monkeypatch)
    config = RunConfig.from_dict({**default_config_dict(), "n": 16})
    only = [name for key, (_, per_set, names) in _CHECKS.items()
            if per_set or key == "special-fn" for name in names]
    failures = gated_failures(run_verification(config, only=only))
    caught = sorted({r.name for r in failures})
    print(f"{mutant}: {len(failures)} gated failures in {caught}")
    assert failures
