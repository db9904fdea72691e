import numpy as np
import pytest
from hypothesis import strategies as st

from qtfa import Axis, GridSignal2D, OlctParams, stqolct


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_signal(ax1, ax2, seed):
    gen = np.random.default_rng(seed)
    return GridSignal2D(ax1, ax2, gen.standard_normal((ax1.n, ax2.n, 4)))


@pytest.fixture
def small_axes():
    return Axis.centered(16, 8.0), Axis.centered(16, 8.0)


@st.composite
def sextets(draw):
    # a, d free; c solves a*d - b*c = 1; b of either sign, down to small |b|
    b = draw(st.floats(0.05, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    a = draw(st.floats(-2.0, 2.0))
    d = draw(st.floats(-2.0, 2.0))
    p, q = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    return OlctParams(a, b, (a * d - 1.0) / b, d, p, q)


@st.composite
def rectangular_axes(draw):
    # n1 != n2, steps and offsets free: the twiddles see uncentered grids
    n1, n2 = draw(st.lists(st.sampled_from([4, 6, 8, 10, 12, 16]), min_size=2,
                           max_size=2, unique=True))
    return tuple(Axis(n, draw(st.floats(-4.0, 0.0)), draw(st.floats(0.1, 1.0)))
                 for n in (n1, n2))


@pytest.fixture
def row_pools(monkeypatch):
    """The thread pools the ST-QOLCT row passes start, in order."""
    started = []

    class Counted(stqolct.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(stqolct, "ThreadPoolExecutor", Counted)
    return started
