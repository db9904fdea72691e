"""Each input rule has one home, and every caller of it raises the same error.

* The grid match, ``grid._check_axes``: a signal off the grid it must
  share raises ShapeError (exit 3), and the message names both grids.
* The stride-1 rule, ``stqolct._check_stride1``: a check that integrates
  over every translation rejects a strided plan with ParameterError.
* The transform choices, ``qft._check_choice`` over ``qft._MODES`` and
  ``stqolct._ROUTES``: an unknown mode or route raises ParameterError, and
  the command line's ``choices`` are the same tuples.
"""

import argparse

import pytest

from conftest import random_signal
from qtfa import (Axis, QftPlan, QolctPlan, StqolctPlan, cli, donoho_stark_check,
                  gaussian_signal, inner_product, log_up_check, modified_signal, pitt_check,
                  pointwise_mul, qft, qft_forward, qft_inverse, qolct_forward, qolct_inverse,
                  stqolct, stqolct_forward, stqolct_reconstruct)
from qtfa.errors import ParameterError, ShapeError
from qtfa.qolct import OlctParams

MIXED = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)


@pytest.fixture
def inputs(small_axes):
    ax1, ax2 = small_axes
    other = Axis.centered(16, 2.0)
    return {
        "f": random_signal(ax1, ax2, seed=1),
        "off": random_signal(other, other, seed=2),
        "qft": QftPlan.for_axes(ax1, ax2),
        "qolct": QolctPlan.for_axes(MIXED, MIXED, ax1, ax2),
        "plan": StqolctPlan.create(MIXED, MIXED, ax1, ax2, gaussian_signal(ax1, ax2, 2.0)),
        "strided": StqolctPlan.create(MIXED, MIXED, ax1, ax2, gaussian_signal(ax1, ax2, 2.0),
                                      stride=4),
    }


GRID_CALLERS = {
    "qft_forward": lambda d: qft_forward(d["off"], d["qft"]),
    "qft_inverse": lambda d: qft_inverse(d["off"], d["qft"]),
    "qolct_forward": lambda d: qolct_forward(d["off"], d["qolct"]),
    "qolct_inverse": lambda d: qolct_inverse(d["off"], d["qolct"]),
    **{f"stqolct_forward-{route}": (lambda d, route=route:
                                    stqolct_forward(d["off"], d["plan"], route))
       for route in stqolct._ROUTES},
    "row-engine": lambda d: stqolct._stream(d["off"], d["plan"]),
    "StqolctPlan.create": lambda d: StqolctPlan.create(MIXED, MIXED, d["f"].ax1, d["f"].ax2,
                                                       d["off"]),
    "modified_signal": lambda d: modified_signal(d["f"], d["off"], (0.0, 0.0)),
    "inner_product": lambda d: inner_product(d["f"], d["off"]),
    "pointwise_mul": lambda d: pointwise_mul(d["f"], d["off"]),
}


@pytest.mark.parametrize("caller", sorted(GRID_CALLERS))
def test_a_signal_off_the_grid_is_a_shape_error_naming_both_grids(inputs, caller):
    with pytest.raises(ShapeError) as exc:
        GRID_CALLERS[caller](inputs)
    got, expected = str(exc.value).split(" against ")
    assert got.endswith(f"{inputs['off'].ax1}, {inputs['off'].ax2}")
    assert expected.startswith("Axis(n=16") and "step=0.25" not in expected


# stqolct_reconstruct's own test is test_stqolct.py's test_requires_stride1
STRIDE_CALLERS = {
    "donoho_stark_check": lambda d: donoho_stark_check(d["f"], d["strided"], 0.1, 0.1),
    "pitt_check": lambda d: pitt_check(d["f"], d["strided"], 0.5),
    "log_up_check": lambda d: log_up_check(d["f"], d["strided"]),
}


@pytest.mark.parametrize("caller", sorted(STRIDE_CALLERS))
def test_a_strided_plan_is_rejected_by_every_check_over_all_translations(inputs, caller):
    with pytest.raises(ParameterError, match="stride-1 plan, got stride 4"):
        STRIDE_CALLERS[caller](inputs)


CHOICE_CALLERS = {
    "qft_forward": lambda d, v: qft_forward(d["f"], d["qft"], mode=v),
    "qft_inverse": lambda d, v: qft_inverse(d["f"], d["qft"], mode=v),
    "qolct_forward": lambda d, v: qolct_forward(d["f"], d["qolct"], mode=v),
    "qolct_inverse": lambda d, v: qolct_inverse(d["f"], d["qolct"], mode=v),
    "stqolct_reconstruct": lambda d, v: stqolct_reconstruct(
        stqolct_forward(d["f"], d["plan"]), mode=v),
    "stqolct_forward": lambda d, v: stqolct_forward(d["f"], d["plan"], route=v),
}


@pytest.mark.parametrize("caller", sorted(CHOICE_CALLERS))
@pytest.mark.parametrize("value", ["magic", "Fast", None])
def test_an_unknown_mode_or_route_is_a_parameter_error(inputs, caller, value):
    with pytest.raises(ParameterError, match="must be one of"):
        CHOICE_CALLERS[caller](inputs, value)


def test_the_command_line_offers_the_library_choices():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: a.choices for a in subparsers.choices["transform"]._actions}
    assert choices["mode"] is qft._MODES
    assert choices["route"] is stqolct._ROUTES
