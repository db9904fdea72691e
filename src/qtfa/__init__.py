"""Quaternion time-frequency analysis on sampled 2D signals.

Two-sided quaternion Fourier transform, the six-parameter offset linear
canonical transform, its windowed (short-time) variant, and a numerical
verification suite for the associated energy identities and uncertainty
inequalities.
"""

from .errors import FormatError, ParameterError, ShapeError
from .fileio import load_field, load_signal, save_field, save_signal
from .grid import (Axis, GridSignal2D, chirp_signal, frequency_axis,
                   gaussian_signal, impulse_signal, inner_product, l2_norm,
                   pointwise_mul, translate_window)
from .qft import QftPlan, qft_forward, qft_inverse, qft_modulus
from .qolct import (OlctParams, QolctPlan, kernel_left, kernel_right,
                    qolct_forward, qolct_inverse)
from .quaternion import qconj, qmatmul, qmul, qnorm, quat, unit_exp
from .stqolct import (MoyalResult, StqolctField, StqolctPlan, coefficient_slice,
                      modified_signal, moyal_check, stqolct_energy,
                      stqolct_forward, stqolct_reconstruct)
from .uncertainty import (BeurlingIntegral, CellSet, EnergyMap, HardyFit,
                          InequalityResult, beurling_integral, donoho_stark_check,
                          epsilon_concentration, essential_support,
                          field_w_energy_map, hardy_decay_fit, log_up_check,
                          log_up_constant, pitt_check, pitt_constant,
                          signal_energy_map)
from .verify import RunConfig, default_config_dict, run_verification

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
