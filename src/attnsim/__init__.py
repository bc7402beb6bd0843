"""Token selection in a one-layer attention model under label noise.

A numpy library for simulating the signal/noise sequence data model,
training the attention parameters with full-batch gradient descent, and
checking the dynamical laws that govern token selection: g-linear growth of
attention gaps, one-step update identities, softmax concentration brackets,
finite-scale good-run events, grokking, and SNR-based overfitting regimes.
"""
from .data import (ConfigError, DataConfig, Dataset, SignalBasis, a8_sigma,
                   generate_dataset, make_signals, snr)
from .model import ModelState, batch_outputs, init_params, make_head, softmax
from .multiclass import (MulticlassConfig, head_gradient_estimate,
                         make_class_signals)
from .rng import cell_seed, stream
from .theory import (CheckResult, GLinearityResult, GrokkingTimes, Regime,
                     TheoryReport, classify_regime, etf_gradient_check, g,
                     g_linearity, good_run_check, init_checks,
                     loss_derivative_balance, measure_grokking,
                     noisy_stage_windows, pre_saturation_window,
                     softmax_bound_check, softmax_bound_scan,
                     verify_update_identity)
from .train import (DivergenceError, TrainConfig, TrainResult, TrainTrace,
                    finite_diff_grad, grad_p, grad_w, loss_derivative, train)

__version__ = "0.1.0"
