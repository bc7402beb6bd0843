"""Token selection in a one-layer attention model under label noise.

A numpy library for simulating the signal/noise sequence data model,
training the attention parameters with full-batch gradient descent, and
checking the dynamical laws that govern token selection: g-linear growth of
attention gaps, one-step update identities, softmax concentration brackets,
finite-scale good-run events, grokking, and SNR-based overfitting regimes.
"""
from .data import (ConfigError, DataConfig, Dataset, Role, SignalBasis,
                   a8_sigma, generate_dataset, make_signals, snr)
from .model import (EvalResult, ForwardResult, ModelState, evaluate, forward,
                    init_params, make_head, predict, softmax)
from .multiclass import (MulticlassConfig, MulticlassDataset, MulticlassState,
                         generate_multiclass_dataset, grad_wv,
                         head_gradient_estimate, make_class_signals,
                         multiclass_loss_and_grads)
from .rng import cell_seed, stream
from .theory import (AttentionDiagnostics, CheckResult, GLinearityResult,
                     GrokkingTimes, InteractionTerms, Regime, TheoryReport,
                     check_assumptions, classify_regime, compute_diagnostics,
                     etf_gradient_check, g, g_linearity, good_run_check,
                     init_checks, loss_derivative_balance, measure_grokking,
                     noisy_stage_windows, pre_saturation_window,
                     softmax_bound_check, softmax_bound_scan,
                     verify_update_identity)
from .train import (DivergenceError, TrainConfig, TrainResult, TrainTrace,
                    empirical_loss, finite_diff_grad, gd_step, grad_p, grad_w,
                    loss_derivative, output_grads, train)

__version__ = "0.1.0"
