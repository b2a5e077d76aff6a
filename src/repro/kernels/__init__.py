"""Numerical substrate: the algebraic operations of Equations (1)-(11).

Every kernel is a pure function over NumPy arrays with an explicit
backward counterpart.  B-Par tasks (:mod:`repro.core`) and the sequential
reference oracle (:mod:`repro.models.reference`) call the *same* functions,
which is what makes bitwise output equality between the two achievable.
"""

from repro.kernels.activations import dsigmoid, dtanh, sigmoid, tanh
from repro.kernels.lstm import LSTMCache, lstm_backward_step, lstm_forward_step
from repro.kernels.gru import GRUCache, gru_backward_step, gru_forward_step
from repro.kernels.merge import MERGE_MODES, merge_backward, merge_forward, merge_output_dim
from repro.kernels.dense import dense_backward, dense_forward
from repro.kernels.losses import mse_loss, softmax_cross_entropy
from repro.kernels.initializers import glorot_uniform, orthogonal, zeros

__all__ = [
    "sigmoid",
    "tanh",
    "dsigmoid",
    "dtanh",
    "LSTMCache",
    "lstm_forward_step",
    "lstm_backward_step",
    "GRUCache",
    "gru_forward_step",
    "gru_backward_step",
    "MERGE_MODES",
    "merge_forward",
    "merge_backward",
    "merge_output_dim",
    "dense_forward",
    "dense_backward",
    "softmax_cross_entropy",
    "mse_loss",
    "glorot_uniform",
    "orthogonal",
    "zeros",
]
