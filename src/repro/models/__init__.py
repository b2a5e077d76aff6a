"""BRNN model layer: specs, parameters, and the sequential reference oracle."""

from repro.models.spec import BRNNSpec
from repro.models.params import BRNNParams, HeadParams, LayerParams
from repro.models.reference import (
    reference_forward,
    reference_backward,
    reference_loss_and_grads,
    reference_train_step,
)

__all__ = [
    "BRNNSpec",
    "BRNNParams",
    "LayerParams",
    "HeadParams",
    "reference_forward",
    "reference_backward",
    "reference_loss_and_grads",
    "reference_train_step",
]
