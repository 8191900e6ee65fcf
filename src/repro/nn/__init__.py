"""Minimal NumPy deep-learning substrate (autograd, layers, Adam).

The paper builds the FVAE on TensorFlow; this package replaces that dependency
with a from-scratch reverse-mode autograd engine featuring the row-sparse
gradient path the paper's efficiency tricks require.
"""

from repro.nn import functional
from repro.nn.layers import MLP, Dropout, Linear, Module
from repro.nn.losses import gaussian_kl, gaussian_kl_to, mse, multinomial_nll
from repro.nn.optim import Adam
from repro.nn.tensor import (Parameter, Tensor, as_tensor, coalesce_rows,
                             inference_mode, is_grad_enabled, is_inference,
                             no_grad, stable_sigmoid)

__all__ = [
    "functional",
    "Tensor", "Parameter", "as_tensor", "no_grad", "is_grad_enabled",
    "inference_mode", "is_inference",
    "coalesce_rows", "stable_sigmoid",
    "Module", "Linear", "MLP", "Dropout",
    "Adam",
    "multinomial_nll", "gaussian_kl", "gaussian_kl_to", "mse",
]
