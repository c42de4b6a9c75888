"""Anatomy-gated attention and probabilistic weighted pooling, desk scale.

A numpy-backed fp64 tensor core with reverse-mode differentiation, the
attention/pooling blocks, a semi-supervised segmentation loss suite, a toy
classification model with Grad-CAM and batched inference, and experiment
drivers for ablation and mask-corruption robustness studies.
"""

from .tensor import DivergenceError, NonFiniteError, Tensor, concat
from .gradcheck import grad_check

__all__ = ["Tensor", "NonFiniteError", "DivergenceError", "concat",
           "grad_check"]

__version__ = "0.1.0"
