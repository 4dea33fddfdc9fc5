"""Spatial moment pooling: windowed means and central moments with gradients."""

from .grad import GradCheckReport, finite_diff_check, gradient_magnitude_profile
from .normalize import (
    BatchNormState,
    batch_norm,
    layer_norm,
    max_norm,
    norm_backward,
)
from .rng import Xoshiro256pp
from .smp import (
    MomentSpec,
    OpCostReport,
    op_cost,
    output_shape,
    sap_forward,
    smp_backward,
    smp_forward,
)
from .synth import checkerboard, make_pattern, ramp, solid, uniform_noise
from .tensor import (
    Tensor,
    TensorFileError,
    has_nonfinite,
    tensor_read,
    tensor_write,
)
from .toytrain import ToyTrainConfig, ToyTrainReport, run_toytrain
from .windows import GeometryError, PoolSpec, output_dims

__all__ = [
    "BatchNormState",
    "GeometryError",
    "GradCheckReport",
    "MomentSpec",
    "OpCostReport",
    "PoolSpec",
    "Tensor",
    "TensorFileError",
    "ToyTrainConfig",
    "ToyTrainReport",
    "Xoshiro256pp",
    "batch_norm",
    "checkerboard",
    "finite_diff_check",
    "gradient_magnitude_profile",
    "has_nonfinite",
    "layer_norm",
    "make_pattern",
    "max_norm",
    "norm_backward",
    "op_cost",
    "output_dims",
    "output_shape",
    "ramp",
    "run_toytrain",
    "sap_forward",
    "smp_backward",
    "smp_forward",
    "solid",
    "tensor_read",
    "tensor_write",
    "uniform_noise",
]

__version__ = "0.1.0"
