"""porolab: neural-operator surrogates for two-phase porous-media flow.

The package bundles a from-scratch reverse-mode autodiff core, spectral
transforms, a Gaussian-random-field permeability sampler, an incompressible
two-phase IMPES reference simulator, FNO and MgNO operator architectures,
and the training/evaluation harness that compares them.
"""

from .tensor import Tensor, Parameter, Tape
from .grf import GrfSpec, kl_eigenvalues, sample_grf, to_permeability
from .simulator import ReservoirConfig, TimeSeriesSample, run_simulation

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Parameter", "Tape",
    "GrfSpec", "kl_eigenvalues", "sample_grf", "to_permeability",
    "ReservoirConfig", "TimeSeriesSample", "run_simulation",
    "__version__",
]
