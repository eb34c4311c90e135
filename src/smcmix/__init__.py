"""Sequential Monte Carlo for multimodal mixture targets.

Subpackages
-----------
core       shared domain types (mixtures, levels and ladders, ensembles, chains)
gaussians  Gaussian components and their closed-form pieces
sequences  ladder builders (power tempering, Gaussian convolution), constants,
           level densities and the level-1 sampler
kernels    Langevin / Metropolis kernels, Glauber / Metropolis chains, chain jumps
smc        the sampler and its kernel dispatch, estimators, replicate harness
bounds     closed-form constants and N / t prescriptions
oracle     exact finite-state verification of the underlying inequalities
cli        config-driven command line (run / bounds / verify / sweep)

``oracle`` and ``cli`` are imported on first attribute access, so
``import smcmix`` loads neither; numpy is the only third-party module
either loads.
"""

import importlib

from . import bounds, core, gaussians, kernels, sequences, smc
from .core import FiniteChain, Ladder, Level, ParticleEnsemble, TargetMixture
from .gaussians import GaussianComponent
from .kernels import KernelSpec
from .smc import SmcConfig, SmcRunResult, run_smc

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "cli",
    "core",
    "gaussians",
    "kernels",
    "oracle",
    "sequences",
    "smc",
    "FiniteChain",
    "GaussianComponent",
    "KernelSpec",
    "Ladder",
    "Level",
    "ParticleEnsemble",
    "SmcConfig",
    "SmcRunResult",
    "TargetMixture",
    "run_smc",
]

_LAZY = ("cli", "oracle")


def __getattr__(name):
    # import_module, not ``from . import``: the latter asks this function for
    # the name again before it imports the submodule
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
