"""Occupancy processes and finite spin systems.

Exact state-space kernels, a coupled Monte Carlo engine, deterministic
recursion/ODE approximations, independent-site surrogates, stochastic
ordering checks, and a discretisation bridge between the discrete- and
continuous-time model classes.
"""

from .model import (AssumptionReport, FunctionFamily, ModelError, ModelSpec,
                    SpinSpec, check_assumptions, load_model, model_from_dict,
                    model_to_dict, save_model)
from .exact import MultiSitePattern, TimePattern
from .lattice import CapacityError
from .meanfield import OdeConfig
from .bridge import DiscretisationConfig, InadmissibleDelta
from .order import OrderReport
from .streams import UniformArray

__all__ = [
    "AssumptionReport", "CapacityError", "DiscretisationConfig",
    "FunctionFamily", "InadmissibleDelta", "ModelError", "ModelSpec",
    "MultiSitePattern", "OdeConfig", "OrderReport", "SpinSpec",
    "TimePattern", "UniformArray", "check_assumptions", "load_model",
    "model_from_dict", "model_to_dict", "save_model",
]

__version__ = "0.1.0"
