"""Financial substrate: contracts, lattices, pricers, implied vol.

Public surface of the pricing mathematics the accelerator implements.
The simulated OpenCL kernels (``repro.core``) compute exactly what
:func:`price_binomial` computes; this package is both the reference
software of the paper's Table II and the oracle the kernels are
validated against.
"""

from .american import baw_price
from .binomial import (
    PricingResult,
    exercise_boundary,
    price_binomial,
    price_binomial_scalar,
)
from .black_scholes import BSGreeks, bs_greeks, bs_price
from .convergence import (
    ConvergencePoint,
    convergence_study,
    estimate_convergence_order,
    richardson_extrapolation,
)
from .greeks import LatticeGreeks, lattice_greeks
from .implied_vol import (
    VolCurvePoint,
    implied_vol_bisection,
    implied_vol_brent,
    implied_vol_curve,
    implied_vol_newton,
    implied_volatility,
)
from .lattice import (
    LatticeArrays,
    LatticeFamily,
    LatticeParams,
    asset_prices_at_step,
    build_lattice_arrays,
    build_lattice_params,
)
from .montecarlo import MCResult, price_american_lsmc, price_european_mc
from .quadrature import price_quadrature
from .market import (
    PAPER_BATCH_SIZE,
    PAPER_STEPS,
    OptionBatch,
    VolatilityCurveScenario,
    VolatilitySurfaceScenario,
    WorkloadSpec,
    generate_batch,
    generate_curve_scenario,
    generate_surface_scenario,
)
from .options import (
    ExerciseStyle,
    Option,
    OptionArrays,
    OptionType,
    intrinsic_value,
    option_arrays,
    payoff,
)
from .validation import classify_rmse, max_abs_error, relative_rmse, rmse

__all__ = [
    "Option",
    "OptionType",
    "ExerciseStyle",
    "intrinsic_value",
    "payoff",
    "OptionArrays",
    "option_arrays",
    "LatticeFamily",
    "LatticeParams",
    "LatticeArrays",
    "build_lattice_params",
    "build_lattice_arrays",
    "asset_prices_at_step",
    "PricingResult",
    "price_binomial",
    "price_binomial_scalar",
    "exercise_boundary",
    "bs_price",
    "bs_greeks",
    "BSGreeks",
    "ConvergencePoint",
    "convergence_study",
    "richardson_extrapolation",
    "estimate_convergence_order",
    "baw_price",
    "MCResult",
    "price_european_mc",
    "price_american_lsmc",
    "price_quadrature",
    "LatticeGreeks",
    "lattice_greeks",
    "implied_volatility",
    "implied_vol_bisection",
    "implied_vol_brent",
    "implied_vol_newton",
    "implied_vol_curve",
    "VolCurvePoint",
    "WorkloadSpec",
    "OptionBatch",
    "generate_batch",
    "VolatilityCurveScenario",
    "generate_curve_scenario",
    "VolatilitySurfaceScenario",
    "generate_surface_scenario",
    "PAPER_BATCH_SIZE",
    "PAPER_STEPS",
    "rmse",
    "relative_rmse",
    "max_abs_error",
    "classify_rmse",
]
