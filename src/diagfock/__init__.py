"""Exact arithmetic for a four-parameter deformed Fock space: operators on
doubled level spaces, diagonal-partition combinatorics, moment and cumulant
formulas, orthogonal polynomial families, and a stationary-increment process
layer with convolution and reconstruction.

Importing the package loads none of its modules: a public name loads its
defining module on first access (PEP 562), so a program pays only for the
modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by defining module
_PUBLIC = {
    "_guards": ("ResourceLimitError",),
    "scalars": ("DeformationParams", "Poly", "parse_rational", "qt_number", "render_rational"),
    "partitions": (
        "DiagonalPartition", "SetPartition", "count_diagonal_pair_partitions", "diagonal_partitions",
    ),
    "fock": (
        "FockVector", "GaugePair", "VectorPair", "annihilation_apply", "check_commutation_tensor",
        "creation_apply", "creation_norm_squared", "deformed_inner", "gauge_adjoint_check", "gauge_apply",
        "positivity_check", "vacuum_expectation",
    ),
    "wick": (
        "QuadrabasicOp", "full_fock_oracle", "full_wick", "gaussian_fock_oracle", "gaussian_wick",
        "word_fock_oracle", "word_vacuum_formula",
    ),
    "orthopoly": (
        "JacobiData", "cauchy_transform", "jacobi_discrete_qhermite", "jacobi_hermite", "jacobi_poisson",
        "jacobi_qmp", "jacobi_sech", "moments_from_jacobi", "mp_density", "mp_moment_quad", "mp_normalization",
        "norm_squares_from_jacobi", "polys_from_jacobi", "quadrature_rule", "sech_density", "sech_moment_quad",
    ),
    "levy": (
        "GeneratorPair", "LevySpec", "brownian_pair", "convolve_pairs", "cumulant_functional",
        "cumulants_to_moments", "fock_levy_oracle", "gns_reconstruct", "hankel_psd_check", "levy_cumulant",
        "levy_moment", "levy_moment_s_poly", "moment_functional", "moments_to_cumulants", "moments_to_pair",
        "pair_to_moments", "poisson_pair", "product_functional", "stochastic_limit", "stochastic_measure",
    ),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
