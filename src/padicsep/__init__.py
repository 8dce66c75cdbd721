"""Exact p-adic root separation and discriminant census toolkit.

Core pieces: exact p-adic valuations (padic), integer polynomials with
Sylvester-determinant discriminants and certified irreducibility (intpoly),
Z_p root finding and root-distance geometry (roots), the lattice-based
irreducible-polynomial generator with prescribed derivative sizes (lattice),
and exhaustive censuses with exponent fits (census).

`import padicsep` loads no submodule: each public name below, and each
submodule, is imported the first time it is read (PEP 562), so a command
pays only for the modules it runs.
"""

import importlib

_EXPORTS = {
    "padic": ("INF", "InvariantError", "PadicMag", "Prime", "is_prime", "ultrametric_max",
              "valuation", "vp", "vp_rat"),
    "intpoly": ("IntPoly", "IrreducibilityResult", "content_primitive", "discriminant",
                "eisenstein_check", "hadamard_bound", "is_irreducible", "resultant"),
    "roots": ("DistanceProfile", "HenselInapplicable", "NewtonPolygon", "PrecisionExhausted",
              "ZpRoot", "check_ordering_lemma", "difference_poly", "distance_profile",
              "hensel_lift", "min_conjugate_separation", "newton_polygon", "profile_at_zp_root",
              "zp_roots"),
    "lattice": ("DegenerateSample", "GammaLattice", "GeneratorOutput", "Normalization",
                "RoundingInfeasible", "ShortVectors", "XiParams", "build_gamma", "choose_q",
                "eisenstein_twist", "expand_preset", "generate", "normalization",
                "preset_theorem2", "preset_theorem3", "round_params", "short_vectors",
                "successive_minima"),
    "census": ("DiscCensus", "MeasureEstimate", "SepCensus", "disc_census", "disc_threshold",
               "fit_exponent", "measure_estimate", "poly_count", "sep_census"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("padic", "linalg", "intpoly", "roots", "lattice", "census")

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or the submodule defining a public name, on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
