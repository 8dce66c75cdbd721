"""Exact p-adic root separation and discriminant census toolkit.

Core pieces: exact p-adic valuations (padic), integer polynomials with
Sylvester-determinant discriminants and certified irreducibility (intpoly),
Z_p root finding and root-distance geometry (roots), the lattice-based
irreducible-polynomial generator with prescribed derivative sizes (lattice),
and exhaustive censuses with exponent fits (census).
"""

from .padic import (INF, InvariantError, PadicMag, Prime, is_prime, ultrametric_max, valuation, vp,
                    vp_rat)
from .intpoly import (
    IntPoly,
    IrreducibilityResult,
    content_primitive,
    discriminant,
    eisenstein_check,
    hadamard_bound,
    is_irreducible,
    resultant,
)
from .roots import (
    DistanceProfile,
    HenselInapplicable,
    NewtonPolygon,
    PrecisionExhausted,
    ZpRoot,
    check_ordering_lemma,
    difference_poly,
    distance_profile,
    hensel_lift,
    min_conjugate_separation,
    newton_polygon,
    profile_at_zp_root,
    zp_roots,
)
from .lattice import (
    DegenerateSample,
    GammaLattice,
    GeneratorOutput,
    Normalization,
    RoundingInfeasible,
    ShortVectors,
    XiParams,
    build_gamma,
    choose_q,
    eisenstein_twist,
    expand_preset,
    generate,
    normalization,
    preset_theorem2,
    preset_theorem3,
    round_params,
    short_vectors,
    successive_minima,
)
from .census import (
    DiscCensus,
    MeasureEstimate,
    SepCensus,
    disc_census,
    disc_threshold,
    fit_exponent,
    measure_estimate,
    poly_count,
    sep_census,
)

__version__ = "0.1.0"
