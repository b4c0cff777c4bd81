"""Extremal free convolutions, free max-stable laws, and their matrix lab.

The package has five working parts:

* :mod:`freemax.cdf` -- distribution functions and the upper/lower
  extremal free convolutions, iterates, rescaling, exceedances.
* :mod:`freemax.laws` -- the free and classical extreme-value laws,
  max-stability verification, and the classical-to-free homomorphism.
* :mod:`freemax.attraction` -- max-domains of attraction with explicit
  norming constants, regular-variation diagnostics, and GPD fitting.
* :mod:`freemax.spectral` -- the spectral order on Hermitian matrices:
  projection lattice, a v b, monotone approximations, Haar sampling.
* :mod:`freemax.poisson` -- random-matrix free Poisson process, range
  projections, and the triangular extremal process.

``freemax.cli`` exposes all of it as a deterministic batch command.
"""

__version__ = "0.1.0"

from .cdf import (  # noqa: F401
    Cdf,
    CdfError,
    SteppedCdf,
    FunctionCdf,
    MeasureDecomposition,
    atom_decomposition_max,
    classical_max_conv,
    comparison_grid,
    empirical_cdf,
    exceedance_cdf,
    free_max_conv,
    free_max_iterate,
    free_max_power,
    free_min_conv,
    ks_distance,
    lower_endpoint_iterate,
    point_mass,
    read_samples,
    reflect,
    rescale,
    sup_distance,
    tabulated_cdf,
    threshold_un,
    write_cdf_table,
)
from .laws import (  # noqa: F401
    LawKind,
    LawSpec,
    StabilityConstants,
    f_c_map,
    gpd_correspondence,
    law_catalog,
    make_law,
    stability_constants,
    verify_max_stable,
)
from .attraction import (  # noqa: F401
    ConvergenceRow,
    GpdFit,
    NormingConstants,
    balkema_de_haan_check,
    convergence_report,
    fit_gpd,
    mean_excess,
    norming_constants,
    rv_check,
)
from .spectral import (  # noqa: F401
    HermitianMatrix,
    Projection,
    empirical_spectral_cdf,
    general_position_check,
    haar_conjugate,
    haar_projection,
    logexp_approx,
    pnorm_approx,
    pnorm_approx_shifted,
    proj_join,
    proj_meet,
    spectral_leq,
    spectral_max,
    spectral_min,
    spectral_projection,
)
from .poisson import (  # noqa: F401
    Partition,
    ProcessReport,
    extremal_process_report,
    mp_cdf,
    range_projection,
    realize_triangular_process,
    sample_free_poisson_matrix,
    triangular_law_cdf,
    triangular_snapshot,
)
