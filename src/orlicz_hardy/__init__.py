"""Numerical verification toolkit for Orlicz-space Hardy and
Landau-Kolmogorov inequalities under Gaussian and radial measures."""

from .errors import (
    CertificationError,
    DivergenceError,
    EvaluationError,
    ManifestError,
    OrliczHardyError,
    PreconditionError,
)
from .functionals import (
    FieldFunction,
    ModularTriple,
    RadialTestFunction,
    ScalarProfile,
    luxemburg_norm,
    modular_triple_nd,
    modular_triple_radial,
    truncate,
)
from .hardy import (
    FORMS,
    check_alternative,
    check_convex_case,
    check_hn1,
    check_linear,
    check_norm_form,
    check_p2_exact,
    check_wwww,
    convex_constants,
    linear_constants,
)
from .landau_kolmogorov import (
    check_lk_modular,
    check_lk_norm,
    fit_lk_modular_envelope,
    fit_lk_norm_envelope,
    hardy_provenance,
    lk_modular_terms,
    lk_norm_triple,
)
from .mazya import (
    MeasurePair,
    classical_pair,
    gaussian_hardy_pq,
    gaussian_pair,
    mazya_B,
)
from .nfunc import (
    GridSpec,
    NFunction,
    certify_delta2,
    certify_growth,
    check_lemma_split,
    check_lemma_young,
    power_log_nfunction,
    power_nfunction,
)
from .quadrature import (
    GaussianMeasure,
    QuadratureSpec,
    RadialMeasure,
    SupportHint,
    integrate_gaussian_nd,
    integrate_radial,
    moment,
)
from .sharpness import (
    ExtremalParams,
    c1_lower_bound,
    c2_infeasibility_scan,
    extremal_function,
    extremal_moments,
    stirling_ratio,
)
from .reporting import Check, verdict
from .corpus import CorpusManifest, load_manifest

__version__ = "0.1.0"
