"""Curvature verification lab for deformed homogeneous metrics on Sp(2)/U(1).

The package is organized bottom-up:

* ``algebra``     -- the Lie algebra sp(2) in split coordinates, its
  bracket, the bi-invariant inner product, the isotropy circle action,
  and an independent quaternionic matrix oracle.
* ``metric``      -- deformation triples (A, B, C), the one parameter
  metrics M_t = I + tL, and samplers for random and admissible metrics.
* ``curvature``   -- the sectional curvature numerator, its exact
  degree-four jet in t, and the commuting-plane closed form.
* ``cartan``      -- classification of commuting planes into four
  canonical families with reconstruction witnesses, plus the distance
  to the distinguished orbit.
* ``experiments`` -- seeded verification suites for the oracle layer,
  jet vanishing on commuting planes, the positivity dichotomy,
  curvature positivity at small times, and the nonpositive-plane
  certificates.
* ``cli``         -- the ``sp2curv`` command line front end.
"""

import types

from .algebra import (
    E1,
    E2,
    E3,
    SpElement,
    ad_h,
    bi_inner,
    bi_inner_trace_form,
    bracket,
    bracket_oracle,
    norm,
)
from .metric import (
    DeformedMetric,
    MetricDeformation,
    random_admissible_metric,
    random_deformation,
    reference_deformation,
)
from .curvature import (
    CurvatureReport,
    TangentPlane,
    is_commuting_pair,
    numerator,
    numerator_jet,
    second_derivative_closed_form,
    sectional_curvature,
    u_tensor,
)
from .cartan import (
    CanonicalizationError,
    CartanClassification,
    canonicalize,
    centralizer_in_m,
    sample_cartan,
    special_orbit_distance,
)
from .experiments import (
    classify_plane,
    measure_sigma,
    run_baseline_suite,
    run_lemma0_suite,
    run_oracle_suite,
    sample_commuting_plane,
    special_plane,
    verify_lemma1,
    verify_theorem1,
    verify_wilking,
    verify_wilking_inequalities,
    wilking_pair,
)

__version__ = "0.1.0"

# Every name imported above is exported, so that each is written once.
__all__ = ["__version__", *sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType))]
