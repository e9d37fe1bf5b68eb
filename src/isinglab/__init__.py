"""Exact finite-volume engines for Ising spin systems and Z2 gauge models.

Three independent exact representations of the same Gibbs quantities —
brute-force spin sums, source-constrained current enumeration, and q=2
random-cluster enumeration — plus folded/reflected variants, a lattice
gauge sector with its duality map, backbone path expansions, correlation
inequality suites, and seeded Monte Carlo estimators.  Everything is sized
for desk-scale certification: each identity is checked against at least one
independently coded oracle.
"""

from .graphs import (BoundarySpec, BoxGraph, Couplings, FieldSpec, Graph,
                     generate_box_lattice, parse_graph_file,
                     parse_lattice_spec, reflection_for_axis,
                     serialize_graph)
from .spins import expectation, partition_function, ursell4
from .currents import SupportView, correlation_via_currents, current_sum
from .doubled import (boundary_identities, disorder_expectation,
                      double_event_probability, frustrated_partition_ratio,
                      frustration_identities, surface_tension_ratio,
                      ursell4_via_currents, verify_switching)
from .folding import (FoldedCurrentMeasure, dobrushin_identities,
                      folded_correlation_identity,
                      reflection_monotonicity_report)
from .fk import (connection_probability, fk_boundary_report,
                 fk_frustration_adjusted, fk_measure_expectation,
                 fk_rcr_bridge, fkg_spot_check)
from .backbone import (backbone_grouping, check_path_properties,
                       extract_backbone, rho_weight, tree_diagram_check,
                       zeta_weight)
from .gauge import (PlaquetteComplex, WilsonLoop, deconfinement_bound_report,
                    dual_beta, lgm_partition, rectangular_loop,
                    verify_duality, verify_wilson_disorder_duality,
                    wilson_expectation)
from .samplers import (ChainSpec, EstimatorResult, current_rejection_sampler,
                       metropolis_spin, swendsen_wang)
from .inequalities import (IneqReport, dss_suite, fuzz_inequalities,
                           ghs_suite, griffiths_suite, simon_lieb_suite,
                           smms_suite, van_beijeren_suite)

__version__ = "0.1.0"
