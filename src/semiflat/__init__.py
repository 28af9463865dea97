"""semiflat: a verification workbench for finite semirings and semimodules.

Constructs quotients, cancellative reflections, tensor products and
finite (co)limits over explicit finite carriers, and decides uniformity,
the four exactness grades, and the relative flatness and injectivity
predicates by exhaustive scan.
"""
from .structures import (Semiring, Semimodule, Morphism, SecondAction, Violation,
                         build_semiring, build_semimodule, build_morphism,
                         identity_morphism, zero_morphism, compose,
                         element_order, element_orders, is_cancellative,
                         monoid_module, monoid_morphism, as_left, as_right,
                         mirror, with_bimodule_structure, swap_actions,
                         additive_generators)
from .subsets import (Subsemimodule, subsemimodule, generated_subsemimodule,
                      enumerate_subsemimodules, subtractive_closure,
                      uniform_subsemimodules, module_generators, submodule_of)
from .congruence import (Congruence, congruence_closure,
                         module_congruence_closure, monoid_congruence_closure,
                         quotient_by_congruence, quotient_by_sub,
                         quotient_cancellative, cancellative_reflection)
from .homology import (kernel, image_sub, cokernel, morphism_profile,
                       MorphismProfile, classify_sequence, classify_stage,
                       ExactnessReport, with_zero_ends, hom_module, HomModule,
                       hom_postcompose, hom_precompose, end_comp, is_retract_of,
                       retract_pairs, uniformly_injective_rel)
from .limits import (direct_sum, pairing, copairing,
                     equalizer, coequalizer, pullback, pullback_mediator,
                     DirectedSystem, directed_system, constant_system,
                     chain_system, directed_colimit, colimit_morphism,
                     InverseSystem, inverse_system, inverse_limit,
                     hom_colimit_comparison, subsemimodule_system)
from .tensor import (TensorPresentation, tensor_product, factor_balanced,
                     balanced_violations, enumerate_balanced_maps,
                     tensor_morphisms, unit_iso, unit_iso_left, cancellative_tensor,
                     certify_cancellative_universal, adjunction_iso,
                     hom_tensor_comparison, dual_comparison)
from .flatness import (FlatnessVerdict, is_uniformly_M_flat, is_uniformly_flat,
                       is_mono_flat, in_i_uniform_class, is_uniformly_fg,
                       is_uniformly_fp, FlatCertificate, projectivity_witness,
                       trivial_certificate, flat_certificate_check,
                       SearchConfig, search_counterexamples)
from .catalog import (bool_semiring, sat_semiring, zmod_semiring,
                      free_module, semiring_module, semiring_bimodule,
                      trivial_module, zmod_module, chain_module, suite_pool,
                      enumerate_semimodules, cancellative_targets)
from .workspace import (Workspace, parse_workspace, parse_workspace_dict,
                        emit_workspace, load_default_workspace)

__version__ = "0.1.0"
