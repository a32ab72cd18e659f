"""Probabilistic query evaluation engines.

Three engines that must agree exactly on every instance:

* :mod:`repro.pqe.brute_force` — the exponential possible-world oracle,
  and the brute-force route's fold of a cached lineage table;
* :mod:`repro.pqe.extensional` — lifted inference for H+-queries (Möbius
  inversion over the CNF lattice + safe plans), the Dalvi–Suciu side;
* :mod:`repro.pqe.lift` — the general Dalvi–Suciu safe-plan search and
  plan IR for arbitrary UCQs/CQs (not just the h-query family);
* :mod:`repro.pqe.intensional` — the paper's contribution: d-D lineage
  compilation for all zero-Euler H-queries (Theorem 5.2).

Plus the dichotomy classifier (Figure 1) and the hardness/reduction
machinery (Proposition 6.4, Theorem 6.2(a)).
"""

from repro.pqe.approximate import (
    AccuracyBudget,
    Estimate,
    SamplingPlan,
    approximate_probability,
    karp_luby_probability,
    karp_luby_probability_vectorized,
    monte_carlo_probability,
    monte_carlo_probability_vectorized,
    sampling_plan,
)
from repro.pqe.brute_force import (
    pattern_distribution,
    probability_by_lineage_enumeration,
    probability_by_world_enumeration,
)
from repro.pqe.degenerate import (
    degenerate_lineage_circuit,
    degenerate_lineage_obdd,
    pair_query_circuit,
)
from repro.pqe.engine import (
    BRUTE_FORCE_LIMIT,
    ROUTES,
    BatchEvaluationResult,
    CompilationCache,
    CompilationCacheStats,
    EvaluationResult,
    HardQueryError,
    clear_compilation_cache,
    compilation_cache_stats,
    compile_lineage_cached,
    evaluate,
    evaluate_batch,
    route_of,
)
from repro.pqe.dichotomy import (
    Classification,
    Region,
    classify,
    classify_function,
    classify_query,
    region_counts,
)
from repro.pqe.extensional import (
    ExtensionalPlanCache,
    ExtensionalPlanCacheStats,
    build_plan,
    clear_extensional_plan_cache,
    extensional_plan_stats,
    is_safe,
    lattice_cache_counters,
    mobius_terms,
    plan_for,
    probability_by_raw_inclusion_exclusion,
)
from repro.pqe.lift import (
    LiftPlan,
    UnsafeQueryError,
    describe_plan,
    evaluate_plan,
    evaluate_plan_batch,
    evaluate_plan_float,
    is_liftable,
    lift_query,
    lifted_probability,
    lifted_probability_float,
)
from repro.pqe.extensional import probability as extensional_probability
from repro.pqe.extensional import (
    probability_batch as extensional_probability_batch,
)
from repro.pqe.extensional import (
    probability_float as extensional_probability_float,
)
from repro.pqe.hardness import (
    is_provably_hard,
    monotone_witness_with_same_euler,
    probability_by_reduction,
)
from repro.pqe.intensional import (
    CompiledLineage,
    NotCompilableError,
    compile_lineage,
    compile_lineage_ddnnf,
    transfer_lineage,
)
from repro.pqe.intensional import probability as intensional_probability
from repro.pqe.safe_plans import (
    UnsafeSubqueryError,
    chain_probability,
    disjunction_probability,
    disjunction_probability_float,
    run_probability,
    run_probability_float,
    runs_of,
)

__all__ = [
    "AccuracyBudget",
    "BRUTE_FORCE_LIMIT",
    "ROUTES",
    "BatchEvaluationResult",
    "CompilationCache",
    "CompilationCacheStats",
    "Estimate",
    "SamplingPlan",
    "Classification",
    "EvaluationResult",
    "ExtensionalPlanCache",
    "ExtensionalPlanCacheStats",
    "HardQueryError",
    "CompiledLineage",
    "NotCompilableError",
    "Region",
    "UnsafeQueryError",
    "UnsafeSubqueryError",
    "build_plan",
    "chain_probability",
    "classify",
    "classify_function",
    "classify_query",
    "clear_compilation_cache",
    "clear_extensional_plan_cache",
    "compilation_cache_stats",
    "compile_lineage",
    "compile_lineage_cached",
    "compile_lineage_ddnnf",
    "degenerate_lineage_circuit",
    "degenerate_lineage_obdd",
    "disjunction_probability",
    "disjunction_probability_float",
    "evaluate",
    "evaluate_batch",
    "route_of",
    "extensional_plan_stats",
    "extensional_probability",
    "extensional_probability_batch",
    "extensional_probability_float",
    "plan_for",
    "run_probability",
    "run_probability_float",
    "intensional_probability",
    "is_liftable",
    "is_provably_hard",
    "is_safe",
    "lattice_cache_counters",
    "lift_query",
    "lifted_probability",
    "lifted_probability_float",
    "LiftPlan",
    "describe_plan",
    "evaluate_plan",
    "evaluate_plan_batch",
    "evaluate_plan_float",
    "approximate_probability",
    "karp_luby_probability",
    "karp_luby_probability_vectorized",
    "monte_carlo_probability",
    "monte_carlo_probability_vectorized",
    "sampling_plan",
    "mobius_terms",
    "monotone_witness_with_same_euler",
    "pair_query_circuit",
    "pattern_distribution",
    "probability_by_lineage_enumeration",
    "probability_by_raw_inclusion_exclusion",
    "probability_by_reduction",
    "probability_by_world_enumeration",
    "region_counts",
    "runs_of",
    "transfer_lineage",
]
