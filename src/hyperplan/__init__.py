"""Multi-robot task planning with reusable abstract-hypergraph strategies."""

__version__ = "0.1.0"

from .hypergraph import (
    ABSTRACT,
    Entity,
    Hyperarc,
    HypergraphBuilder,
    InvalidHypergraph,
    Node,
    SolutionHypergraph,
    ValidationReport,
    obj,
    robot,
    to_dot,
    topological_order,
    validate_hyperpath,
)
from .domain import (
    Action,
    ExecutionFault,
    Handoff,
    Held,
    InBuffer,
    OnStack,
    Pick,
    Place,
    PreconditionViolated,
    Problem,
    Region,
    RobotSpec,
    WorldState,
    applicable_actions,
    apply,
    execute_hypergraph,
    initial_decomposition,
    is_goal,
    makespan,
)
from .planner import (
    BudgetExhausted,
    NoSolution,
    SearchConfig,
    SearchStats,
    bfs_oracle,
    build_hypergraph,
    plan,
    search,
)
from .abstraction import (
    AbstractHypergraph,
    AbstractNode,
    AbstractObject,
    BufferRole,
    SourceRole,
    TargetRole,
    abstract_labels,
    ah_violations,
    canonical_form,
    extract_strategy,
    remove_robot_entities,
    select_critical_nodes,
)
from .reuse import (
    FAIL_HARD,
    SCRATCH_FALLBACK,
    GroundingAssignment,
    NoGrounding,
    RefinementConfig,
    ReuseStats,
    SubproblemInfeasible,
    ground_strategy,
    reconstruct,
    refine,
    reuse_pipeline,
    verify_grounding,
)
from .library import (
    CorruptRecord,
    StrategyRecord,
    StrategySignature,
    load,
    make_record,
    retrieve,
    signature_of,
    store,
)

__all__ = [name for name in dir() if not name.startswith("_")]
