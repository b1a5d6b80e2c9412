//! The public surface of the program under test that this benchmark pins.
//!
//! This is the only file of the benchmark that names an `ishare_*` crate:
//! everything else imports from here, so the functions, types and fields a
//! later change must keep (as shims, if it collapses them) are readable in
//! one place. `benchmark/README.md` lists the entry points.

/// `tpch` — the load generator (not a measured layer).
pub use ishare_tpch::queries::sharing_friendly_queries;
pub use ishare_tpch::{all_queries, generate, with_updates, TpchData};

/// `common` — measured through `exec`.
pub use ishare_common::{
    CostWeights, Error, OpKind, QueryId, Result, TableId, WorkBreakdown, WorkCounter, WorkUnits,
};

/// `mqo`.
pub use ishare_mqo::{build_shared_dag, normalize, IncrementalSharer, MqoConfig};

/// `plan`.
pub use ishare_plan::{InputSource, LogicalPlan, OpTree, SharedDag, SharedPlan, TreeOp};

/// `cost`.
pub use ishare_cost::PlanEstimator;

/// `core`.
pub use ishare_core::{
    find_pace_configuration, plan_workload, resolve_constraints, AdaptController, AdaptOptions,
    Approach, ConstraintMap, FinalWorkConstraint, ObservedTable, PlannedExecution, PlanningOptions,
    WavefrontObservation,
};

/// `ingest`.
pub use ishare_ingest::{Source, SourceConfig};

/// `storage`.
pub use ishare_storage::{
    Catalog, ColumnarBatch, ConsumerId, DeltaBatch, DeltaBuffer, DeltaRow, Retain, Row,
};

/// `expr`.
pub use ishare_expr::compile::CompiledPredicate;

/// `exec`.
pub use ishare_exec::{approx_result_eq, query_result, QueryResult, SubplanExecutor};

/// `stream` — the four end-to-end entry points, their option and result
/// types, and the schedule functions the shadow loop mirrors the driver
/// with.
pub use ishare_stream::schedule::{build_schedule, front_at, reschedule_after};
pub use ishare_stream::{
    execute_adaptive_from_source_obs, execute_churn_from_source, execute_from_source_obs,
    execute_from_source_parallel_obs, missed_latency_stats, ChurnEvent, ChurnOp, ChurnOptions,
    ChurnScript, ExecMode, ExecOptions, RunResult, SourceOptions,
};

/// `obs`.
pub use ishare_obs::{ObsConfig, ObsReport};
