//! # ishare-tpch
//!
//! The TPC-H substrate of the evaluation: a deterministic, scale-factor-
//! parameterised data generator for all eight relations, the 22 TPC-H
//! queries restricted to the engine's operator algebra (scan, select,
//! project, group-by aggregate, inner equi-join — the same restriction the
//! paper's prototype applies, Sec. 2.3), the paper's Fig. 2 example queries
//! Q_A and Q_B, and the predicate-variant generator used by the
//! decomposition experiment (Sec. 5.4).
//!
//! ## Query rewrites (documented substitutions, DESIGN.md §5)
//!
//! * `ORDER BY` / `LIMIT` dropped everywhere (no effect on maintained work).
//! * `EXISTS` / `IN` subqueries become aggregate-then-join (distinct via a
//!   two-level aggregate, which is exact).
//! * `NOT EXISTS` anti-joins (Q13's zero-order customers, Q21's l3 clause,
//!   Q22's orderless customers) are dropped or approximated by the
//!   containing inner join — the shared-execution *structure* is preserved.
//! * Scalar subqueries (Q11's threshold, Q15's max revenue, Q17's per-part
//!   average, Q22's average balance, Q_B's average quantity) become
//!   aggregate subplans joined back in — single-row sides join through a
//!   constant key (an equi-join on `1 = 1`), value-equality keys where the
//!   original predicate is an equality (Q15).
//! * `LIKE '%a%b%'` double patterns reduce to their first segment.
//! * `COUNT(DISTINCT x)` becomes a two-level aggregate (exact).

#![warn(missing_docs)]

pub mod datagen;
pub mod names;
pub mod queries;
pub mod updates;
pub mod variants;

pub use datagen::{calibrate, generate, TpchData};
pub use queries::{all_queries, query_by_name, QueryDef};
pub use updates::{net_rows, with_updates, with_updates_windowed, UPDATE_WINDOW};
pub use variants::variant_plan;
