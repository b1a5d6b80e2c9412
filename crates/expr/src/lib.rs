//! # ishare-expr
//!
//! The scalar expression language of the iShare engine: a small AST
//! ([`Expr`]) with SQL-ish three-valued evaluation, type inference against a
//! [`Schema`], compilation to predicate/projection programs for the
//! datapath kernels, and a canonical display form used in plan *string
//! signatures* (Sec. 2.3 of the paper).
//!
//! The language covers exactly what the paper's supported operator set needs:
//! column references, literals, arithmetic, comparisons, boolean connectives,
//! `IN`-lists, `LIKE` (prefix/suffix/contains), `CASE WHEN`, and the scalar
//! functions (`year`, `substr`) that the TPC-H predicates use.
//!
//! [`Schema`]: ishare_storage::Schema

#![warn(missing_docs)]

pub mod compile;
pub mod eval;
pub mod expr;
pub mod typecheck;

pub use compile::{CompiledPredicate, CompiledProjection, CompiledScalar, Program};
pub use expr::{BinaryOp, Expr, LikePattern, ScalarFunc};
