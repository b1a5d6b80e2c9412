//! A subplan tree whose operators have the wrong number of inputs is
//! `Error::InvalidPlan`, never a panic, at every entry point that checks or
//! lowers it: all of them walk the tree with `OpTree::post_order`.

use ishare::cost::simulate::{simulate_subplan, SubplanSimulator};
use ishare::cost::{PlanEstimator, StreamEstimate};
use ishare::exec::SubplanExecutor;
use ishare::plan::{AggExpr, AggFunc, InputSource, OpTree, SharedPlan, Subplan, TreeOp};
use ishare_common::{CostWeights, DataType, Error, QueryId, QuerySet, Result, SubplanId};
use ishare_expr::Expr;
use ishare_storage::{Catalog, Field, Schema, TableStats};
use std::collections::HashMap;

fn invalid<T>(what: &str, r: Result<T>) {
    assert!(matches!(r, Err(Error::InvalidPlan(_))), "{what}: expected InvalidPlan");
}

#[test]
fn malformed_trees_are_invalid_plans_everywhere() {
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]);
    let t = catalog.add_table("t", schema, TableStats::unknown(100.0, 2)).unwrap();
    let leaf = || OpTree::input(InputSource::Base(t));
    let join = || TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] };
    let sum = TreeOp::Aggregate {
        group_by: vec![],
        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
    };
    let table = [
        ("one-input join", OpTree::node(join(), vec![leaf()])),
        ("zero-input select", OpTree::node(TreeOp::Select { branches: vec![] }, vec![])),
        ("two-input aggregate", OpTree::node(sum, vec![leaf(), leaf()])),
    ];
    let (q, w) = (QuerySet::single(QueryId(0)), CostWeights::default());
    let subplan = |root| Subplan { id: SubplanId(0), root, queries: q, output_queries: q };
    let inputs = vec![StreamEstimate::insert_only(100.0, q, vec![]); 2];
    for (name, root) in table {
        let sp = subplan(root);
        let plan = SharedPlan { subplans: vec![sp.clone()] };
        invalid(name, plan.validate(&catalog));
        invalid(name, SubplanExecutor::new(&sp, &catalog, &HashMap::new(), w));
        invalid(name, simulate_subplan(&sp, 1, &inputs, &w));
        invalid(name, SubplanSimulator::new(&sp));
        invalid(name, PlanEstimator::new(&plan, &catalog, w));
    }

    // A well-formed tree simulates from exactly one estimate per leaf.
    let mut sim =
        SubplanSimulator::new(&subplan(OpTree::node(join(), vec![leaf(), leaf()]))).unwrap();
    sim.run(2, &inputs, &w).unwrap();
    invalid("one input for two leaves", sim.run(2, &inputs[..1], &w));
    invalid("three inputs for two leaves", sim.run(2, &[&inputs[..], &inputs[..1]].concat(), &w));
}
