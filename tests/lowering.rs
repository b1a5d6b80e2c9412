//! The cut rule lowers every DAG operator verbatim: each operator of a
//! subplan tree is the DAG node at its tree path, payload for payload, and
//! each leaf reads that node's buffer — the base table of a scan, or the
//! subplan rooted at a cut node. Checked on the 22-query TPC-H DAG, on a
//! decomposition-edited copy of it and on a DAG grown by churn admissions.

use ishare::core::decompose::{regenerate, DagPlan};
use ishare::mqo::{build_shared_dag, normalize, IncrementalSharer, MqoConfig};
use ishare::plan::{InputSource, LogicalPlan, Op, SharedDag, SharedPlan};
use ishare::tpch::{all_queries, generate};
use ishare_common::{NodeId, QueryId, QuerySet};

fn tpch22() -> (ishare::tpch::TpchData, Vec<(QueryId, LogicalPlan)>) {
    let data = generate(0.001, 42).unwrap();
    let queries = all_queries(&data.catalog)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), normalize(&q.plan)))
        .collect();
    (data, queries)
}

/// Walks every subplan of `plan`, cut from `dag` with subplan `i` rooted at
/// `roots[i]`, and checks each step against the DAG node at its path.
fn assert_lowered_verbatim(what: &str, dag: &SharedDag, plan: &SharedPlan, roots: &[NodeId]) {
    let mut steps = 0;
    for (sp, &root) in plan.subplans.iter().zip(roots) {
        sp.root
            .post_order(|step| {
                let node = &dag.nodes[dag.node_at(root, step.path).0 as usize];
                let at = format!("{what}: {} at path {:?} (node {})", sp.id, step.path, node.id);
                let same = match (&step.node.op, &node.op) {
                    (Op::Input(InputSource::Base(t)), Op::Input(u)) => t == u,
                    (Op::Input(InputSource::Subplan(c)), _) => roots[c.index()] == node.id,
                    (Op::Select { branches: a }, Op::Select { branches: b }) => a == b,
                    (Op::Project { exprs: a }, Op::Project { exprs: b }) => a == b,
                    (Op::Join { keys: a }, Op::Join { keys: b }) => a == b,
                    (
                        Op::Aggregate { group_by: a, aggs: x },
                        Op::Aggregate { group_by: b, aggs: y },
                    ) => a == b && x == y,
                    _ => false,
                };
                assert!(same, "{at}: {:?} lowers {:?}", step.node.op, node.op);
                // Below the root, only a leaf may stand for a cut node.
                if !step.path.is_empty() && !step.node.inputs.is_empty() {
                    assert!(!roots.contains(&node.id), "{at}: a cut node was inlined");
                }
                steps += 1;
                Ok(())
            })
            .unwrap();
    }
    assert!(steps > plan.len(), "{what}: walked {steps} steps");
}

#[test]
fn tpch22_subplans_lower_their_dag_nodes_verbatim() {
    let (data, queries) = tpch22();
    let dag = build_shared_dag(&queries, &data.catalog, &MqoConfig::default()).unwrap();
    let current = DagPlan::cut(dag, Vec::new()).unwrap();
    assert_lowered_verbatim("tpch22", &current.dag, &current.plan, &current.roots);

    // Split the most shared subplan into one piece per query.
    let target = current.plan.subplans.iter().max_by_key(|sp| sp.queries.len()).unwrap();
    assert!(target.queries.len() > 1);
    let parts: Vec<QuerySet> = target.queries.iter().map(QuerySet::single).collect();
    let (edited, clone_of) = regenerate(&current, target.id, &parts).unwrap();
    assert!(!clone_of.is_empty());
    edited.plan.validate(&data.catalog).unwrap();
    assert_lowered_verbatim("decomposed", &edited.dag, &edited.plan, &edited.roots);
}

#[test]
fn churn_admitted_subplans_lower_their_dag_nodes_verbatim() {
    let (data, queries) = tpch22();
    let (initial, admitted) = queries.split_at(12);
    let mut sharer = IncrementalSharer::new(MqoConfig::default());
    for (q, plan) in initial {
        sharer.admit(*q, plan).unwrap();
    }
    sharer.seal();
    // As the churn runner re-cuts: every earlier subplan root and every
    // admission frontier stays a cut.
    let (_, mut forced) = SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &[]).unwrap();
    for (q, plan) in admitted {
        forced.extend(sharer.admit(*q, plan).unwrap().frontier);
        let (plan, roots) =
            SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &forced).unwrap();
        plan.validate(&data.catalog).unwrap();
        assert_lowered_verbatim(&format!("admitted {q}"), sharer.dag(), &plan, &roots);
        forced.extend(roots);
        forced.sort();
        forced.dedup();
    }
}
