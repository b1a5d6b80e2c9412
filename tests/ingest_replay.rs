//! The feed × kill face of the differential lattice (`tests/lattice.rs`):
//! a run pulled from a source — in order or out of order, partitioned,
//! bounded and jittered — lands on the `Vec`-fed run's bits, and a run
//! killed at a front boundary and resumed against its commit log lands on
//! the uninterrupted run's, log included.

mod harness;

use harness::*;
use ishare::stream::{ObsConfig, Source, SourceConfig, SourceOptions};
use ishare::tpch::with_updates;

/// Both source feeds, each killed after a drawn front and resumed, against
/// the `Vec`-fed oracle run.
#[test]
fn source_fed_matches_vec_fed_and_replay_is_exact() {
    let mut kills = 0;
    for_each_case(SEED ^ 0x1e, 16, |case_no, case, reference, rng| {
        for feed in [Feed::InOrder, Feed::Jittered] {
            let kill = Some(rng.range(1, 8) as usize);
            let p = Point { mode: Mode::Kernels, feed, kill, ..ORACLE };
            let label = format!("case {case_no} {p:?} {:?}", case.topology);
            kills += usize::from(case.check(reference, &p, &label).1);
        }
    });
    assert!(kills > 0, "no run was killed");
}

/// The jittered source through the thread-count shim, and with obs on,
/// killed after two fronts and resumed.
#[test]
fn parallel_kill_resume_replays_bit_exact() {
    let mut kills = 0;
    for_each_case(SEED ^ 0x1f, 16, |case_no, case, reference, _| {
        for (mode, obs) in [(Mode::Inert, false), (Mode::Kernels, true)] {
            let p = Point { mode, obs, feed: Feed::Jittered, kill: Some(2), ..ORACLE };
            kills += usize::from(case.check(reference, &p, &format!("case {case_no} {p:?}")).1);
        }
    });
    assert!(kills > 0, "no run was killed");
}

/// Four sharing-friendly queries over an update stream (10 % of rows become
/// delete + insert pairs) pulled from a jittered, partitioned,
/// backpressured source with obs off and on, and killed after two fronts
/// and resumed: all land on the `Vec`-fed run's bits.
#[test]
fn tpch_source_fed_matches_vec_fed_with_kill_resume() {
    let (data, planned) = kernels_workload(4);
    let feeds = with_updates(&data, 0.1, 11).unwrap();
    let reference = run_vec(&planned, &data, &feeds, SourceOptions::default());
    let topology = SourceConfig { partitions: 3, capacity: 32, jitter: 15, seed: 11 };
    let jittered = |opts| {
        Ran::fixed(run_fixed(&planned, &data, &mut Source::new(&feeds, topology).unwrap(), opts))
    };
    let full = jittered(SourceOptions::default()).done("jittered");
    assert_same(&reference, &full, "jittered");
    assert_kill_resume(&full, 2, &SourceOptions::default(), jittered, "jittered");
    let obs = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
    assert_same(&full, &jittered(obs).done("obs on"), "jittered obs on");
}

/// A feed weight other than ±1 is rejected where the source releases it.
/// A join multiplies its inputs' weights: one `1 << 40` row on each side
/// would overflow the product (a panic in debug, a wrapped zero — and a
/// silently lost match — in release).
#[test]
fn weights_other_than_plus_or_minus_one_are_invalid_deltas() {
    use ishare::common::{CostWeights, DataType, Error, QueryId, TableId};
    use ishare::mqo::{build_shared_dag, normalize, MqoConfig};
    use ishare::plan::{PlanBuilder, SharedPlan};
    use ishare::storage::{Catalog, Field, Row, Schema, TableStats};
    use ishare::stream::execute_planned_deltas;
    use ishare::Value;
    use std::collections::HashMap;

    let mut c = Catalog::new();
    let int = |name: &str| Field::new(name, DataType::Int);
    let t = c.add_table("t", Schema::new(vec![int("k")]), TableStats::unknown(1.0, 1)).unwrap();
    let u = c.add_table("u", Schema::new(vec![int("uk")]), TableStats::unknown(1.0, 1)).unwrap();
    let join = PlanBuilder::scan(&c, "t")
        .unwrap()
        .join(PlanBuilder::scan(&c, "u").unwrap(), &[("k", "uk")])
        .unwrap()
        .build();
    let dag = build_shared_dag(&[(QueryId(0), normalize(&join))], &c, &MqoConfig::default());
    let plan = SharedPlan::from_dag(&dag.unwrap()).unwrap();
    let row = Row::new(vec![Value::Int(7)]);
    for weight in [1i64 << 40, 2, 0, i64::MIN] {
        let feeds: HashMap<TableId, Vec<(Row, i64)>> =
            [(t, vec![(row.clone(), weight)]), (u, vec![(row.clone(), weight)])]
                .into_iter()
                .collect();
        let paces = vec![1; plan.len()];
        let run = execute_planned_deltas(&plan, &paces, &c, &feeds, CostWeights::default());
        let Err(Error::InvalidDelta(msg)) = &run else { panic!("weight {weight}: {run:?}") };
        assert!(msg.contains(&format!("table {t} offset 0: weight {weight} ")), "{msg}");
    }
}
