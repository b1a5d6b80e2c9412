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
