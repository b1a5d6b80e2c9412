//! The mode face of the differential lattice (`tests/lattice.rs`): the
//! `Kernels` datapath and the inert surfaces (`Vectorized`, `partitions: 4`,
//! the thread-count shim) land on the `Reference` datapath's bits, `Vec`-fed
//! and pulled from a source, in order or jittered and killed and resumed.

mod harness;

use harness::*;
use ishare::stream::insert_feeds;

const MODES: [Mode; 3] = [Mode::Kernels, Mode::Reference, Mode::Inert];

/// Every mode × feed {`Vec`, in order}, against the oracle run.
#[test]
fn kernels_match_reference() {
    let mut joins = 0;
    for_each_case(SEED ^ 0x4b, 16, |case_no, case, reference, _| {
        joins += usize::from(case.join);
        for mode in MODES {
            for feed in [Feed::Vec, Feed::InOrder] {
                if (mode, feed) == (Mode::Reference, Feed::Vec) {
                    continue;
                }
                let p = Point { mode, feed, ..ORACLE };
                case.check(reference, &p, &format!("case {case_no} {p:?}"));
            }
        }
    });
    assert!(joins > 0, "no join plan drawn");
}

/// Every mode pulled from the case's jittered, partitioned, bounded source,
/// killed after two fronts and resumed against the commit log: every run
/// lands on the oracle's bits.
#[test]
fn kernels_match_reference_under_jittered_source_kill_resume() {
    let (mut joins, mut kills) = (0, 0);
    for_each_case(SEED ^ 0x4a, 16, |case_no, case, reference, _| {
        joins += usize::from(case.join);
        for mode in MODES {
            let p = Point { mode, feed: Feed::Jittered, kill: Some(2), ..ORACLE };
            kills += usize::from(case.check(reference, &p, &format!("case {case_no} {p:?}")).1);
        }
    });
    assert!(joins > 0 && kills > 0, "joins {joins}, kills {kills}");
}

/// The kernels workload on every mode against the `Reference` run; the
/// `Kernels` run is the golden one.
#[test]
fn tpch_workload_kernels_match_reference() {
    let (data, planned) = kernels_workload(6);
    let feeds = insert_feeds(&data.data);
    let run = |mode: Mode| run_vec(&planned, &data, &feeds, mode.options());
    let reference = run(Mode::Reference);
    for mode in [Mode::Kernels, Mode::Inert] {
        let got = run(mode);
        assert_same(&reference, &got, &format!("{mode:?}"));
        if mode == Mode::Kernels {
            assert_golden(&got, &KERNELS, "kernels");
        }
    }
}
