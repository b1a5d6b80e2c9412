//! The mode face of the differential lattice (`tests/lattice.rs`): the
//! `Kernels` datapath and the inert `Vectorized` + `partitions: 4` options
//! land on the `Reference` datapath's bits at every worker count, `Vec`-fed
//! and pulled from a jittered source killed and resumed.

mod harness;

use harness::*;
use ishare::stream::{insert_feeds, SourceOptions};

const MODES: [Mode; 3] = [Mode::Kernels, Mode::Reference, Mode::Inert];

/// Every mode × workers {1, 2, 4, 8}, `Vec`-fed, against the oracle run.
#[test]
fn kernels_match_reference() {
    let mut joins = 0;
    for_each_case(SEED ^ 0x4b, 16, |case_no, case, reference, _| {
        joins += usize::from(case.join);
        for mode in MODES {
            for workers in [1, 2, 4, 8] {
                if (mode, workers) == (Mode::Reference, 1) {
                    continue;
                }
                let p = Point { mode, workers, ..ORACLE };
                case.check(reference, &p, &format!("case {case_no} {p:?}"));
            }
        }
    });
    assert!(joins > 0, "no join plan drawn");
}

/// `Kernels` and `Reference` pulled from the case's jittered, partitioned,
/// bounded source on one and two workers, killed after two fronts and
/// resumed against the commit log: every run lands on the oracle's bits.
#[test]
fn kernels_match_reference_under_jittered_source_kill_resume() {
    let (mut joins, mut kills) = (0, 0);
    for_each_case(SEED ^ 0x4a, 16, |case_no, case, reference, _| {
        joins += usize::from(case.join);
        for mode in [Mode::Kernels, Mode::Reference] {
            for workers in [1, 2] {
                let p = Point { mode, workers, feed: Feed::Jittered, kill: Some(2), ..ORACLE };
                kills += usize::from(case.check(reference, &p, &format!("case {case_no} {p:?}")).1);
            }
        }
    });
    assert!(joins > 0 && kills > 0, "joins {joins}, kills {kills}");
}

/// The kernels workload on every mode at one and four workers against the
/// `Reference` one-worker run; the `Kernels` run is the golden one.
#[test]
fn tpch_workload_kernels_match_reference() {
    let (data, planned) = kernels_workload(6);
    let feeds = insert_feeds(&data.data);
    let run = |mode: Mode, workers| {
        run_vec(&planned, &data, &feeds, SourceOptions { workers, ..mode.options() })
    };
    let reference = run(Mode::Reference, 1);
    for mode in MODES {
        for workers in [1, 4] {
            if (mode, workers) == (Mode::Reference, 1) {
                continue;
            }
            let got = run(mode, workers);
            assert_same(&reference, &got, &format!("{mode:?} {workers}w"));
            if (mode, workers) == (Mode::Kernels, 1) {
                assert_golden(&got, &KERNELS, "kernels");
            }
        }
    }
}
