//! The workers × obs face of the differential lattice (`tests/lattice.rs`):
//! the wavefront workers and the opt-in instrumentation change neither
//! answers nor charges, and every obs-on run charges each subplan ×
//! `OpKind` cell and each slack-ledger sample to the bit at any worker count.

mod harness;

use harness::*;
use ishare::stream::{insert_feeds, ObsConfig, SourceOptions};

/// `Kernels`, `Vec`-fed, at workers {1, 2, 4, 8} × obs {off, on} against the
/// oracle run; the obs-on runs also agree with each other.
#[test]
fn parallel_matches_sequential() {
    for_each_case(SEED ^ 0x2a, 24, |case_no, case, reference, _| {
        let mut obs_pin: Option<Digest> = None;
        for workers in [1, 2, 4, 8] {
            for obs in [false, true] {
                let p = Point { mode: Mode::Kernels, workers, obs, ..ORACLE };
                let label = format!("case {case_no} {p:?}");
                let (got, _) = case.check(reference, &p, &label);
                if obs {
                    pin(&mut obs_pin, got, &label);
                }
            }
        }
    });
}

/// The kernels workload with obs on at 1/2/4/8 workers: each run matches
/// the obs-off one-worker run, and all share one per-subplan × per-`OpKind`
/// breakdown.
#[test]
fn tpch_workload_parallel_matches_sequential() {
    let (data, planned) = kernels_workload(6);
    let feeds = insert_feeds(&data.data);
    let sequential = run_vec(&planned, &data, &feeds, SourceOptions::default());
    let mut obs_pin: Option<Digest> = None;
    for workers in [1, 2, 4, 8] {
        let opts = SourceOptions { workers, obs: Some(ObsConfig::default()), ..Default::default() };
        let got = run_vec(&planned, &data, &feeds, opts);
        let label = format!("{workers}w obs on");
        assert_same(&sequential, &got, &label);
        pin(&mut obs_pin, got, &label);
    }
}
