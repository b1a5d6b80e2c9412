//! The obs face of the differential lattice (`tests/lattice.rs`) and the
//! pinned thread-count shim: the opt-in instrumentation changes neither
//! answers nor charges, every obs-on run charges each subplan × `OpKind`
//! cell and each slack-ledger sample to the bit, and
//! `execute_from_source_parallel_obs` runs the inline loop at any count.

mod harness;

use harness::*;
use ishare::stream::{
    execute_from_source_parallel_obs, insert_feeds, ObsConfig, Source, SourceOptions,
};
use ishare_common::CostWeights;

/// `Kernels`, `Vec`-fed with obs {off, on} and pulled in order through the
/// shim at 1/2/4/8 threads with obs on, against the oracle run; every
/// obs-on run agrees with the others.
#[test]
fn parallel_matches_sequential() {
    for_each_case(SEED ^ 0x2a, 24, |case_no, case, reference, _| {
        let mut obs_pin: Option<Digest> = None;
        for obs in [false, true] {
            let p = Point { mode: Mode::Kernels, obs, ..ORACLE };
            let label = format!("case {case_no} {p:?}");
            let (got, _) = case.check(reference, &p, &label);
            if obs {
                pin(&mut obs_pin, got, &label);
            }
        }
        let opts = case.options(&Point { mode: Mode::Kernels, obs: true, ..ORACLE });
        for threads in [1, 2, 4, 8] {
            let (c, w, mut source) =
                (case.catalog, CostWeights::default(), Source::in_order(&case.feeds));
            let (plan, paces) = (&case.plan, &case.paces);
            let out = execute_from_source_parallel_obs(
                plan,
                paces,
                c,
                &mut source,
                w,
                threads,
                opts.clone(),
            );
            let label = format!("case {case_no} {threads} threads");
            let got = Ran::fixed(out.unwrap()).done(&label);
            assert_same(reference, &got, &label);
            pin(&mut obs_pin, Digest { log: None, ..got }, &label);
        }
    });
}

/// The kernels workload with obs on through the shim at 1/2/4/8 threads:
/// each run matches the `Vec`-fed obs-off run, and all share one
/// per-subplan × per-`OpKind` breakdown and one commit log.
#[test]
fn tpch_workload_parallel_matches_sequential() {
    let (data, planned) = kernels_workload(6);
    let feeds = insert_feeds(&data.data);
    let inline = run_vec(&planned, &data, &feeds, SourceOptions::default());
    let (plan, paces, w) = (&planned.plan, planned.paces.as_slice(), CostWeights::default());
    let mut obs_pin: Option<Digest> = None;
    for threads in [1, 2, 4, 8] {
        let opts = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
        let mut source = Source::in_order(&feeds);
        let out = execute_from_source_parallel_obs(
            plan,
            paces,
            &data.catalog,
            &mut source,
            w,
            threads,
            opts,
        );
        let label = format!("{threads} threads obs on");
        let got = Ran::fixed(out.unwrap()).done(&label);
        assert_same(&inline, &got, &label);
        pin(&mut obs_pin, got, &label);
    }
}
