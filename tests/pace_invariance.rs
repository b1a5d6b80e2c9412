//! The pace face of the differential lattice (`tests/lattice.rs`): a pace
//! configuration changes what a run costs, never what it answers (paper
//! Sec. 2.3 / 5.1). At any paces, obs is passive and the inert options
//! (`ExecMode::Vectorized`, `partitions: 4`) charge exactly what `Kernels`
//! charges, per subplan × per `OpKind`.

mod harness;

use harness::*;

/// The case's paces, all-1 (batch), all-6 and a fresh draw from 1..9: each
/// answers as the oracle run does.
#[test]
fn any_pace_equals_batch() {
    for_each_case(SEED ^ 0x9a, 32, |case_no, case, reference, rng| {
        let n = case.plan.len();
        let drawn = (0..n).map(|_| rng.range(1, 9) as u32).collect();
        for paces in [case.paces.clone(), vec![1; n], vec![6; n], drawn] {
            let label = format!("case {case_no} paces {paces:?}");
            let run = |mode, obs| {
                let p = Point { mode, obs, ..ORACLE };
                case.run(&p, &paces, case.options(&p)).done(&label)
            };
            let kernels = run(Mode::Kernels, false);
            assert!(kernels.results == reference.results, "{label}: results != the oracle's");
            let observed = run(Mode::Kernels, true);
            assert_same(&kernels, &observed, &format!("{label} obs on"));
            assert_same(&observed, &run(Mode::Inert, true), &format!("{label} inert options"));
        }
    });
}
