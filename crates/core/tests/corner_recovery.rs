//! A corner-aware run whose PVT corner overloads a buffer the DP placed
//! near its nominal max load. Kept in its own test binary: the C2 runs
//! are heavy, and sharing a binary would load the wall-clock deadline
//! tests of `resilience.rs` running beside them.

use dscts_core::{CtsError, DsCts, RecoveryPolicy, Relaxation};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{CornerSet, Technology};

#[test]
fn corner_aware_c2_reports_typed_infeasibility_and_recovers() {
    // On C2 a buffer the DP placed near its nominal max load overloads
    // under a capacitance-derating PVT corner. Building the optimize
    // stage's evaluator must report that as the typed, recoverable
    // infeasibility — never a caught panic (`CtsError::Internal`) — and
    // the default ladder must climb to the rung that fixes it.
    let tech = Technology::asap7();
    let d = BenchmarkSpec::c2_swerv_wrapper().generate();
    let pipe = DsCts::new(tech.clone()).corners(CornerSet::asap7_pvt(&tech));
    let err = pipe
        .try_run(&d)
        .expect_err("a PVT corner overloads a buffer");
    assert!(
        matches!(err, CtsError::NoFeasiblePattern { .. }),
        "expected the typed infeasibility, got {err:?}"
    );
    let recovered = pipe
        .recovery(RecoveryPolicy::new())
        .try_run(&d)
        .expect("the default ladder rescues the run");
    let rungs: Vec<Relaxation> = recovered.recovery.iter().map(|s| s.relaxation).collect();
    assert_eq!(
        rungs,
        [
            Relaxation::WidenPatternSet,
            Relaxation::RaiseMaxCandidates(4),
            Relaxation::SingleSide,
        ]
    );
    assert_eq!(recovered.recovery[0].error, err);
    let report = recovered.corners.as_ref().expect("corner-aware run");
    assert_eq!(report.per_corner.len(), 3);
    assert_eq!(recovered.tree.validate_sides(), Ok(()));
}
