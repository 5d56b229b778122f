//! Reference-path oracles: every memoised or handed-over value must equal
//! what the simple path computes from scratch, bit for bit.
//!
//! A campaign does not probe the board for every stack it builds:
//! `reference_estimates` runs the probe ladder once per process, and
//! distributed workers receive the coordinator's estimates in their
//! handshake. These tests pin both shortcuts to the plain
//! `estimate_latencies` / `Validator::base_platform` path, on both cores.

use racesim::core::latency::{estimate_latencies, reference_estimates, LatencyEstimates};
use racesim::core::{CampaignSpec, CostMetric, Revision};
use racesim::prelude::*;
use racesim::telemetry::Telemetry;

fn spec(kind: CoreKind) -> CampaignSpec {
    CampaignSpec {
        kind,
        scale: Scale::divide_by(32768),
        budget: 60,
        seed: 1,
        threads: 1,
        workers: 0,
        max_iterations: None,
        static_bounds: false,
        timeout_ms: None,
        fault_profile: "none".to_string(),
        fault_seed: 1,
        frozen: Vec::new(),
    }
}

fn memoised_path_matches_the_probing_path(kind: CoreKind, pinned: LatencyEstimates) {
    let spec = spec(kind);
    let fresh = estimate_latencies(&spec.board()).expect("probes run");
    // The exact estimates of the reference board: a change to the
    // emulator, the board or the probe ladder must not move them.
    assert_eq!(fresh, pinned, "{kind:?} pinned estimates");
    assert_eq!(reference_estimates(kind), Ok(fresh), "{kind:?} estimates");
    // A second call hits the memo and must not drift either.
    assert_eq!(reference_estimates(kind), Ok(fresh), "{kind:?} memo");

    let stack = spec.build_stack(&Telemetry::disabled()).expect("stack");
    let settings = ValidatorSettings {
        kind,
        revision: Revision::Fixed,
        scale: spec.scale,
        tuner: spec.tuner_settings(),
        metric: CostMetric::CpiError,
    };
    let probed = Validator::new(&spec.board(), settings)
        .base_platform()
        .expect("probes run");
    assert_eq!(stack.base, probed, "{kind:?} base platform");
}

#[test]
fn a53_reference_estimates_match_a_fresh_probe_run() {
    let pinned = LatencyEstimates {
        l1d: 3,
        l2: 23,
        dram: 202,
    };
    memoised_path_matches_the_probing_path(CoreKind::InOrder, pinned);
}

#[test]
fn a72_reference_estimates_match_a_fresh_probe_run() {
    let pinned = LatencyEstimates {
        l1d: 4,
        l2: 28,
        dram: 221,
    };
    memoised_path_matches_the_probing_path(CoreKind::OutOfOrder, pinned);
}
