//! Property test: the static CPI bounds engine is *sound* — every
//! simulated CPI lands inside the kernel's static interval, for random
//! counted-loop kernels and random sampled configurations alike, on both
//! the in-order (A53) and the out-of-order (A72) core.
//!
//! This is the contract `racesim bounds` and the RA60x lints rest on: an
//! interval the simulator can escape reports a CPI range the model never
//! honours. The generator deliberately produces the shapes the abstract
//! interpreter special-cases — self-feeding dependence chains, multi-
//! instruction recurrence cycles through repeatedly-written registers,
//! and independent streams — by drawing destinations and sources from a
//! small register pool.

use proptest::prelude::*;
use racesim_analyzer::bounds::{BoundsOptions, KernelBounds};
use racesim_core::params::{apply, build_space};
use racesim_core::Revision;
use racesim_isa::asm::Asm;
use racesim_isa::Reg;
use racesim_kernels::{microbench_suite_initialized, Category, Scale, Workload};
use racesim_race::SamplingModel;
use racesim_sim::{Platform, Simulator};
use racesim_trace::TraceBuffer;
use racesim_uarch::CoreKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One random body instruction over a 6-integer / 4-vector register
/// pool. Collisions between destinations and sources are the point:
/// they produce chains and cross-register recurrence cycles.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Addi(u8, u8),
    Mul(u8, u8, u8),
    Fadd(u8, u8, u8),
    Fmul(u8, u8, u8),
    Scvtf(u8, u8),
    Fcvtzs(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let x = 0..6u8;
    let v = 0..4u8;
    prop_oneof![
        (x.clone(), x.clone(), x.clone()).prop_map(|(d, n, m)| Op::Add(d, n, m)),
        (x.clone(), x.clone()).prop_map(|(d, n)| Op::Addi(d, n)),
        (x.clone(), x.clone(), x.clone()).prop_map(|(d, n, m)| Op::Mul(d, n, m)),
        (v.clone(), v.clone(), v.clone()).prop_map(|(d, n, m)| Op::Fadd(d, n, m)),
        (v.clone(), v.clone(), v.clone()).prop_map(|(d, n, m)| Op::Fmul(d, n, m)),
        (v.clone(), x.clone()).prop_map(|(d, n)| Op::Scvtf(d, n)),
        (x, v).prop_map(|(d, n)| Op::Fcvtzs(d, n)),
    ]
}

/// Builds a runnable counted-loop kernel from a random body. Registers
/// x1..=x6 hold small integers and v0..=v3 hold small floats so the
/// arithmetic stays finite for the whole run.
fn build_kernel(body: &[Op], trips: u64) -> Workload {
    let mut a = Asm::new();
    for k in 0..6u8 {
        a.movz(Reg::x(1 + k), i64::from(k) + 1);
    }
    for k in 0..4u8 {
        a.scvtf(Reg::v(k), Reg::x(1 + k));
    }
    // The counted-loop idiom the IR's trip-count analysis recognises:
    // dedicated counter, subtract-and-branch back edge.
    a.mov64(Reg::x(28), trips.max(1));
    let top = a.here();
    for op in body {
        match *op {
            Op::Add(d, n, m) => a.add(Reg::x(1 + d), Reg::x(1 + n), Reg::x(1 + m)),
            Op::Addi(d, n) => a.addi(Reg::x(1 + d), Reg::x(1 + n), 1),
            Op::Mul(d, n, m) => a.mul(Reg::x(1 + d), Reg::x(1 + n), Reg::x(1 + m)),
            Op::Fadd(d, n, m) => a.fadd(Reg::v(d), Reg::v(n), Reg::v(m)),
            Op::Fmul(d, n, m) => a.fmul(Reg::v(d), Reg::v(n), Reg::v(m)),
            Op::Scvtf(d, n) => a.scvtf(Reg::v(d), Reg::x(1 + n)),
            Op::Fcvtzs(d, n) => a.fcvtzs(Reg::x(1 + d), Reg::v(n)),
        }
    }
    a.subi(Reg::x(28), Reg::x(28), 1);
    a.cbnz(Reg::x(28), top);
    a.halt();
    let expected = (body.len() as u64 + 2) * trips;
    Workload::new("prop-kernel", Category::Execution, a.finish(), expected)
}

/// Each core's tunable space and the preset its configurations apply to.
const CORES: [(CoreKind, fn() -> Platform); 2] = [
    (CoreKind::InOrder, Platform::a53_like),
    (CoreKind::OutOfOrder, Platform::a72_like),
];

/// A configuration sampled from `kind`'s space by `seed`, applied to `base`.
fn sampled_platform(kind: CoreKind, base: &Platform, seed: u64) -> Platform {
    let space = build_space(kind, Revision::Fixed);
    let model = SamplingModel::new(&space);
    let cfg = model.sample(&space, &mut StdRng::seed_from_u64(seed));
    apply(&space, &cfg, base)
}

/// A kernel's static bounds and recorded trace, built once per kernel
/// and checked against every platform.
struct Checked {
    bounds: KernelBounds,
    trace: TraceBuffer,
}

impl Checked {
    fn new(w: &Workload) -> Checked {
        Checked {
            bounds: KernelBounds::build(&w.name, &w.program, &BoundsOptions::default()),
            trace: w.trace().expect("kernels emulate cleanly"),
        }
    }

    /// Simulates the kernel on `platform` and asserts the CPI lands
    /// inside its static interval.
    fn assert_sound(&self, platform: &Platform) {
        let iv = self.bounds.cpi_interval(platform);
        let stats = Simulator::new(platform.clone())
            .run(&self.trace)
            .expect("kernels simulate");
        let cpi = stats.cpi();
        assert!(
            iv.contains(cpi),
            "static bounds violated on {} ({}): simulated CPI {cpi} outside {iv}",
            self.bounds.name,
            platform.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random kernels x random configurations of each core.
    #[test]
    fn random_kernels_simulate_inside_their_interval(
        body in proptest::collection::vec(op_strategy(), 1..12),
        trips in 4u64..96,
        cfg_seed in any::<u64>(),
    ) {
        let kernel = Checked::new(&build_kernel(&body, trips));
        for (kind, base) in CORES {
            kernel.assert_sound(&sampled_platform(kind, &base(), cfg_seed));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shipped microbenchmark suite x random configurations of each
    /// core: the kernels `racesim bounds` reports on.
    #[test]
    fn shipped_suite_simulates_inside_its_intervals(cfg_seed in any::<u64>()) {
        static SUITE: OnceLock<Vec<Checked>> = OnceLock::new();
        let suite = SUITE.get_or_init(|| {
            microbench_suite_initialized(Scale::TINY).iter().map(Checked::new).collect()
        });
        for (kind, base) in CORES {
            let platform = sampled_platform(kind, &base(), cfg_seed);
            for kernel in suite {
                kernel.assert_sound(&platform);
            }
        }
    }
}
