//! Trace identity: every shipped workload records the same trace, byte for
//! byte, as the reference constants below.
//!
//! The functional emulator is the front end of every campaign. A change
//! to it (memory layout, instruction semantics, record construction) must
//! not move a single byte of any trace, or every tuned model and golden
//! fixture downstream shifts with it. Each workload's trace is serialised
//! with `TraceBuffer::write_to` and fingerprinted with FNV-1a, a digest
//! defined here so that it cannot change with the standard library.
//!
//! To re-record the constants after an intentional trace change, run
//! `cargo test --test trace_identity -- --nocapture` and copy the printed
//! table.

use racesim::kernels::{microbench_suite, probes, spec_suite};
use racesim::prelude::*;

/// Scale of the micro kernels and SPEC proxies (probes are fixed-size).
const SCALE: u64 = 2048;

/// `(workload, trace records, FNV-1a of the serialised trace)`.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("MC", 883, 0x8e93bf7c5b92720f),
    ("MCS", 517, 0xb0df4418251208fd),
    ("MD", 513, 0x1b07666c6ce0b0d6),
    ("MI", 24581, 0xfa4d1cf718ecd15f),
    ("MIM", 40965, 0x81c0bfdf509e6325),
    ("MIM2", 40973, 0x9264b0bf7936641c),
    ("MIP", 49157, 0x0642522527d0d45c),
    ("ML2", 513, 0x14739111fcbfc957),
    ("ML2_BW_ld", 1542, 0xc0e200be8308bb0c),
    ("ML2_BW_ldst", 510, 0x84fd977bfcb4a190),
    ("ML2_BW_st", 510, 0x911ff1e91f9fb4b8),
    ("ML2_st", 517, 0x32a8943d40dbff47),
    ("MM", 517, 0xdd551737710c0e50),
    ("MM_st", 967, 0xcaf4925dcd3f1763),
    ("M_Dyn", 742, 0x54c75ee63ba042bb),
    ("CCa", 512, 0x7eb8351fd9940fb5),
    ("CCe", 470, 0xc0d4681aadd3220e),
    ("CCh", 1355, 0xef5489835dc3785d),
    ("CCh_st", 506, 0xf4b9c39d6cc46294),
    ("CCl", 661, 0xe1a7d1e2834ead9f),
    ("CCm", 502, 0xfcd61cffdaf9ac7b),
    ("CF1", 484, 0xf9a4d10b7ef6ab96),
    ("CRd", 525, 0xfc5dc1b8e4bd5fb6),
    ("CRf", 511, 0x651613842e7498c1),
    ("CRm", 419, 0x6e24e5004128bfbb),
    ("CS1", 1157, 0x2762cf09b95bf735),
    ("CS3", 18252, 0xc0359690d917051c),
    ("DP1d", 2371, 0x3c63b9a97b361acd),
    ("DP1f", 2535, 0xf36ec9e0e6a72086),
    ("DPcvt", 17914, 0x4809fb6a8c2015de),
    ("DPT", 587, 0x84041077856a098d),
    ("DPTd", 659, 0x2118b73364428404),
    ("ED1", 512, 0xbd2e9933e23c2f4a),
    ("EF", 514, 0x2ffd5d8798a68c82),
    ("EI", 2551, 0x7a5c3700630fb956),
    ("EM1", 513, 0x45b2d989d548c6d6),
    ("EM5", 518, 0xf89843194e6f3ab2),
    ("STL2", 618, 0x40a469ae01c5f751),
    ("STL2b", 546, 0x48d7123f6fc60963),
    ("STc", 517, 0x32131484803c9ec9),
    ("mcf", 11920, 0x0dbd1db37570c59d),
    ("povray", 31820, 0x0feb7b35947b255f),
    ("omnetpp", 46765, 0xe2e91b21d93676b5),
    ("xalancbmk", 81269, 0x1976f2e21590fb01),
    ("deepsjeng", 24531, 0xf48bc94659d47ef5),
    ("x264", 24674, 0x027981540920c294),
    ("nab", 14685, 0x38b03fee9a2ca3f1),
    ("leela", 25252, 0x7f2f14051da85df2),
    ("imagick", 16066, 0x42b265a5fce9e304),
    ("gcc", 107857, 0x2952cdb3582385f1),
    ("xz", 11041, 0x710421c8faef8464),
    ("lat_mem_rd_4k", 49155, 0x60d5351dfcd85ef1),
    ("lat_mem_rd_8k", 98307, 0xf247b8727a4571b8),
    ("lat_mem_rd_16k", 98307, 0x8affc8b50904e264),
    ("lat_mem_rd_64k", 98307, 0x788f28cd16dd62e3),
    ("lat_mem_rd_128k", 98307, 0x14dea1e093dcf5a2),
    ("lat_mem_rd_256k", 98307, 0x7cd05276b2a636c6),
    ("lat_mem_rd_2048k", 196611, 0x241bf84e655b3436),
    ("lat_mem_rd_4096k", 393220, 0x2557946f791f6e06),
    ("lat_icache_16k", 262273, 0x5c5be2e51f348f97),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every shipped workload: the 40 micro kernels, the 11 SPEC proxies, the
/// `lat_mem_rd` ladder and a `lat_icache` probe.
fn shipped_workloads() -> Vec<Workload> {
    let scale = Scale::divide_by(SCALE);
    let mut all = microbench_suite(scale);
    all.extend(spec_suite(scale));
    all.extend(probes::probe_ladder());
    all.push(probes::lat_icache(16));
    all
}

#[test]
fn every_shipped_trace_is_byte_identical_to_the_reference() {
    let mut actual = Vec::new();
    for w in shipped_workloads() {
        let trace = w.trace().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let bytes = trace.write_to(Vec::new()).expect("in-memory write");
        actual.push((w.name, trace.len() as u64, fnv1a(&bytes)));
    }
    for (name, records, digest) in &actual {
        println!("    (\"{name}\", {records}, {digest:#018x}),");
    }
    let expected: Vec<(String, u64, u64)> = EXPECTED
        .iter()
        .map(|&(n, r, d)| (n.to_string(), r, d))
        .collect();
    assert_eq!(actual.len(), 40 + 11 + 8 + 1, "workload inventory");
    assert_eq!(actual, expected, "trace records or bytes moved");
}
