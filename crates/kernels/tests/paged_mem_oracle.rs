//! Oracle for the emulator's page-granular memory: `PagedMem` must agree,
//! read for read, with a byte-wise reference model.
//!
//! `PagedMem` copies whole in-page accesses and data-image chunks and
//! keeps a per-byte path only for accesses that straddle a page. The
//! reference here is the plainest possible memory: one `BTreeMap` entry
//! per written byte, zero for everything else, and a set of the pages any
//! write touched. The generated addresses cluster at page boundaries (so
//! accesses straddle them), reach into pages nothing maps, and include the
//! top of the address space, where a straddling access wraps to page 0.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use racesim_isa::Program;
use racesim_kernels::emu::{Machine, PagedMem};

const PAGE: u64 = 4096;

/// Byte-wise reference memory.
#[derive(Default)]
struct Reference {
    bytes: BTreeMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl Reference {
    fn write_u8(&mut self, addr: u64, v: u8) {
        self.bytes.insert(addr, v);
        self.pages.insert(addr / PAGE);
    }

    fn read_le(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | (b as u64) << (8 * i)
        })
    }

    fn write_le(&mut self, addr: u64, n: u64, v: u64) {
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }
}

/// An address near a page boundary of one of a few pages: low memory, the
/// kernels' data region, or the last pages of the address space.
fn any_addr() -> impl Strategy<Value = u64> {
    let base = prop_oneof![
        Just(0u64),
        Just(racesim_isa::DEFAULT_DATA_BASE),
        Just(u64::MAX - 3 * PAGE + 1),
    ];
    let offset = prop_oneof![0..24u64, (PAGE - 24)..(PAGE + 24), 0..4 * PAGE];
    (base, offset).prop_map(|(b, o)| b.wrapping_add(o))
}

/// A data-image segment: up to three pages of bytes at an edge address.
fn any_segment() -> impl Strategy<Value = (u64, Vec<u8>)> {
    let len = prop_oneof![0..16usize, 0..3 * PAGE as usize];
    (any_addr(), len, any::<u8>()).prop_map(|(addr, len, seed)| {
        let bytes = (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect();
        (addr, bytes)
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64, u64),
    Write(u64, u64, u64),
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any_addr(), 1..=8u64).prop_map(|(a, n)| Op::Read(a, n)),
        (any_addr(), 1..=8u64, any::<u64>()).prop_map(|(a, n, v)| Op::Write(a, n, v)),
    ]
}

/// Runs `ops` against both memories, checking every read, then checks the
/// footprint and a read at every address either side touched.
fn agree(mem: &mut PagedMem, reference: &mut Reference, ops: &[Op]) {
    let mut touched: BTreeSet<u64> = reference.bytes.keys().copied().collect();
    for &op in ops {
        match op {
            Op::Read(a, n) => {
                assert_eq!(mem.read_le(a, n), reference.read_le(a, n), "{op:?}");
            }
            Op::Write(a, n, v) => {
                mem.write_le(a, n, v);
                reference.write_le(a, n, v);
                touched.extend((0..n).map(|i| a.wrapping_add(i)));
            }
        }
    }
    assert_eq!(mem.mapped_pages(), reference.pages.len(), "mapped pages");
    for &a in &touched {
        assert_eq!(
            u64::from(mem.read_u8(a)),
            reference.read_le(a, 1),
            "byte at {a:#x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random in-page and straddling loads and stores of every width.
    #[test]
    fn paged_mem_matches_the_bytewise_reference(
        ops in collection::vec(any_op(), 1..64),
    ) {
        agree(&mut PagedMem::new(), &mut Reference::default(), &ops);
    }

    /// The data image (possibly overlapping, page-crossing segments, in
    /// program order) lands byte for byte, and later accesses agree.
    #[test]
    fn data_image_loads_match_the_bytewise_reference(
        data in collection::vec(any_segment(), 0..4),
        ops in collection::vec(any_op(), 0..32),
    ) {
        let mut reference = Reference::default();
        for (addr, bytes) in &data {
            for (i, &b) in bytes.iter().enumerate() {
                reference.write_u8(addr.wrapping_add(i as u64), b);
            }
        }
        let program = Program { data, ..Program::new(Vec::new()) };
        let mut machine = Machine::new(&program);
        agree(&mut machine.mem, &mut reference, &ops);
    }
}

#[test]
fn zero_width_accesses_touch_nothing() {
    let mut mem = PagedMem::new();
    mem.write_le(PAGE - 1, 0, u64::MAX);
    assert_eq!(mem.read_le(PAGE - 1, 0), 0);
    assert_eq!(mem.mapped_pages(), 0);
}
