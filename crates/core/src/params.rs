//! The tunable parameter schema (steps 3 and 4).
//!
//! The paper: "we identify 64 parameters that cannot be accurately
//! adjusted using publicly disclosed information or via latency estimation
//! using lmbench. These parameters are passed to irace. … The list
//! includes pipeline and cache hierarchy configuration parameters …
//! reservation station configuration, branch misprediction penalty, window
//! size, cache bandwidth configurations, victim cache entries, serial and
//! parallel tag and data access in cache, among others."
//!
//! This module defines that list for the racesim models — one entry per
//! undisclosed [`Platform`] field, each with the discrete candidate values
//! handed to the racing tuner — and the mechanical `apply` that turns a
//! tuner [`Configuration`] into a concrete [`Platform`].

use racesim_decoder::{Decoder, Quirks};
use racesim_kernels::{microbench_suite, microbench_suite_initialized, Scale, Workload};
use racesim_mem::{IndexHash, PrefetchWhere, PrefetcherConfig, Replacement, TagAccess};
use racesim_race::{Configuration, ParamSpace};
use racesim_sim::Platform;
use racesim_uarch::branch::{DirPredictorConfig, IndirectPredictorConfig};
use racesim_uarch::CoreKind;

/// Which state of the simulator's feature set is being validated.
///
/// [`Revision::Initial`] is the model as first brought up (Section IV-B):
/// no indirect-branch predictor, no GHB prefetcher, mask-only cache
/// indexing, the Capstone-like decoder bugs still present, and the two
/// memory kernels still reading uninitialised arrays. [`Revision::Fixed`]
/// is the model after the "fix error source" loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Revision {
    /// First bring-up: abstraction errors still in place.
    Initial,
    /// After the step-5 fixes.
    Fixed,
}

impl Revision {
    /// Whether the decoder bugs are fixed in this revision.
    pub fn decoder_fixed(&self) -> bool {
        matches!(self, Revision::Fixed)
    }

    /// Whether the micro-benchmark arrays are initialised before
    /// simulation in this revision.
    pub fn arrays_initialized(&self) -> bool {
        matches!(self, Revision::Fixed)
    }

    /// The decoder this revision simulates with.
    pub fn decoder(&self) -> Decoder {
        if self.decoder_fixed() {
            Decoder::new()
        } else {
            Decoder::with_quirks(Quirks::capstone_like())
        }
    }

    /// The micro-benchmark suite this revision tunes on.
    pub fn suite(&self, scale: Scale) -> Vec<Workload> {
        if self.arrays_initialized() {
            microbench_suite_initialized(scale)
        } else {
            microbench_suite(scale)
        }
    }
}

/// Builds the tunable parameter space for a core kind under a model
/// revision.
///
/// Shared parameters cover the branch unit, execution latencies, cache
/// hierarchy, prefetching and DRAM; kind-specific parameters cover the
/// in-order or out-of-order engine. The `Initial` revision omits the
/// features that model does not yet have.
pub fn build_space(kind: CoreKind, revision: Revision) -> ParamSpace {
    let mut s = ParamSpace::new();
    let fixed = revision == Revision::Fixed;

    // --- Branch unit ---------------------------------------------------
    s.add_categorical(
        "branch.predictor",
        &["bimodal", "gshare", "tournament", "static_taken"],
    );
    s.add_integer("branch.table_bits", &[8, 10, 11, 12]);
    s.add_integer("branch.history_bits", &[4, 6, 8, 10, 12]);
    s.add_integer("branch.btb_entries", &[128, 256, 512, 1024, 2048]);
    s.add_integer("branch.btb_ways", &[1, 2, 4]);
    if fixed {
        s.add_categorical("branch.indirect", &["btb_only", "path_history"]);
        s.add_integer("branch.indirect_table_bits", &[7, 9, 11]);
        s.add_integer("branch.indirect_history_bits", &[5, 7, 9]);
    }
    s.add_integer("branch.ras_entries", &[4, 8, 16, 32]);
    s.add_integer("branch.mispredict_penalty", &[5, 7, 9, 11, 13, 15]);
    s.add_integer("branch.btb_miss_penalty", &[1, 2, 3]);

    // --- Front end -------------------------------------------------------
    s.add_integer("frontend.depth", &[2, 3, 4, 5, 6]);

    // --- Execution latencies ---------------------------------------------
    s.add_integer("lat.int_mul", &[2, 3, 4, 5]);
    s.add_integer("lat.int_div", &[8, 10, 12, 13, 14, 16, 20]);
    s.add_integer("lat.fp_add", &[3, 4, 5, 6]);
    s.add_integer("lat.fp_mul", &[3, 4, 5, 6]);
    s.add_integer("lat.fp_div", &[14, 18, 22, 25, 28, 32]);
    s.add_integer("lat.fp_sqrt", &[14, 18, 22, 25, 28, 32]);
    s.add_integer("lat.fp_cvt", &[2, 3, 4, 5, 6]);
    s.add_integer("lat.fp_mov", &[1, 2, 3]);
    s.add_integer("lat.simd_alu", &[1, 2, 3, 4]);
    s.add_integer("lat.simd_mul", &[3, 4, 5]);
    s.add_integer("lat.simd_fp_add", &[3, 4, 5]);
    s.add_integer("lat.simd_fp_mul", &[3, 4, 5]);
    s.add_integer("lat.simd_fma", &[5, 6, 7, 8, 9]);

    // --- Engine-specific --------------------------------------------------
    match kind {
        CoreKind::InOrder => {
            s.add_integer("inorder.int_alu_units", &[1, 2, 3]);
            s.add_integer("inorder.fp_units", &[1, 2]);
            s.add_bool("inorder.div_blocking");
            s.add_integer("inorder.store_buffer", &[2, 4, 6, 8, 12]);
            s.add_integer("inorder.mem_per_cycle", &[1, 2]);
        }
        CoreKind::OutOfOrder => {
            s.add_integer("ooo.rob_entries", &[64, 96, 128, 160, 192]);
            s.add_integer("ooo.iq_entries", &[24, 32, 44, 56, 66]);
            s.add_integer("ooo.lq_entries", &[8, 12, 16, 24, 32]);
            s.add_integer("ooo.sq_entries", &[8, 12, 16, 24]);
            s.add_integer("ooo.retire_width", &[2, 3, 4]);
            s.add_integer("ooo.int_alu_ports", &[1, 2, 3]);
            s.add_integer("ooo.int_mul_ports", &[1, 2]);
            s.add_integer("ooo.fp_ports", &[1, 2, 3]);
            s.add_integer("ooo.stlf_latency", &[2, 3, 4, 5, 6]);
            s.add_bool("ooo.div_blocking");
        }
    }

    // --- Caches ------------------------------------------------------------
    for level in ["l1i", "l1d", "l2"] {
        s.add_categorical(
            &format!("{level}.replacement"),
            &["lru", "plru", "random", "fifo"],
        );
        s.add_categorical(&format!("{level}.tag_access"), &["parallel", "serial"]);
        if fixed {
            s.add_categorical(&format!("{level}.hash"), &["mask", "xor", "mersenne"]);
        }
    }
    s.add_integer("l1d.mshrs", &[1, 2, 3, 4, 6, 8]);
    s.add_integer("l1d.ports", &[1, 2]);
    s.add_integer("l1d.victim_entries", &[0, 4, 8]);
    s.add_bool("l1d.write_allocate");
    s.add_integer("l2.mshrs", &[4, 6, 8, 11, 16]);
    s.add_integer("l2.ports", &[1, 2]);
    s.add_integer("l2.victim_entries", &[0, 8, 16]);

    // --- Prefetcher ----------------------------------------------------------
    if fixed {
        s.add_categorical("pf.kind", &["none", "next_line", "stride", "ghb"]);
    } else {
        s.add_categorical("pf.kind", &["none", "next_line", "stride"]);
    }
    s.add_integer("pf.table", &[16, 32, 64, 128, 256]);
    s.add_integer("pf.degree", &[1, 2, 3, 4, 6]);
    s.add_categorical("pf.where", &["l1", "l2"]);
    s.add_bool("pf.on_pf_hit");
    if fixed {
        s.add_integer("pf.ghb_buffer", &[64, 128, 256]);
    }

    // --- Main memory ------------------------------------------------------------
    s.add_integer("dram.latency", &[140, 160, 170, 180, 190, 210]);
    s.add_integer("dram.bytes_per_cycle", &[4, 8, 16, 32]);

    s
}

/// The user's step-3 best guesses: the values a careful reader of the TRM
/// would pick without any tuning.
pub fn best_guess(space: &ParamSpace, kind: CoreKind) -> Configuration {
    let mut c = space.default_configuration();
    c.set_categorical(space, "branch.predictor", "bimodal");
    c.set_integer(space, "branch.table_bits", 12);
    c.set_integer(space, "branch.history_bits", 8);
    c.set_integer(space, "branch.btb_entries", 256);
    c.set_integer(space, "branch.btb_ways", 2);
    c.set_integer(space, "branch.ras_entries", 8);
    c.set_integer(space, "branch.mispredict_penalty", 7);
    c.set_integer(space, "branch.btb_miss_penalty", 2);
    c.set_integer(space, "frontend.depth", 3);
    c.set_integer(space, "lat.int_mul", 3);
    c.set_integer(space, "lat.int_div", 12);
    c.set_integer(space, "lat.fp_add", 4);
    c.set_integer(space, "lat.fp_mul", 4);
    c.set_integer(space, "lat.fp_div", 22);
    c.set_integer(space, "lat.fp_sqrt", 22);
    c.set_integer(space, "lat.fp_cvt", 4);
    c.set_integer(space, "lat.fp_mov", 2);
    c.set_integer(space, "lat.simd_alu", 2);
    c.set_integer(space, "lat.simd_mul", 4);
    c.set_integer(space, "lat.simd_fp_add", 4);
    c.set_integer(space, "lat.simd_fp_mul", 4);
    c.set_integer(space, "lat.simd_fma", 8);
    match kind {
        CoreKind::InOrder => {
            c.set_integer(space, "inorder.int_alu_units", 2);
            c.set_integer(space, "inorder.fp_units", 1);
            c.set_flag(space, "inorder.div_blocking", true);
            c.set_integer(space, "inorder.store_buffer", 4);
            c.set_integer(space, "inorder.mem_per_cycle", 1);
        }
        CoreKind::OutOfOrder => {
            c.set_integer(space, "ooo.rob_entries", 128);
            c.set_integer(space, "ooo.iq_entries", 32);
            c.set_integer(space, "ooo.lq_entries", 16);
            c.set_integer(space, "ooo.sq_entries", 16);
            c.set_integer(space, "ooo.retire_width", 3);
            c.set_integer(space, "ooo.int_alu_ports", 2);
            c.set_integer(space, "ooo.int_mul_ports", 1);
            c.set_integer(space, "ooo.fp_ports", 2);
            c.set_integer(space, "ooo.stlf_latency", 4);
            c.set_flag(space, "ooo.div_blocking", true);
        }
    }
    for level in ["l1i", "l1d", "l2"] {
        c.set_categorical(space, &format!("{level}.replacement"), "lru");
    }
    c.set_categorical(space, "l1i.tag_access", "parallel");
    c.set_categorical(space, "l1d.tag_access", "parallel");
    c.set_categorical(space, "l2.tag_access", "serial");
    c.set_integer(space, "l1d.mshrs", 4);
    c.set_integer(space, "l1d.ports", 1);
    c.set_integer(space, "l1d.victim_entries", 0);
    c.set_flag(space, "l1d.write_allocate", true);
    c.set_integer(space, "l2.mshrs", 8);
    c.set_integer(space, "l2.ports", 1);
    c.set_integer(space, "l2.victim_entries", 0);
    c.set_categorical(space, "pf.kind", "none");
    c.set_integer(space, "pf.table", 64);
    c.set_integer(space, "pf.degree", 2);
    c.set_categorical(space, "pf.where", "l1");
    c.set_flag(space, "pf.on_pf_hit", false);
    c.set_integer(space, "dram.latency", 170);
    c.set_integer(space, "dram.bytes_per_cycle", 8);
    c
}

/// Applies a tuner configuration onto a base platform, producing the
/// concrete platform to simulate.
pub fn apply(space: &ParamSpace, cfg: &Configuration, base: &Platform) -> Platform {
    let mut p = base.clone();
    let has = |name: &str| space.params().iter().any(|q| q.name == name);

    // Branch unit.
    let tb = cfg.integer(space, "branch.table_bits") as u8;
    let hb = cfg.integer(space, "branch.history_bits") as u8;
    p.core.branch.direction = match cfg.categorical(space, "branch.predictor") {
        "static_taken" => DirPredictorConfig::StaticTaken,
        "bimodal" => DirPredictorConfig::Bimodal { table_bits: tb },
        "gshare" => DirPredictorConfig::Gshare {
            table_bits: tb,
            history_bits: hb,
        },
        _ => DirPredictorConfig::Tournament {
            table_bits: tb,
            history_bits: hb,
        },
    };
    p.core.branch.btb_entries = cfg.integer(space, "branch.btb_entries") as u32;
    p.core.branch.btb_ways = cfg.integer(space, "branch.btb_ways") as u32;
    p.core.branch.indirect =
        if has("branch.indirect") && cfg.categorical(space, "branch.indirect") == "path_history" {
            IndirectPredictorConfig::PathHistory {
                table_bits: cfg.integer(space, "branch.indirect_table_bits") as u8,
                history_bits: cfg.integer(space, "branch.indirect_history_bits") as u8,
            }
        } else {
            IndirectPredictorConfig::BtbOnly
        };
    p.core.branch.ras_entries = cfg.integer(space, "branch.ras_entries") as u32;
    p.core.branch.mispredict_penalty = cfg.integer(space, "branch.mispredict_penalty") as u64;
    p.core.branch.btb_miss_penalty = cfg.integer(space, "branch.btb_miss_penalty") as u64;
    p.core.frontend.depth = cfg.integer(space, "frontend.depth") as u8;

    // Latencies.
    p.core.lat.int_mul = cfg.integer(space, "lat.int_mul") as u64;
    p.core.lat.int_div = cfg.integer(space, "lat.int_div") as u64;
    p.core.lat.fp_add = cfg.integer(space, "lat.fp_add") as u64;
    p.core.lat.fp_mul = cfg.integer(space, "lat.fp_mul") as u64;
    p.core.lat.fp_div = cfg.integer(space, "lat.fp_div") as u64;
    p.core.lat.fp_sqrt = cfg.integer(space, "lat.fp_sqrt") as u64;
    p.core.lat.fp_cvt = cfg.integer(space, "lat.fp_cvt") as u64;
    p.core.lat.fp_mov = cfg.integer(space, "lat.fp_mov") as u64;
    p.core.lat.simd_alu = cfg.integer(space, "lat.simd_alu") as u64;
    p.core.lat.simd_mul = cfg.integer(space, "lat.simd_mul") as u64;
    p.core.lat.simd_fp_add = cfg.integer(space, "lat.simd_fp_add") as u64;
    p.core.lat.simd_fp_mul = cfg.integer(space, "lat.simd_fp_mul") as u64;
    p.core.lat.simd_fma = cfg.integer(space, "lat.simd_fma") as u64;

    // Engine.
    if has("inorder.int_alu_units") {
        p.core.inorder.int_alu_units = cfg.integer(space, "inorder.int_alu_units") as u8;
        p.core.inorder.fp_units = cfg.integer(space, "inorder.fp_units") as u8;
        p.core.inorder.div_blocking = cfg.flag(space, "inorder.div_blocking");
        p.core.inorder.store_buffer = cfg.integer(space, "inorder.store_buffer") as u8;
        p.core.inorder.mem_per_cycle = cfg.integer(space, "inorder.mem_per_cycle") as u8;
    }
    if has("ooo.rob_entries") {
        p.core.ooo.rob_entries = cfg.integer(space, "ooo.rob_entries") as u16;
        p.core.ooo.iq_entries = cfg.integer(space, "ooo.iq_entries") as u16;
        p.core.ooo.lq_entries = cfg.integer(space, "ooo.lq_entries") as u16;
        p.core.ooo.sq_entries = cfg.integer(space, "ooo.sq_entries") as u16;
        p.core.ooo.retire_width = cfg.integer(space, "ooo.retire_width") as u8;
        p.core.ooo.ports.int_alu = cfg.integer(space, "ooo.int_alu_ports") as u8;
        p.core.ooo.ports.int_mul = cfg.integer(space, "ooo.int_mul_ports") as u8;
        p.core.ooo.ports.fp = cfg.integer(space, "ooo.fp_ports") as u8;
        p.core.ooo.stlf_latency = cfg.integer(space, "ooo.stlf_latency") as u64;
        p.core.ooo.div_blocking = cfg.flag(space, "ooo.div_blocking");
    }

    // Caches.
    let repl = |v: &str| match v {
        "plru" => Replacement::PseudoLru,
        "random" => Replacement::Random,
        "fifo" => Replacement::Fifo,
        _ => Replacement::Lru,
    };
    let tag = |v: &str| match v {
        "serial" => TagAccess::Serial,
        _ => TagAccess::Parallel,
    };
    let hash = |v: &str| match v {
        "xor" => IndexHash::Xor,
        "mersenne" => IndexHash::MersenneMod,
        _ => IndexHash::Mask,
    };
    p.mem.l1i.replacement = repl(cfg.categorical(space, "l1i.replacement"));
    p.mem.l1d.replacement = repl(cfg.categorical(space, "l1d.replacement"));
    p.mem.l2.replacement = repl(cfg.categorical(space, "l2.replacement"));
    p.mem.l1i.tag_access = tag(cfg.categorical(space, "l1i.tag_access"));
    p.mem.l1d.tag_access = tag(cfg.categorical(space, "l1d.tag_access"));
    p.mem.l2.tag_access = tag(cfg.categorical(space, "l2.tag_access"));
    if has("l1i.hash") {
        p.mem.l1i.hash = hash(cfg.categorical(space, "l1i.hash"));
        p.mem.l1d.hash = hash(cfg.categorical(space, "l1d.hash"));
        p.mem.l2.hash = hash(cfg.categorical(space, "l2.hash"));
    } else {
        p.mem.l1i.hash = IndexHash::Mask;
        p.mem.l1d.hash = IndexHash::Mask;
        p.mem.l2.hash = IndexHash::Mask;
    }
    p.mem.l1d.mshrs = cfg.integer(space, "l1d.mshrs") as u32;
    p.mem.l1d.ports = cfg.integer(space, "l1d.ports") as u32;
    p.mem.l1d.victim_entries = cfg.integer(space, "l1d.victim_entries") as u32;
    p.mem.l1d.write_allocate = cfg.flag(space, "l1d.write_allocate");
    p.mem.l2.mshrs = cfg.integer(space, "l2.mshrs") as u32;
    p.mem.l2.ports = cfg.integer(space, "l2.ports") as u32;
    p.mem.l2.victim_entries = cfg.integer(space, "l2.victim_entries") as u32;

    // Prefetcher.
    let table = cfg.integer(space, "pf.table") as u32;
    let degree = cfg.integer(space, "pf.degree") as u8;
    p.mem.prefetcher = match cfg.categorical(space, "pf.kind") {
        "none" => PrefetcherConfig::None,
        "next_line" => PrefetcherConfig::NextLine,
        "ghb" => PrefetcherConfig::Ghb {
            buffer_entries: if has("pf.ghb_buffer") {
                cfg.integer(space, "pf.ghb_buffer") as u32
            } else {
                128
            },
            index_entries: table,
            degree,
        },
        _ => PrefetcherConfig::Stride {
            table_entries: table,
            degree,
        },
    };
    p.mem.prefetch_where = match cfg.categorical(space, "pf.where") {
        "l2" => PrefetchWhere::L2,
        _ => PrefetchWhere::L1,
    };
    p.mem.prefetch_on_prefetch_hit = cfg.flag(space, "pf.on_pf_hit");

    // DRAM.
    p.mem.dram.latency = cfg.integer(space, "dram.latency") as u64;
    p.mem.dram.bytes_per_cycle = cfg.integer(space, "dram.bytes_per_cycle") as u32;

    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_sizes_match_the_papers_order_of_magnitude() {
        // The paper counts 64 undisclosed parameters; our schema lands in
        // the same range for both models.
        let io = build_space(CoreKind::InOrder, Revision::Fixed);
        let ooo = build_space(CoreKind::OutOfOrder, Revision::Fixed);
        assert!(
            (50..=70).contains(&io.len()),
            "in-order space: {}",
            io.len()
        );
        assert!(
            (55..=75).contains(&ooo.len()),
            "out-of-order space: {}",
            ooo.len()
        );
        // Intractable by exhaustive search (the motivation for racing).
        assert!(io.cardinality() > 1u128 << 60);
    }

    #[test]
    fn initial_revision_lacks_the_missing_features() {
        let s = build_space(CoreKind::InOrder, Revision::Initial);
        assert!(!s.params().iter().any(|p| p.name == "branch.indirect"));
        assert!(!s.params().iter().any(|p| p.name == "l1d.hash"));
        assert!(!s.params().iter().any(|p| p.name == "pf.ghb_buffer"));
        assert!(!Revision::Initial.decoder_fixed());
        assert!(Revision::Fixed.arrays_initialized());
    }

    #[test]
    fn best_guess_applies_cleanly_to_both_kinds() {
        for (kind, base) in [
            (CoreKind::InOrder, Platform::a53_like()),
            (CoreKind::OutOfOrder, Platform::a72_like()),
        ] {
            for revision in [Revision::Initial, Revision::Fixed] {
                let s = build_space(kind, revision);
                let guess = best_guess(&s, kind);
                let p = apply(&s, &guess, &base);
                assert_eq!(p.core.kind, kind);
                assert_eq!(p.mem.prefetcher, PrefetcherConfig::None);
                assert_eq!(p.core.branch.mispredict_penalty, 7);
            }
        }
    }

    #[test]
    fn apply_reaches_every_subsystem() {
        let s = build_space(CoreKind::OutOfOrder, Revision::Fixed);
        let mut c = best_guess(&s, CoreKind::OutOfOrder);
        c.set_categorical(&s, "branch.predictor", "tournament");
        c.set_categorical(&s, "l2.hash", "mersenne");
        c.set_categorical(&s, "pf.kind", "ghb");
        c.set_integer(&s, "ooo.rob_entries", 192);
        c.set_flag(&s, "l1d.write_allocate", false);
        let p = apply(&s, &c, &Platform::a72_like());
        assert!(matches!(
            p.core.branch.direction,
            DirPredictorConfig::Tournament { .. }
        ));
        assert_eq!(p.mem.l2.hash, IndexHash::MersenneMod);
        assert!(matches!(p.mem.prefetcher, PrefetcherConfig::Ghb { .. }));
        assert_eq!(p.core.ooo.rob_entries, 192);
        assert!(!p.mem.l1d.write_allocate);
    }

    #[test]
    fn base_platform_fields_not_in_the_space_are_preserved() {
        // Cache sizes come from public information, not tuning.
        let s = build_space(CoreKind::InOrder, Revision::Fixed);
        let guess = best_guess(&s, CoreKind::InOrder);
        let mut base = Platform::a53_like();
        base.mem.l1d.size_kb = 32;
        base.mem.l2.size_kb = 512;
        let p = apply(&s, &guess, &base);
        assert_eq!(p.mem.l1d.size_kb, 32);
        assert_eq!(p.mem.l2.size_kb, 512);
        assert_eq!(p.name, base.name);
    }
}
