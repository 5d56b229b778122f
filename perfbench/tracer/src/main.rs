//! `perfbench-tracer`: the traced half of the campaign benchmark.
//!
//! `campaign` drives one `racesim tune` campaign through the public
//! library API, assembling the same stack the CLI assembles, with a timing
//! adapter at each layer's seam (see `layers`). It prints one JSON object
//! of per-layer metrics. `score` re-evaluates a tuned configuration file
//! on the 40 tuning kernels and the 11 held-out SPEC proxies and prints
//! the CPI errors and simulated counts the benchmark checks.
//!
//! ```text
//! perfbench-tracer campaign --core a53 --scale 64 --budget 3000 --threads 2 \
//!     --seed 3134008094 --segments 1 --workers 0 --dir WORK [--journal] [--racesim BIN]
//! perfbench-tracer score --core a53 --scale 64 --config WORK/tuned.cfg
//! ```

mod alloc;
mod layers;

use layers::{covered, BoardStats, EvalSample, TimedBoard, TimedCost, TimedDispatch};
use racesim_analyzer::coverage::CoverageMatrix;
use racesim_core::params::{apply, build_space};
use racesim_core::validator::{CostMetric, Validator, ValidatorSettings};
use racesim_core::{CampaignSpec, LazySuiteCost, Revision};
use racesim_hw::HardwarePlatform;
use racesim_kernels::{spec_suite, Scale, Workload};
use racesim_race::{EvalDispatch, RaceLogEntry, RacingTuner, TryCostFn, TunerCheckpoint, Value};
use racesim_sim::{config_text, Platform, SimOptions, Simulator};
use racesim_telemetry::Telemetry;
use racesim_uarch::CoreKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => parse_flags(rest).and_then(|flags| match cmd.as_str() {
            "campaign" => cmd_campaign(&flags),
            "score" => cmd_score(&flags),
            other => Err(format!("unknown command {other:?} (use campaign or score)")),
        }),
        None => Err("usage: perfbench-tracer <campaign|score> [--flag value ...]".to_string()),
    };
    match outcome {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(2);
        }
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<T, String> {
    let v = flags.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse().map_err(|_| format!("invalid --{key} {v:?}"))
}

fn core_of(flags: &Flags) -> Result<CoreKind, String> {
    match flags.get("core").map(String::as_str) {
        Some("a53") => Ok(CoreKind::InOrder),
        Some("a72") => Ok(CoreKind::OutOfOrder),
        other => Err(format!("--core must be a53 or a72, got {other:?}")),
    }
}

/// A flat JSON object, rendered by hand (the benchmark links no JSON crate).
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "metric {key} is not finite: {v}");
        self.0.push((key.to_string(), format!("{v}")));
    }

    fn secs(&mut self, key: &str, d: Duration) {
        self.num(key, d.as_secs_f64());
    }

    /// An `f64` as the hex of its bits, so equality checks are exact.
    fn bits(&mut self, key: &str, v: f64) {
        self.0
            .push((key.to_string(), format!("\"{:016x}\"", v.to_bits())));
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one campaign is: the flags of `racesim tune`, plus how it is split
/// into processes.
struct Plan {
    kind: CoreKind,
    scale: Scale,
    budget: u64,
    seed: u64,
    threads: usize,
    workers: usize,
    /// `> 1` runs the campaign as that many resumed segments, as staged CLI
    /// runs do: segment `i` is capped at `--max-iterations i`, and the last
    /// one runs to completion.
    segments: usize,
    journal: bool,
    racesim: Option<PathBuf>,
    dir: PathBuf,
}

/// Per-layer totals, summed over the campaign's segments.
#[derive(Default)]
struct Totals {
    wall: Duration,
    probe: Duration,
    probe_runs: u64,
    stack: Duration,
    trace: Duration,
    coverage: Duration,
    checkpoint_load: Duration,
    loop_wall: Duration,
    loop_self: Duration,
    busy: Duration,
    busy_capacity: Duration,
    cache_hits: u64,
    cache_lookups: u64,
    board: Arc<BoardStats>,
    samples: Vec<EvalSample>,
    batches_ms: Vec<f64>,
    first_batch: Duration,
    dispatched: u64,
    redispatched: u64,
    worker_failures: u64,
}

fn cmd_campaign(flags: &Flags) -> Result<String, String> {
    let plan = Plan {
        kind: core_of(flags)?,
        scale: Scale::divide_by(flag(flags, "scale")?),
        budget: flag(flags, "budget")?,
        seed: flag(flags, "seed")?,
        threads: flag(flags, "threads")?,
        workers: flag(flags, "workers")?,
        segments: flag::<usize>(flags, "segments")?.max(1),
        journal: flags.contains_key("journal"),
        racesim: flags.get("racesim").map(PathBuf::from),
        dir: PathBuf::from(flag::<String>(flags, "dir")?),
    };
    std::fs::create_dir_all(&plan.dir).map_err(|e| format!("cannot create --dir: {e}"))?;
    let mut t = Totals::default();
    let mut last = None;
    for segment in 1..=plan.segments {
        last = Some(run_segment(&plan, segment, &mut t)?);
    }
    let result = last.expect("at least one segment");

    let mut j = Json::default();
    j.num("evals", result.evals_used as f64);
    j.num(
        "failed",
        (result.failed_configs + result.retries + t.worker_failures) as f64,
    );
    j.bits("best_cost_bits", result.best_cost);
    j.secs("wall_s", t.wall);

    j.secs("core.probe_s", t.probe);
    j.num("core.probe_runs", t.probe_runs as f64);
    j.secs("core.stack_s", t.stack);
    j.secs("kernels.trace_s", t.trace);
    j.secs("analyzer.coverage_s", t.coverage);
    j.num("hw.measure_s", t.board.seconds());
    j.num(
        "hw.measurements",
        t.board.calls.load(Ordering::Relaxed) as f64,
    );

    let sim: Duration = t.samples.iter().map(|s| s.sim).sum();
    let mut eval_ms: Vec<f64> = t
        .samples
        .iter()
        .map(|s| s.sim.as_secs_f64() * 1e3)
        .collect();
    eval_ms.sort_by(f64::total_cmp);
    let n = t.samples.len() as f64;
    let insts: u64 = t.samples.iter().map(|s| s.instructions).sum();
    j.secs("sim.eval_s", sim);
    j.num("sim.evals", n);
    j.num("sim.eval_ms_p50", percentile(&eval_ms, 50.0));
    j.num("sim.eval_ms_p99", percentile(&eval_ms, 99.0));
    j.num(
        "sim.minst_per_s",
        ratio(insts as f64 / 1e6, sim.as_secs_f64()),
    );
    j.num(
        "sim.allocs_per_eval",
        ratio(t.samples.iter().map(|s| s.allocs).sum::<u64>() as f64, n),
    );
    j.num(
        "sim.alloc_bytes_per_eval",
        ratio(t.samples.iter().map(|s| s.bytes).sum::<u64>() as f64, n),
    );

    j.secs("race.loop_s", t.loop_wall);
    j.secs("race.self_s", t.loop_self);
    j.num(
        "race.busy_pct",
        100.0 * ratio(t.busy.as_secs_f64(), t.busy_capacity.as_secs_f64()),
    );
    j.num("race.iterations", result.history.len() as f64);
    j.num("race.evals", result.evals_used as f64);
    j.num(
        "race.cache_hit_pct",
        100.0 * ratio(t.cache_hits as f64, t.cache_lookups as f64),
    );
    j.num("race.cache_lookups", t.cache_lookups as f64);
    let eliminated = result
        .history
        .iter()
        .flat_map(|h| &h.eliminations)
        .filter(|e| matches!(e, RaceLogEntry::Eliminated { .. }))
        .count();
    j.num("race.eliminated", eliminated as f64);
    let checkpoint = plan.dir.join("checkpoint.txt");
    j.num("race.checkpoint_bytes", file_len(&checkpoint) as f64);
    j.secs("race.checkpoint_load_s", t.checkpoint_load);

    let journal = plan.dir.join("journal.jsonl");
    let (events, read) = if plan.journal {
        let t0 = Instant::now();
        let parsed = racesim_telemetry::read_journal_lossy(&journal)
            .map_err(|e| format!("cannot read the journal back: {e}"))?;
        (parsed.0.len(), t0.elapsed())
    } else {
        (0, Duration::ZERO)
    };
    j.num("telemetry.events", events as f64);
    j.num("telemetry.journal_bytes", file_len(&journal) as f64);
    j.secs("telemetry.journal_read_s", read);

    t.batches_ms.sort_by(f64::total_cmp);
    let batch_total: f64 = t.batches_ms.iter().sum();
    j.num("dist.batches", t.batches_ms.len() as f64);
    j.num("dist.batch_ms_p50", percentile(&t.batches_ms, 50.0));
    j.num("dist.batch_ms_p99", percentile(&t.batches_ms, 99.0));
    j.secs("dist.first_batch_s", t.first_batch);
    j.num("dist.ms_per_eval", ratio(batch_total, t.dispatched as f64));
    j.num("dist.redispatched", t.redispatched as f64);
    j.num("dist.worker_failures", t.worker_failures as f64);
    Ok(j.render())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One process's worth of `racesim tune`, in the order `cmd_tune` does it.
fn run_segment(
    plan: &Plan,
    segment: usize,
    t: &mut Totals,
) -> Result<racesim_race::TuneResult, String> {
    let t_segment = Instant::now();
    let staged = plan.segments > 1;
    let journal = plan.dir.join("journal.jsonl");
    let checkpoint = plan.dir.join("checkpoint.txt");
    let telemetry = if plan.journal {
        Telemetry::to_file(&journal, staged && journal.exists())
            .map_err(|e| format!("cannot open the journal: {e}"))?
    } else {
        Telemetry::disabled()
    };
    let mut spec = CampaignSpec {
        kind: plan.kind,
        scale: plan.scale,
        budget: plan.budget,
        seed: plan.seed,
        threads: plan.threads,
        workers: plan.workers,
        max_iterations: (segment < plan.segments).then_some(segment),
        static_bounds: false,
        timeout_ms: None,
        fault_profile: "none".to_string(),
        fault_seed: 1,
        frozen: Vec::new(),
    };

    // CampaignSpec::build_stack, one layer at a time.
    let t_stack = Instant::now();
    let probe_stats = Arc::new(BoardStats::default());
    let probe_board = TimedBoard::new(spec.board(), Arc::clone(&probe_stats));
    let settings = ValidatorSettings {
        kind: plan.kind,
        revision: Revision::Fixed,
        scale: plan.scale,
        tuner: spec.tuner_settings(),
        metric: CostMetric::CpiError,
    };
    let v = Validator::new(&probe_board, settings);
    let t0 = Instant::now();
    let base = v.base_platform().map_err(|e| e.to_string())?;
    let probe = t0.elapsed();
    let space = build_space(plan.kind, Revision::Fixed);
    let decoder = v.decoder();
    let suite = v.suite();
    let tune_board: Arc<dyn HardwarePlatform> = Arc::new(TimedBoard::new(
        spec.board().with_telemetry(telemetry.clone()),
        Arc::clone(&t.board),
    ));
    let t0 = Instant::now();
    let cost = LazySuiteCost::new(
        tune_board,
        &suite,
        base.clone(),
        decoder,
        CostMetric::CpiError,
    )
    .map_err(|e| e.to_string())?
    .with_telemetry(telemetry.clone());
    let trace = t0.elapsed();
    let cost = Arc::new(cost);
    t.probe += probe;
    t.probe_runs += probe_stats.calls.load(Ordering::Relaxed);
    t.trace += trace;
    t.stack += t_stack.elapsed().saturating_sub(probe + trace);

    let mut tuner = RacingTuner::new(spec.tuner_settings()).with_telemetry(telemetry.clone());

    // The coverage freeze: dimensions no kernel observes stay at default.
    let t0 = Instant::now();
    let profiles: Vec<_> = suite
        .iter()
        .map(|w| racesim_analyzer::ir::profile(&w.name, &w.program))
        .collect();
    let matrix = CoverageMatrix::build(&space, &profiles, &base);
    t.coverage += t0.elapsed();
    let defaults = space.default_configuration();
    let frozen: Vec<(usize, Value)> = matrix
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| p.count() == 0)
        .map(|(i, _)| (i, defaults.value(i)))
        .collect();
    spec.set_frozen(&space, &frozen);
    if !frozen.is_empty() {
        tuner = tuner.with_frozen(frozen);
    }
    telemetry.emit(spec.config_event());
    for ev in spec.frozen_events() {
        telemetry.emit(ev);
    }

    if staged {
        if checkpoint.exists() {
            // The tuner reads the checkpoint itself on resume; this extra
            // read is the timed copy of that load.
            let t0 = Instant::now();
            TunerCheckpoint::read(&checkpoint, &space).map_err(|e| e.to_string())?;
            t.checkpoint_load += t0.elapsed();
        }
        tuner = tuner.with_checkpoint(&checkpoint).with_resume(&checkpoint);
    }

    let pool_telemetry = Telemetry::in_memory();
    let dispatch = if plan.workers > 0 {
        let exe = plan
            .racesim
            .as_ref()
            .ok_or("--workers needs --racesim, the binary that serves `racesim worker`")?;
        let init = racesim_dist::InitSpec {
            core: spec.core_name().to_string(),
            scale: spec.scale.divisor(),
            faults: spec.fault_profile.clone(),
            fault_seed: spec.fault_seed,
            timeout_ms: 0,
            worker: 0,
            static_bounds: false,
        };
        let mut opts = racesim_dist::PoolOptions::new(plan.workers, init);
        opts.request_timeout = Duration::from_millis(120_000);
        let pool = racesim_dist::WorkerPool::new(
            Box::new(racesim_dist::ProcessLauncher::new(vec![
                exe.display().to_string(),
                "worker".to_string(),
            ])),
            opts,
            Arc::clone(&cost) as Arc<dyn TryCostFn + Send + Sync>,
            pool_telemetry.clone(),
        );
        let d = Arc::new(TimedDispatch::new(pool));
        tuner = tuner.with_dispatch(Arc::clone(&d) as Arc<dyn EvalDispatch + Send + Sync>);
        Some(d)
    } else {
        None
    };

    let timed = TimedCost::new(&cost, &t.board);
    let t_loop = Instant::now();
    let result = tuner.try_tune(&space, &timed, cost.len());
    let t_end = Instant::now();
    drop(tuner);

    let mut spans = timed.spans.intervals();
    let mut busy = timed.spans.total();
    let mut capacity = (t_end - t_loop) * plan.threads.max(1) as u32;
    if let Some(d) = dispatch {
        spans.extend(d.spans.intervals());
        busy = d.spans.total();
        capacity = t_end - t_loop;
        t.batches_ms.extend(
            d.spans
                .intervals()
                .iter()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3),
        );
        t.first_batch += d.first_batch();
        t.dispatched += d.tasks.load(Ordering::Relaxed);
        // Dropping the last handle shuts the pool down and reaps its
        // workers, as the CLI does when `cmd_tune` returns.
        drop(d);
        t.redispatched += pool_telemetry.counter("dist.redispatched").get();
        t.worker_failures += pool_telemetry
            .lines()
            .iter()
            .filter(|l| l.contains("\"worker_failed\""))
            .count() as u64;
    }
    t.loop_wall += t_end - t_loop;
    t.loop_self += (t_end - t_loop).saturating_sub(covered(spans, t_loop, t_end));
    t.busy += busy;
    t.busy_capacity += capacity;
    t.cache_hits += result.cache_hits;
    t.cache_lookups += result.cache_hits + result.cache_misses;
    t.samples
        .extend(timed.samples.into_inner().expect("sample lock"));

    if segment == plan.segments {
        let tuned = apply(&space, &result.best, &base);
        std::fs::write(plan.dir.join("tuned.cfg"), config_text::to_text(&tuned))
            .map_err(|e| format!("cannot write the tuned configuration: {e}"))?;
    }
    telemetry.flush();
    t.wall += t_segment.elapsed();
    Ok(result)
}

/// Sums of the simulated counts over a suite, plus its mean CPI error.
#[derive(Default)]
struct SuiteScore {
    error_sum: f64,
    kernels: usize,
    records: u64,
    instructions: u64,
    cycles: u64,
    branch_mispredicts: u64,
    stlf_hits: u64,
    l1i_misses: u64,
    l1d_misses: u64,
    l2_misses: u64,
    tlb_misses: u64,
    dram_accesses: u64,
    dram_queue_cycles: u64,
    prefetch_fills: u64,
    prefetch_useful: u64,
}

impl SuiteScore {
    fn mean_error(&self) -> f64 {
        self.error_sum / self.kernels as f64
    }
}

/// Simulates `platform` on `suite` and measures each kernel on `board`,
/// with the cost `LazySuiteCost` charges.
fn score_suite(
    platform: &Platform,
    v: &Validator<'_>,
    board: &dyn HardwarePlatform,
    suite: &[Workload],
) -> Result<SuiteScore, String> {
    let sim = Simulator::with_decoder(platform.clone(), v.decoder(), SimOptions::default());
    let mut s = SuiteScore::default();
    for w in suite {
        let trace = w.trace().map_err(|e| format!("tracing {}: {e}", w.name))?;
        let hw = board
            .measure_trace(&w.name, &trace, w.uninit_data)
            .map_err(|e| format!("measuring {}: {e}", w.name))?;
        let st = sim
            .run(&trace)
            .map_err(|e| format!("simulating {}: {e}", w.name))?;
        s.error_sum += CostMetric::CpiError.evaluate(
            st.cpi(),
            hw.cpi(),
            st.core.branch_mpki(),
            hw.branch_mpki(),
        );
        s.kernels += 1;
        s.records += trace.len() as u64;
        s.instructions += st.core.instructions;
        s.cycles += st.core.cycles;
        s.branch_mispredicts += st.core.branch.mispredicts;
        s.stlf_hits += st.core.stlf_hits;
        s.l1i_misses += st.mem.l1i.misses;
        s.l1d_misses += st.mem.l1d.misses;
        s.l2_misses += st.mem.l2.misses;
        s.tlb_misses += st.mem.tlb.misses;
        s.dram_accesses += st.mem.dram_accesses;
        s.dram_queue_cycles += st.mem.dram_queue_cycles;
        s.prefetch_fills += st.mem.l1d.prefetch_fills + st.mem.l2.prefetch_fills;
        s.prefetch_useful += st.mem.l1d.useful_prefetches + st.mem.l2.useful_prefetches;
    }
    Ok(s)
}

fn cmd_score(flags: &Flags) -> Result<String, String> {
    let kind = core_of(flags)?;
    let scale = Scale::divide_by(flag(flags, "scale")?);
    let path: String = flag(flags, "config")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let platform =
        config_text::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let spec_board = match kind {
        CoreKind::InOrder => racesim_hw::ReferenceBoard::firefly_a53(),
        CoreKind::OutOfOrder => racesim_hw::ReferenceBoard::firefly_a72(),
    };
    let settings = ValidatorSettings {
        kind,
        revision: Revision::Fixed,
        scale,
        tuner: Default::default(),
        metric: CostMetric::CpiError,
    };
    let v = Validator::new(&spec_board, settings);
    let tuning = score_suite(&platform, &v, &spec_board, &v.suite())?;
    let held_out = score_suite(&platform, &v, &spec_board, &spec_suite(scale))?;

    let mut j = Json::default();
    let best = tuning.mean_error();
    let spec = held_out.mean_error();
    j.num("best_cost_pct", best);
    j.bits("best_cost_bits", best);
    j.num("spec_error_pct", spec);
    j.bits("spec_error_bits", spec);
    j.num("kernels", tuning.kernels as f64);
    j.num("spec_kernels", held_out.kernels as f64);
    j.num("trace.records", tuning.records as f64);
    j.num("uarch.instructions", tuning.instructions as f64);
    j.num("uarch.cycles", tuning.cycles as f64);
    j.num("uarch.branch_mispredicts", tuning.branch_mispredicts as f64);
    j.num("uarch.stlf_hits", tuning.stlf_hits as f64);
    j.num("mem.l1i_misses", tuning.l1i_misses as f64);
    j.num("mem.l1d_misses", tuning.l1d_misses as f64);
    j.num("mem.l2_misses", tuning.l2_misses as f64);
    j.num("mem.tlb_misses", tuning.tlb_misses as f64);
    j.num("mem.dram_accesses", tuning.dram_accesses as f64);
    j.num("mem.dram_queue_cycles", tuning.dram_queue_cycles as f64);
    j.num(
        "mem.prefetch_useful_pct",
        100.0 * ratio(tuning.prefetch_useful as f64, tuning.prefetch_fills as f64),
    );
    Ok(j.render())
}
