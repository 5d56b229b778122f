//! One description of a tuning campaign, shared by `racesim tune` (which
//! records it into the telemetry journal) and `racesim replay` (which
//! reconstructs it from that journal and re-runs it).
//!
//! Both run one assembly path: [`CampaignSpec::prepare`] builds the stack,
//! computes the coverage freeze and journals the spec,
//! [`CampaignSpec::tuner`] wires the tuner, and [`CampaignStack::eval`]
//! is the cost every evaluation path races against.
//!
//! The spec captures exactly the inputs the campaign outcome is a
//! deterministic function of: core, scale, budget, seed, thread count,
//! watchdog timeout, fault plan, and the frozen dimensions. Everything
//! else (the suite, the parameter space, the base platform, the cost
//! metric) is derived from those deterministically, the same way on both
//! sides. The model revision is pinned to [`Revision::Fixed`] — `tune`
//! always drives the fixed model.

use crate::fallible::LazySuiteCost;
use crate::latency::{estimated_platform, reference_estimates, LatencyEstimates};
use crate::params::{build_space, Revision};
use crate::validator::CostMetric;
use racesim_analyzer::coverage::CoverageMatrix;
use racesim_hw::{FaultPlan, FaultyBoard, HardwarePlatform, ReferenceBoard};
use racesim_kernels::{Scale, Workload};
use racesim_race::replay::encode_value;
use racesim_race::{
    ParamSpace, RacingTuner, TryCostFn, TuneResult, TunerSettings, Value, Watchdog,
};
use racesim_sim::Platform;
use racesim_telemetry::{Event, JournalEntry, Telemetry};
use racesim_uarch::CoreKind;
use std::sync::Arc;
use std::time::Duration;

/// Everything a campaign's outcome deterministically depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Core being tuned.
    pub kind: CoreKind,
    /// Dynamic-instruction scale.
    pub scale: Scale,
    /// Racing evaluation budget.
    pub budget: u64,
    /// Tuner RNG seed.
    pub seed: u64,
    /// Evaluation threads (results are thread-count invariant; this only
    /// affects wall time).
    pub threads: usize,
    /// Spawned evaluation worker processes (0 = all in-process). Like
    /// `threads`, a non-semantic dimension: distributed evaluation is
    /// bit-identical to sequential, so replay always re-runs in-process
    /// regardless of what the recording used.
    pub workers: usize,
    /// Iteration cap for staged runs (`None` = run to completion).
    pub max_iterations: Option<usize>,
    /// Must be false. Tuner-side static elimination (`--static-bounds`)
    /// was removed; the field stays so journals and worker handshakes
    /// keep their bytes, and [`CampaignSpec::build_stack_from`] rejects
    /// `true`.
    pub static_bounds: bool,
    /// Per-evaluation watchdog timeout in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Fault-injection profile name (`none`, `transient`, `aggressive`).
    pub fault_profile: String,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Frozen dimensions as `(parameter name, value code)` pairs, in the
    /// order they were applied.
    pub frozen: Vec<(String, String)>,
}

/// The assembled evaluation stack of a campaign: the tunable space, the
/// latency-estimated base platform, and the (possibly fault-injected)
/// lazy suite cost function.
#[derive(Debug)]
pub struct CampaignStack {
    /// The tunable parameter space for the spec's core.
    pub space: ParamSpace,
    /// The base platform after latency estimation (steps 1–2).
    pub base: Platform,
    /// The workloads being raced (same order as the cost instances).
    pub suite: Vec<Workload>,
    /// The fallible cost function over the suite.
    pub cost: Arc<LazySuiteCost>,
    /// The coverage freeze as `(dimension, default value)`; empty until
    /// [`CampaignSpec::prepare`] computes it.
    frozen: Vec<(usize, Value)>,
    /// The spec's per-evaluation watchdog timeout.
    timeout: Option<Duration>,
}

impl CampaignStack {
    /// The cost function every evaluation path races against — the
    /// tuner's own loop, a worker's serve loop and a pool's in-process
    /// fallback: the lazy suite cost, behind a [`Watchdog`] when the
    /// spec sets a per-evaluation timeout.
    pub fn eval(&self) -> Arc<dyn TryCostFn + Send + Sync> {
        let cost = Arc::clone(&self.cost) as Arc<dyn TryCostFn + Send + Sync>;
        match self.timeout {
            Some(timeout) => Arc::new(Watchdog::new(cost, timeout)),
            None => cost,
        }
    }

    /// The coverage freeze: a dimension no benchmark in the suite can
    /// statically observe cannot move the cost, so it is pinned to its
    /// default before any budget is spent. The dimension stays in the
    /// space (the model applier reads every parameter and checkpoint
    /// fingerprints must stay valid); the sampler just never varies it.
    fn coverage_freeze(&self) -> Vec<(usize, Value)> {
        let profiles: Vec<_> = self
            .suite
            .iter()
            .map(|w| racesim_analyzer::ir::profile(&w.name, &w.program))
            .collect();
        let matrix = CoverageMatrix::build(&self.space, &profiles, &self.base);
        let defaults = self.space.default_configuration();
        matrix
            .params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.count() == 0)
            .map(|(i, _)| (i, defaults.value(i)))
            .collect()
    }
}

impl CampaignSpec {
    /// The `--core` spelling of the spec's core.
    pub fn core_name(&self) -> &'static str {
        self.kind.name()
    }

    /// The journal event recording this spec (`campaign_config`).
    pub fn config_event(&self) -> Event {
        Event::CampaignConfig {
            core: self.core_name().to_string(),
            scale: self.scale.divisor(),
            faults: self.fault_profile.clone(),
            fault_seed: self.fault_seed,
            timeout_ms: self.timeout_ms.unwrap_or(0),
            threads: self.threads,
            workers: self.workers,
            max_iterations: self.max_iterations.unwrap_or(0) as u64,
            static_bounds: self.static_bounds,
        }
    }

    /// One `frozen` journal event per pinned dimension.
    pub fn frozen_events(&self) -> Vec<Event> {
        self.frozen
            .iter()
            .map(|(param, code)| Event::Frozen {
                param: param.clone(),
                code: code.clone(),
            })
            .collect()
    }

    /// Records frozen dimensions from the tuner's `(index, value)` form.
    pub fn set_frozen(&mut self, space: &ParamSpace, frozen: &[(usize, Value)]) {
        self.frozen = frozen
            .iter()
            .map(|(idx, v)| (space.params()[*idx].name.clone(), encode_value(*v)))
            .collect();
    }

    /// Reconstructs the spec from a recorded journal: the first
    /// `campaign_config` (stack shape), the first `campaign_start` (seed
    /// and budget) and the `frozen` events.
    ///
    /// `max_iterations` is deliberately dropped — a staged recording is
    /// verified as a *prefix* of the full campaign the replay runs.
    ///
    /// # Errors
    ///
    /// Fails when the journal predates `campaign_config` (there is not
    /// enough information to rebuild the stack) or has no
    /// `campaign_start`.
    pub fn from_journal(entries: &[JournalEntry]) -> Result<CampaignSpec, String> {
        let mut config = None;
        let mut start = None;
        let mut frozen: Vec<(String, String)> = Vec::new();
        for e in entries {
            match &e.event {
                Event::CampaignConfig {
                    core,
                    scale,
                    faults,
                    fault_seed,
                    timeout_ms,
                    threads,
                    workers,
                    static_bounds,
                    ..
                } if config.is_none() => {
                    let kind = CoreKind::from_name(core)
                        .ok_or_else(|| format!("campaign_config has unknown core {core:?}"))?;
                    config = Some((
                        kind,
                        Scale::divide_by(*scale),
                        faults.clone(),
                        *fault_seed,
                        *timeout_ms,
                        *threads,
                        *workers,
                        *static_bounds,
                    ));
                }
                Event::CampaignStart { seed, budget, .. } if start.is_none() => {
                    start = Some((*seed, *budget));
                }
                Event::Frozen { param, code } if !frozen.iter().any(|(p, _)| p == param) => {
                    frozen.push((param.clone(), code.clone()));
                }
                _ => {}
            }
        }
        let (kind, scale, fault_profile, fault_seed, timeout_ms, threads, workers, static_bounds) =
            config.ok_or_else(|| {
                "journal has no campaign_config event (recorded before replay support?); \
                 re-record it with a current `racesim tune --telemetry`"
                    .to_string()
            })?;
        let (seed, budget) =
            start.ok_or_else(|| "journal contains no campaign_start event".to_string())?;
        // Validate the profile here so replay fails early and clearly.
        FaultPlan::from_profile(&fault_profile, fault_seed)?;
        Ok(CampaignSpec {
            kind,
            scale,
            budget: budget as u64,
            seed,
            threads: threads.max(1),
            workers,
            max_iterations: None,
            static_bounds,
            timeout_ms: (timeout_ms != 0).then_some(timeout_ms),
            fault_profile,
            fault_seed,
            frozen,
        })
    }

    /// The reference board for the spec's core.
    pub fn board(&self) -> ReferenceBoard {
        ReferenceBoard::for_core(self.kind)
    }

    /// The tuner settings this spec denotes.
    pub fn tuner_settings(&self) -> TunerSettings {
        TunerSettings {
            budget: self.budget,
            seed: self.seed,
            threads: self.threads,
            max_iterations: self.max_iterations,
            ..TunerSettings::default()
        }
    }

    /// Assembles the evaluation stack: board (fault-injected if the spec
    /// says so), latency-estimated base platform, parameter space, and
    /// the lazy suite cost — all threaded through `telemetry`. The base
    /// platform takes the reference board's memoised
    /// [`reference_estimates`], so only the first stack per process and
    /// core runs the probes.
    ///
    /// # Errors
    ///
    /// Propagates probe/measurement failures and unknown fault profiles.
    pub fn build_stack(&self, telemetry: &Telemetry) -> Result<CampaignStack, String> {
        self.build_stack_from(&reference_estimates(self.kind)?, telemetry)
    }

    /// [`CampaignSpec::build_stack`] over given latency estimates instead
    /// of the reference board's — what a distributed worker does with
    /// the estimates its coordinator sent in the handshake.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures and unknown fault profiles, and
    /// rejects a spec with `static_bounds` set — the one check that
    /// covers `tune`, `replay` and the distributed worker.
    pub fn build_stack_from(
        &self,
        est: &LatencyEstimates,
        telemetry: &Telemetry,
    ) -> Result<CampaignStack, String> {
        if self.static_bounds {
            return Err(
                "static elimination (`--static-bounds`) was removed from the tuner; \
                 `racesim bounds` still reports the static CPI intervals"
                    .to_string(),
            );
        }
        let metric = CostMetric::CpiError;
        let base = estimated_platform(self.kind, est);
        let space = build_space(self.kind, Revision::Fixed);
        let decoder = Revision::Fixed.decoder();
        let suite = Revision::Fixed.suite(self.scale);
        let tune_board: Arc<dyn HardwarePlatform> =
            match FaultPlan::from_profile(&self.fault_profile, self.fault_seed)? {
                Some(plan) => Arc::new(
                    FaultyBoard::new(self.board().with_telemetry(telemetry.clone()), plan)
                        .with_telemetry(telemetry.clone()),
                ),
                None => Arc::new(self.board().with_telemetry(telemetry.clone())),
            };
        let cost = LazySuiteCost::new(tune_board, &suite, base.clone(), decoder, metric)
            .map_err(|e| e.to_string())?
            .with_telemetry(telemetry.clone());
        Ok(CampaignStack {
            space,
            base,
            suite,
            cost: Arc::new(cost),
            frozen: Vec::new(),
            timeout: self.timeout_ms.map(Duration::from_millis),
        })
    }

    /// Assembles the campaign the way every caller runs it: builds the
    /// stack, computes the coverage freeze and records it in the spec,
    /// then journals the spec (`campaign_config` and one `frozen` event
    /// per pinned dimension) so `racesim replay` can rebuild it. Every
    /// segment of a staged campaign re-records these; the first
    /// occurrence wins on read.
    ///
    /// A spec that arrives with a `frozen` list (reconstructed from a
    /// journal) must list exactly the dimensions this build freezes.
    ///
    /// # Errors
    ///
    /// Stack-assembly failures, and a recorded freeze that differs from
    /// the computed one (the error names the differing parameters).
    pub fn prepare(&mut self, telemetry: &Telemetry) -> Result<CampaignStack, String> {
        let mut stack = self.build_stack(telemetry)?;
        stack.frozen = stack.coverage_freeze();
        let recorded = std::mem::take(&mut self.frozen);
        self.set_frozen(&stack.space, &stack.frozen);
        let mut differing: Vec<&str> = recorded
            .iter()
            .filter(|f| !self.frozen.contains(f))
            .chain(self.frozen.iter().filter(|f| !recorded.contains(f)))
            .map(|(param, _)| param.as_str())
            .collect();
        differing.sort_unstable();
        differing.dedup();
        if !recorded.is_empty() && !differing.is_empty() {
            return Err(format!(
                "recorded frozen dimensions differ from the coverage freeze: {}",
                differing.join(", ")
            ));
        }
        telemetry.emit(self.config_event());
        for ev in self.frozen_events() {
            telemetry.emit(ev);
        }
        Ok(stack)
    }

    /// The tuner for a prepared `stack`: the spec's settings, journaling
    /// to `telemetry`, with the stack's frozen dimensions.
    pub fn tuner(&self, stack: &CampaignStack, telemetry: &Telemetry) -> RacingTuner {
        let mut tuner = RacingTuner::new(self.tuner_settings()).with_telemetry(telemetry.clone());
        if !stack.frozen.is_empty() {
            tuner = tuner.with_frozen(stack.frozen.clone());
        }
        tuner
    }

    /// Runs the campaign this spec describes from scratch and returns
    /// the tuner result. Used by `racesim replay` to produce the fresh
    /// journal that is verified against the recording.
    ///
    /// # Errors
    ///
    /// Propagates [`CampaignSpec::prepare`] failures.
    pub fn run(&self, telemetry: &Telemetry) -> Result<TuneResult, String> {
        let mut spec = self.clone();
        let stack = spec.prepare(telemetry)?;
        let tuner = spec.tuner(&stack, telemetry);
        Ok(tuner.try_tune(&stack.space, &*stack.eval(), stack.cost.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            kind: CoreKind::InOrder,
            scale: Scale::divide_by(32768),
            budget: 60,
            seed: 0xBADC_AB1E,
            threads: 1,
            workers: 2,
            max_iterations: Some(1),
            static_bounds: false,
            timeout_ms: Some(60_000),
            fault_profile: "transient".to_string(),
            fault_seed: 7,
            frozen: vec![("x".to_string(), "C0".to_string())],
        }
    }

    #[test]
    fn spec_roundtrips_through_its_own_journal_events() {
        let s = spec();
        let mut entries: Vec<JournalEntry> = vec![JournalEntry {
            t_us: 0,
            event: s.config_event(),
        }];
        entries.extend(
            s.frozen_events()
                .into_iter()
                .map(|event| JournalEntry { t_us: 0, event }),
        );
        entries.push(JournalEntry {
            t_us: 1,
            event: Event::CampaignStart {
                seed: s.seed,
                budget: s.budget as usize,
                n_instances: 9,
                n_params: 4,
            },
        });
        let back = CampaignSpec::from_journal(&entries).expect("reconstructs");
        // Staged caps are segment-local: replay runs to completion.
        assert_eq!(back.max_iterations, None);
        assert_eq!(
            CampaignSpec {
                max_iterations: None,
                ..s
            },
            back
        );
    }

    /// The five latency dimensions no shipped micro-benchmark exercises.
    const A53_FREEZE: [&str; 5] = [
        "lat.int_div",
        "lat.fp_div",
        "lat.fp_sqrt",
        "lat.fp_mov",
        "lat.simd_mul",
    ];

    fn fresh_a53() -> CampaignSpec {
        CampaignSpec {
            workers: 0,
            max_iterations: None,
            timeout_ms: None,
            fault_profile: "none".to_string(),
            frozen: Vec::new(),
            ..spec()
        }
    }

    #[test]
    fn prepare_freezes_the_unobserved_dimensions_and_journals_them() {
        let mut s = fresh_a53();
        let t = Telemetry::in_memory();
        let stack = s.prepare(&t).expect("prepares");
        let names: Vec<&str> = s.frozen.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(names, A53_FREEZE);
        assert_eq!(stack.frozen.len(), A53_FREEZE.len());
        t.flush();
        let (entries, errors) = racesim_telemetry::parse_journal(&t.lines().join("\n"));
        assert!(errors.is_empty(), "{errors:?}");
        let count = |ev: &str| entries.iter().filter(|e| e.event.name() == ev).count();
        assert_eq!(count("campaign_config"), 1);
        assert_eq!(count("frozen"), A53_FREEZE.len());
    }

    #[test]
    fn prepare_rejects_a_recorded_freeze_that_differs() {
        let mut computed = fresh_a53();
        computed.prepare(&Telemetry::disabled()).expect("prepares");
        let dropped = CampaignSpec {
            frozen: computed.frozen[..1]
                .iter()
                .chain(&computed.frozen[2..])
                .cloned()
                .collect(),
            ..computed.clone()
        };
        let err = dropped.run(&Telemetry::disabled()).unwrap_err();
        assert!(err.contains("lat.fp_div"), "{err}");
        let mut recoded = computed.clone();
        recoded.frozen[0].1 = "I1".to_string();
        let err = recoded.prepare(&Telemetry::disabled()).unwrap_err();
        assert!(
            err.contains("lat.int_div") && !err.contains("lat.fp_div"),
            "{err}"
        );
        // The freeze it recorded itself verifies.
        computed
            .prepare(&Telemetry::disabled())
            .expect("own freeze verifies");
    }

    #[test]
    fn journals_without_campaign_config_are_rejected() {
        let entries = vec![JournalEntry {
            t_us: 0,
            event: Event::CampaignStart {
                seed: 1,
                budget: 10,
                n_instances: 2,
                n_params: 2,
            },
        }];
        let err = CampaignSpec::from_journal(&entries).unwrap_err();
        assert!(err.contains("campaign_config"), "{err}");
    }
}
