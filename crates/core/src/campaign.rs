//! One description of a tuning campaign, shared by `racesim tune` (which
//! records it into the telemetry journal) and `racesim replay` (which
//! reconstructs it from that journal and re-runs it).
//!
//! The spec captures exactly the inputs the campaign outcome is a
//! deterministic function of: core, scale, budget, seed, thread count,
//! watchdog timeout, fault plan, and the frozen dimensions. Everything
//! else (the suite, the parameter space, the base platform, the cost
//! metric) is derived from those deterministically, the same way on both
//! sides. The model revision is pinned to [`Revision::Fixed`] — `tune`
//! always drives the fixed model.

use crate::bounds::CampaignBounds;
use crate::fallible::LazySuiteCost;
use crate::latency::{estimated_platform, reference_estimates, LatencyEstimates};
use crate::params::{build_space, Revision};
use crate::validator::{CostMetric, Validator, ValidatorSettings};
use racesim_hw::{FaultPlan, FaultyBoard, HardwarePlatform, ReferenceBoard};
use racesim_kernels::{Scale, Workload};
use racesim_race::replay::{decode_value, encode_value};
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
    /// Whether the static CPI bounds engine pre-eliminates provably
    /// dominated configurations each iteration. Semantic: eliminations
    /// change which configurations race, so replay re-runs with the
    /// recorded setting and verifies the `static_eliminated` events.
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
    /// The static bounds engine, when the spec enables it. Built against
    /// the clean reference board so elimination decisions are replayable.
    pub bounds: Option<Arc<CampaignBounds>>,
}

impl CampaignSpec {
    /// The `--core` spelling of the spec's core.
    pub fn core_name(&self) -> &'static str {
        match self.kind {
            CoreKind::InOrder => "a53",
            CoreKind::OutOfOrder => "a72",
        }
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
                    let kind = match core.as_str() {
                        "a53" => CoreKind::InOrder,
                        "a72" => CoreKind::OutOfOrder,
                        other => return Err(format!("campaign_config has unknown core {other:?}")),
                    };
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
        match self.kind {
            CoreKind::InOrder => ReferenceBoard::firefly_a53(),
            CoreKind::OutOfOrder => ReferenceBoard::firefly_a72(),
        }
    }

    fn validator_settings(&self) -> ValidatorSettings {
        ValidatorSettings {
            kind: self.kind,
            revision: Revision::Fixed,
            scale: self.scale,
            tuner: self.tuner_settings(),
            metric: CostMetric::CpiError,
        }
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
    /// Propagates measurement failures and unknown fault profiles.
    pub fn build_stack_from(
        &self,
        est: &LatencyEstimates,
        telemetry: &Telemetry,
    ) -> Result<CampaignStack, String> {
        let board = self.board();
        let settings = self.validator_settings();
        let v = Validator::new(&board, settings.clone());
        let base = estimated_platform(self.kind, est);
        let space = build_space(self.kind, settings.revision);
        let decoder = v.decoder();
        let suite = v.suite();
        let tune_board: Arc<dyn HardwarePlatform> =
            match FaultPlan::from_profile(&self.fault_profile, self.fault_seed)? {
                Some(plan) => Arc::new(
                    FaultyBoard::new(self.board().with_telemetry(telemetry.clone()), plan)
                        .with_telemetry(telemetry.clone()),
                ),
                None => Arc::new(self.board().with_telemetry(telemetry.clone())),
            };
        // The bounds engine measures on the clean board (never the
        // fault-injected one): the cached hardware CPIs must be a pure
        // function of the suite for eliminations to replay bit-for-bit.
        let bounds = if self.static_bounds {
            Some(Arc::new(CampaignBounds::measure(
                &board,
                &suite,
                base.clone(),
                settings.metric,
            )?))
        } else {
            None
        };
        let mut cost =
            LazySuiteCost::new(tune_board, &suite, base.clone(), decoder, settings.metric)
                .map_err(|e| e.to_string())?
                .with_telemetry(telemetry.clone());
        if let Some(b) = &bounds {
            // Soundness gate: every simulated CPI must land inside its
            // static interval (debug builds assert; see fallible.rs).
            cost = cost.with_bounds_check(b.kernels().to_vec());
        }
        Ok(CampaignStack {
            space,
            base,
            suite,
            cost: Arc::new(cost),
            bounds,
        })
    }

    /// Decodes the spec's frozen dimensions against `space`.
    ///
    /// # Errors
    ///
    /// Rejects unknown parameters and codes that do not fit the domain.
    pub fn decode_frozen(&self, space: &ParamSpace) -> Result<Vec<(usize, Value)>, String> {
        self.frozen
            .iter()
            .map(|(param, code)| {
                let v = decode_value(space, param, code)?;
                Ok((space.index_of(param), v))
            })
            .collect()
    }

    /// Runs the campaign this spec describes from scratch and returns
    /// the tuner result. Used by `racesim replay` to produce the fresh
    /// journal that is verified against the recording.
    ///
    /// # Errors
    ///
    /// Propagates stack-assembly failures and bad frozen codes.
    pub fn run(&self, telemetry: &Telemetry) -> Result<TuneResult, String> {
        let stack = self.build_stack(telemetry)?;
        let n_instances = stack.cost.len();
        let mut tuner = RacingTuner::new(self.tuner_settings()).with_telemetry(telemetry.clone());
        if let Some(b) = &stack.bounds {
            tuner = tuner.with_static_bounds(Arc::clone(b) as _);
        }
        let frozen = self.decode_frozen(&stack.space)?;
        if !frozen.is_empty() {
            tuner = tuner.with_frozen(frozen);
        }
        let result = match self.timeout_ms {
            Some(ms) => {
                let dog = Watchdog::new(
                    Arc::clone(&stack.cost) as Arc<dyn TryCostFn + Send + Sync>,
                    Duration::from_millis(ms),
                );
                tuner.try_tune(&stack.space, &dog, n_instances)
            }
            None => tuner.try_tune(&stack.space, &*stack.cost, n_instances),
        };
        Ok(result)
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
            static_bounds: true,
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
