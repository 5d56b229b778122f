//! Low-overhead metrics and a structured campaign journal for racing runs.
//!
//! The paper's methodology is an iterative race → inspect → fix loop;
//! this crate makes the "inspect" step possible without slowing the
//! race. It has two halves sharing one [`Telemetry`] handle:
//!
//! * a **metrics registry** — atomic [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (p50/p90/p99), resolved once at
//!   registration so hot paths pay one relaxed atomic op — and
//! * an **event journal** — typed [`Event`]s with monotonic
//!   timestamps, buffered in memory and flushed as JSONL lines
//!   (hand-rolled serialization, like the checkpoint format; the
//!   vendored `serde` is a no-op shim).
//!
//! A third piece, the [`Profiler`], lives beside the `Telemetry` handle
//! rather than inside it: a hierarchical span-based self-profiler with
//! the same true-no-op disabled path, used by `racesim profile` to
//! attribute wall time to simulator phases.
//!
//! The default handle is *disabled*: every operation is a branch on a
//! `None` and nothing allocates, so instrumentation can stay in place
//! permanently. `Telemetry` is `Clone + Send + Sync`; clones share the
//! same registry and sink, so the tuner, simulator workers and boards
//! can all write through their own copies.
//!
//! ```
//! use racesim_telemetry::{Event, Telemetry};
//!
//! let t = Telemetry::in_memory();
//! let evals = t.counter("tuner.evals");
//! evals.inc();
//! t.emit(Event::Quarantine {
//!     instance: "ptr_chase".to_string(),
//!     reason: "dropped on every attempt".to_string(),
//! });
//! t.emit_metrics();
//! assert_eq!(t.lines().len(), 2);
//!
//! let off = Telemetry::disabled();
//! off.counter("tuner.evals").inc(); // no-op, no allocation
//! assert!(!off.is_enabled());
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod journal;
pub mod json;
mod metrics;
mod profiler;

pub use event::{Event, JournalEntry, JournalError};
pub use journal::{
    parse_journal, parse_journal_lossy, read_journal, read_journal_lossy, JournalWarning,
    LossyJournal, ParsedJournal,
};
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, MetricsSnapshot};
pub use profiler::{PhaseNode, PhaseTimer, ProfileSnapshot, Profiler, Span};

use journal::Buffered;
use metrics::Registry;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shared state behind an enabled handle.
#[derive(Debug)]
struct Inner {
    /// All timestamps are microseconds since this instant.
    epoch: Instant,
    registry: Registry,
    sink: Mutex<Buffered>,
}

/// A cloneable telemetry handle: either enabled (shared registry +
/// journal sink) or disabled (every operation a no-op).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle. All metric handles it returns are dead and
    /// [`Telemetry::emit`] does nothing — no clock reads, no allocation.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle journaling to an in-memory sink (tests).
    pub fn in_memory() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Registry::default(),
                sink: Mutex::new(Buffered::memory()),
            })),
        }
    }

    /// An enabled handle journaling to `path` as JSONL. With `append`
    /// an existing journal is preserved (checkpoint resume); otherwise
    /// the file is truncated.
    pub fn to_file(path: &Path, append: bool) -> std::io::Result<Telemetry> {
        Ok(Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Registry::default(),
                sink: Mutex::new(Buffered::file(path, append)?),
            })),
        })
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this handle was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// Registers (or finds) the counter `name`. Disabled handles return
    /// a dead counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.registry.counter(name)))
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.registry.gauge(name)))
    }

    /// Registers (or finds) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| i.registry.histogram(name)))
    }

    /// Starts a stopwatch. Disabled handles never read the clock.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Appends `event` to the journal, stamped with the current
    /// monotonic offset. No-op when disabled.
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            let entry = JournalEntry {
                t_us: inner.epoch.elapsed().as_micros() as u64,
                event,
            };
            inner.sink.lock().push(entry.render());
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |i| i.registry.snapshot())
    }

    /// Journals the final value of every registered metric as
    /// `counter` / `gauge` / `histogram` events, then flushes.
    pub fn emit_metrics(&self) {
        if !self.is_enabled() {
            return;
        }
        let snap = self.snapshot();
        for (name, value) in snap.counters {
            self.emit(Event::CounterFinal { name, value });
        }
        for (name, value) in snap.gauges {
            self.emit(Event::GaugeFinal { name, value });
        }
        for (name, h) in snap.histograms {
            self.emit(Event::HistogramFinal {
                name,
                count: h.count,
                sum: h.sum,
                p50: h.p50,
                p90: h.p90,
                p99: h.p99,
                max: h.max,
            });
        }
        self.flush();
    }

    /// Forces buffered journal lines out to the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.lock().flush();
        }
    }

    /// Journal lines recorded so far (memory sinks only; a file-backed
    /// handle returns only unflushed lines — read the file instead).
    pub fn lines(&self) -> Vec<String> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.sink.lock().lines())
    }

    /// Number of sink write failures swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.sink.lock().io_errors())
    }
}

/// A wall-clock stopwatch that reads the clock only when telemetry is
/// enabled; [`Stopwatch::elapsed_us`] returns 0 otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Microseconds since the stopwatch started (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.0.map_or(0, |t0| t0.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("c").add(5);
        t.gauge("g").set(5);
        t.histogram("h").record(5);
        t.emit(Event::IterationStart {
            iteration: 1,
            configs: 2,
        });
        t.emit_metrics();
        t.flush();
        assert_eq!(t.now_us(), 0);
        assert_eq!(t.stopwatch().elapsed_us(), 0);
        assert_eq!(t.lines(), Vec::<String>::new());
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn clones_share_registry_and_sink() {
        let a = Telemetry::in_memory();
        let b = a.clone();
        a.counter("tuner.evals").add(2);
        b.counter("tuner.evals").add(3);
        assert_eq!(a.snapshot().counter("tuner.evals"), Some(5));
        b.emit(Event::IterationStart {
            iteration: 1,
            configs: 4,
        });
        assert_eq!(a.lines().len(), 1);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let t = Telemetry::in_memory();
        for i in 0..20 {
            t.emit(Event::IterationStart {
                iteration: i,
                configs: 1,
            });
        }
        let lines = t.lines();
        let (entries, errors) = parse_journal(&lines.join("\n"));
        assert!(errors.is_empty());
        let stamps: Vec<u64> = entries.iter().map(|e| e.t_us).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted);
    }

    #[test]
    fn emit_metrics_journals_every_kind() {
        let t = Telemetry::in_memory();
        t.counter("c").add(7);
        t.gauge("g").set(9);
        t.histogram("h").record(100);
        t.emit_metrics();
        let (entries, errors) = parse_journal(&t.lines().join("\n"));
        assert!(errors.is_empty());
        assert_eq!(entries.len(), 3);
        assert!(matches!(
            &entries[0].event,
            Event::CounterFinal { name, value: 7 } if name == "c"
        ));
        assert!(matches!(
            &entries[1].event,
            Event::GaugeFinal { name, value: 9 } if name == "g"
        ));
        assert!(matches!(
            &entries[2].event,
            Event::HistogramFinal { name, count: 1, sum: 100, max: 100, .. } if name == "h"
        ));
    }

    #[test]
    fn sending_across_threads_works() {
        let t = Telemetry::in_memory();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                let c = t.counter("threaded");
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.snapshot().counter("threaded"), Some(4000));
    }
}
