//! Timing adapters around the public seams of each layer. Each one
//! forwards to the real implementation unchanged and records how long the
//! call took, so the traced campaign makes exactly the decisions the
//! untraced one makes.

use crate::alloc;
use racesim_core::LazySuiteCost;
use racesim_dist::WorkerPool;
use racesim_hw::{HardwarePlatform, MeasureError, PerfCounters, ReferenceBoard};
use racesim_kernels::Workload;
use racesim_race::{Configuration, EvalDispatch, EvalError, ParamSpace, RetryPolicy, TryCostFn};
use racesim_trace::TraceBuffer;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock intervals of the calls into one layer.
#[derive(Debug, Default)]
pub struct Spans(Mutex<Vec<(Instant, Instant)>>);

impl Spans {
    pub fn push(&self, start: Instant, end: Instant) {
        self.0.lock().expect("span list lock").push((start, end));
    }

    pub fn intervals(&self) -> Vec<(Instant, Instant)> {
        self.0.lock().expect("span list lock").clone()
    }

    /// Sum of the call durations (counts overlapping calls twice).
    pub fn total(&self) -> Duration {
        self.intervals().iter().map(|(a, b)| *b - *a).sum()
    }
}

/// Length of the union of `spans`, clipped to `[from, to]`.
pub fn covered(mut spans: Vec<(Instant, Instant)>, from: Instant, to: Instant) -> Duration {
    spans.sort();
    let mut total = Duration::ZERO;
    let mut cursor = from;
    for (a, b) in spans {
        let (a, b) = (a.max(cursor), b.min(to));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

thread_local! {
    // Board time and allocations on the calling thread, so the cost
    // adapter can subtract a lazy measurement from the evaluation that
    // triggered it.
    static BOARD_NS: Cell<u64> = const { Cell::new(0) };
    static BOARD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// What a [`TimedBoard`] saw.
#[derive(Debug, Default)]
pub struct BoardStats {
    pub calls: AtomicU64,
    pub nanos: AtomicU64,
    instructions: Mutex<HashMap<String, u64>>,
}

impl BoardStats {
    /// Dynamic instructions of the last measurement of `workload`.
    pub fn instructions_of(&self, workload: &str) -> u64 {
        let map = self.instructions.lock().expect("board stats lock");
        map.get(workload).copied().unwrap_or(0)
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// `HardwarePlatform` adapter: times every `measure_trace` call.
#[derive(Debug)]
pub struct TimedBoard {
    inner: ReferenceBoard,
    stats: Arc<BoardStats>,
}

impl TimedBoard {
    pub fn new(inner: ReferenceBoard, stats: Arc<BoardStats>) -> TimedBoard {
        TimedBoard { inner, stats }
    }
}

impl HardwarePlatform for TimedBoard {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn measure(&self, workload: &Workload) -> Result<PerfCounters, MeasureError> {
        let trace = workload.trace()?;
        self.measure_trace(&workload.name, &trace, workload.uninit_data)
    }

    fn measure_trace(
        &self,
        name: &str,
        trace: &TraceBuffer,
        uninit_data: bool,
    ) -> Result<PerfCounters, MeasureError> {
        let (a0, b0) = alloc::thread_totals();
        let t0 = Instant::now();
        let out = self.inner.measure_trace(name, trace, uninit_data);
        let ns = t0.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::thread_totals();
        BOARD_NS.with(|c| c.set(c.get() + ns));
        BOARD_ALLOCS.with(|c| {
            let (a, b) = c.get();
            c.set((a + a1 - a0, b + b1 - b0));
        });
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.nanos.fetch_add(ns, Ordering::Relaxed);
        if let Ok(c) = &out {
            let mut map = self.stats.instructions.lock().expect("board stats lock");
            map.insert(name.to_string(), c.instructions);
        }
        out
    }
}

/// One evaluation seen by [`TimedCost`], board time and board
/// allocations taken out.
#[derive(Debug, Clone, Copy)]
pub struct EvalSample {
    pub sim: Duration,
    pub instructions: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// `TryCostFn` adapter around [`LazySuiteCost`].
pub struct TimedCost<'a> {
    inner: &'a LazySuiteCost,
    board: &'a BoardStats,
    pub spans: Spans,
    pub samples: Mutex<Vec<EvalSample>>,
}

impl<'a> TimedCost<'a> {
    pub fn new(inner: &'a LazySuiteCost, board: &'a BoardStats) -> TimedCost<'a> {
        TimedCost {
            inner,
            board,
            spans: Spans::default(),
            samples: Mutex::new(Vec::new()),
        }
    }
}

impl TryCostFn for TimedCost<'_> {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        let (a0, b0) = alloc::thread_totals();
        let board0 = (BOARD_NS.with(Cell::get), BOARD_ALLOCS.with(Cell::get));
        let t0 = Instant::now();
        let out = self.inner.try_cost(cfg, space, instance);
        let t1 = Instant::now();
        let (a1, b1) = alloc::thread_totals();
        let board1 = (BOARD_NS.with(Cell::get), BOARD_ALLOCS.with(Cell::get));
        let board_allocs = board1.1 .0 - board0.1 .0;
        let board_bytes = board1.1 .1 - board0.1 .1;
        let sample = EvalSample {
            sim: (t1 - t0).saturating_sub(Duration::from_nanos(board1.0 - board0.0)),
            instructions: self.board.instructions_of(self.inner.name(instance)),
            allocs: (a1 - a0) - board_allocs,
            bytes: (b1 - b0) - board_bytes,
        };
        self.spans.push(t0, t1);
        self.samples.lock().expect("sample lock").push(sample);
        out
    }
}

/// `EvalDispatch` adapter around [`WorkerPool`].
pub struct TimedDispatch {
    inner: WorkerPool,
    pub spans: Spans,
    pub tasks: AtomicU64,
    first: Mutex<Option<Duration>>,
}

impl std::fmt::Debug for TimedDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedDispatch")
            .field("inner", &self.inner)
            .finish()
    }
}

impl TimedDispatch {
    pub fn new(inner: WorkerPool) -> TimedDispatch {
        TimedDispatch {
            inner,
            spans: Spans::default(),
            tasks: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    /// Duration of the first batch: spawn, handshake and worker stack
    /// build happen inside it.
    pub fn first_batch(&self) -> Duration {
        self.first
            .lock()
            .expect("first batch lock")
            .unwrap_or_default()
    }
}

impl EvalDispatch for TimedDispatch {
    fn eval_batch(
        &self,
        space: &ParamSpace,
        tasks: &[&Configuration],
        instance: usize,
        retry: &RetryPolicy,
    ) -> Vec<(Result<f64, EvalError>, u64)> {
        let t0 = Instant::now();
        let out = self.inner.eval_batch(space, tasks, instance, retry);
        let t1 = Instant::now();
        self.spans.push(t0, t1);
        self.tasks.fetch_add(tasks.len() as u64, Ordering::Relaxed);
        self.first
            .lock()
            .expect("first batch lock")
            .get_or_insert(t1 - t0);
        out
    }
}
