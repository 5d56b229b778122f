//! The coordinator side of a distributed campaign: a pool of evaluation
//! workers behind the racing loop's [`EvalDispatch`] seam.
//!
//! # Dispatch
//!
//! Each batch of `(configuration, instance)` evaluations goes into a
//! shared queue; one coordinator thread per worker slot *pulls* tasks
//! from it (work stealing degenerates to pulling from a single shared
//! queue when tasks are homogeneous), round-trips each over the wire,
//! and writes the classified outcome into its slot-indexed cell.
//!
//! Nothing polls. An idle puller blocks on the queue without a timeout,
//! and the puller that completes a batch's last task wakes every puller
//! with one end-of-batch sentinel each, so a batch costs its slowest
//! round-trip and no more.
//!
//! The racing loop then classifies outcomes **in canonical configuration
//! order**, exactly as it does for the sequential and in-process-thread
//! backends — which worker answered which request, and in what order,
//! cannot influence elimination decisions, checkpoint bytes, or the
//! journal digest. That is the whole determinism argument, and the
//! `dispatch_backend_matches_the_inline_path` test in `racesim-race`
//! plus the CLI's end-to-end determinism test enforce it.
//!
//! # Failure handling
//!
//! Worker failures map into the campaign fault taxonomy rather than
//! inventing a parallel one:
//!
//! - a dead or hung worker (process exit, torn frame, per-request
//!   timeout, protocol violation) is killed and its in-flight task is
//!   **re-queued** for any healthy worker — the evaluation itself is
//!   presumed innocent, so its retry accounting is untouched;
//! - a slot that fails [`PoolOptions::max_failures`] times is
//!   **quarantined** — never respawned for the rest of the campaign —
//!   mirroring how `Quarantine` retires faulty instances;
//! - transient *evaluation* faults never reach the pool: the worker
//!   retries and escalates them itself via `eval_with_retry`, so wire
//!   outcomes are final.
//!
//! If every slot ends up quarantined, leftover tasks run locally through
//! the same `eval_with_retry` path — a distributed campaign degrades to
//! a sequential one instead of failing, and still exits 0.
//!
//! Every spawn, failure, and quarantine is journaled
//! ([`Event::WorkerSpawned`] / [`Event::WorkerFailed`] /
//! [`Event::WorkerQuarantined`]) so `racesim report` and
//! `racesim replay` observe distributed runs.

use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use racesim_core::latency::reference_estimates;
use racesim_race::{
    eval_with_retry, Configuration, EvalDispatch, EvalError, ParamSpace, RetryPolicy, TryCostFn,
};
use racesim_telemetry::{Counter, Event, Telemetry};

use crate::wire::{
    encode_config, read_response, write_request, InitSpec, Request, Response, WireError,
};

/// One classified evaluation outcome plus the retries it burned — the
/// exact tuple `eval_with_retry` returns and `eval_batch` must fill
/// per task slot.
type EvalOutcome = (Result<f64, EvalError>, u64);

/// One spawned worker's transport: where frames go, where they come
/// from, and the process handle (if any) to reap on teardown.
pub struct WorkerLink {
    /// Frame sink (the worker's stdin for spawned processes).
    pub writer: Box<dyn Write + Send>,
    /// Frame source (the worker's stdout for spawned processes).
    pub reader: Box<dyn Read + Send>,
    /// Process id, journaled in `worker_spawned` (0 if not a process).
    pub pid: u64,
    /// The child process to kill/reap when the link dies.
    pub child: Option<Child>,
}

impl std::fmt::Debug for WorkerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLink")
            .field("pid", &self.pid)
            .field("process", &self.child.is_some())
            .finish()
    }
}

/// Creates transports for worker slots. The production launcher spawns
/// `racesim worker` processes; tests substitute in-process loopbacks.
pub trait WorkerLauncher: Send + Sync {
    /// Launches (or re-launches) the transport for slot `worker`.
    ///
    /// # Errors
    ///
    /// A description of why the worker could not be started.
    fn launch(&self, worker: usize) -> Result<WorkerLink, String>;
}

/// Spawns worker processes from an argv, wiring frames over the child's
/// stdin/stdout and leaving stderr attached for diagnostics.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    argv: Vec<String>,
}

impl ProcessLauncher {
    /// A launcher running `argv` (program + arguments) per worker.
    ///
    /// # Panics
    ///
    /// Panics if `argv` is empty.
    pub fn new(argv: Vec<String>) -> ProcessLauncher {
        assert!(!argv.is_empty(), "worker command must name a program");
        ProcessLauncher { argv }
    }
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
        let mut child = Command::new(&self.argv[0])
            .args(&self.argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {:?} failed: {e}", self.argv[0]))?;
        let stdin = child.stdin.take().ok_or("worker stdin unavailable")?;
        let stdout = child.stdout.take().ok_or("worker stdout unavailable")?;
        Ok(WorkerLink {
            writer: Box::new(stdin),
            reader: Box::new(stdout),
            pid: u64::from(child.id()),
            child: Some(child),
        })
    }
}

/// Coordinator-side pool policy.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker slots (>= 1).
    pub workers: usize,
    /// Campaign context sent in each worker's `init` handshake; the
    /// `worker` field is overwritten with the slot index per spawn.
    pub init: InitSpec,
    /// Per-request deadline; a worker that blows it is killed and its
    /// task re-dispatched. The worker-side watchdog (`timeout_ms` in the
    /// init spec) should be the tighter bound — this is the backstop
    /// against a wedged process.
    pub request_timeout: Duration,
    /// Deadline for spawn + handshake. Workers take the latency
    /// estimates from the handshake instead of probing, but still
    /// generate the suite's traces, so this stays generous.
    pub spawn_timeout: Duration,
    /// Failures before a slot is quarantined for good.
    pub max_failures: u32,
}

impl PoolOptions {
    /// Defaults: 2-minute request backstop, 5-minute spawn deadline,
    /// quarantine after 3 failures.
    pub fn new(workers: usize, init: InitSpec) -> PoolOptions {
        PoolOptions {
            workers: workers.max(1),
            init,
            request_timeout: Duration::from_secs(120),
            spawn_timeout: Duration::from_secs(300),
            max_failures: 3,
        }
    }
}

/// A live worker connection: the frame sink plus a channel fed by a
/// dedicated reader thread, so every receive can carry a timeout.
struct Conn {
    writer: Box<dyn Write + Send>,
    rx: Receiver<Result<Response, WireError>>,
    child: Option<Child>,
    pid: u64,
}

impl Conn {
    /// Tears the connection down: closes the sink (EOF on the worker's
    /// stdin), then kills and reaps the process if there is one.
    fn kill(&mut self) {
        self.writer = Box::new(std::io::sink());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Per-slot lifecycle state.
#[derive(Default)]
struct Slot {
    conn: Option<Conn>,
    failures: u32,
    quarantined: bool,
}

/// A pool of evaluation workers implementing [`EvalDispatch`].
pub struct WorkerPool {
    launcher: Box<dyn WorkerLauncher>,
    opts: PoolOptions,
    fallback: Arc<dyn TryCostFn + Send + Sync>,
    telemetry: Telemetry,
    slots: Vec<Mutex<Slot>>,
    next_id: AtomicU64,
    m_dispatched: Counter,
    m_redispatched: Counter,
    m_fallback: Counter,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.opts.workers)
            .field("max_failures", &self.opts.max_failures)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `opts.workers` slots. Workers are spawned
    /// lazily, on the first task each slot pulls. `fallback` is the
    /// coordinator's own cost function, used only when every slot is
    /// quarantined.
    pub fn new(
        launcher: Box<dyn WorkerLauncher>,
        opts: PoolOptions,
        fallback: Arc<dyn TryCostFn + Send + Sync>,
        telemetry: Telemetry,
    ) -> WorkerPool {
        let slots = (0..opts.workers)
            .map(|_| Mutex::new(Slot::default()))
            .collect();
        WorkerPool {
            launcher,
            m_dispatched: telemetry.counter("dist.dispatched"),
            m_redispatched: telemetry.counter("dist.redispatched"),
            m_fallback: telemetry.counter("dist.local_fallback"),
            opts,
            fallback,
            telemetry,
            slots,
            next_id: AtomicU64::new(1),
        }
    }

    /// Spawns slot `w`'s worker and runs the init/ready handshake,
    /// validating that the worker rebuilt the same parameter space. The
    /// init frame carries the coordinator's memoised reference-board
    /// latency estimates, so the worker's base platform is this
    /// process's without a second probe run.
    fn spawn(&self, w: usize, n_params: usize) -> Result<Conn, String> {
        let est = reference_estimates(self.opts.init.core_kind()?)?;
        let link = self.launcher.launch(w)?;
        let (tx, rx) = channel::unbounded();
        let mut reader = link.reader;
        std::thread::Builder::new()
            .name(format!("dist-rx-{w}"))
            .spawn(move || loop {
                match read_response(&mut reader) {
                    Ok(Response::Bye) => break,
                    Ok(resp) => {
                        if tx.send(Ok(resp)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            })
            .map_err(|e| format!("reader thread spawn failed: {e}"))?;
        let mut conn = Conn {
            writer: link.writer,
            rx,
            child: link.child,
            pid: link.pid,
        };
        let mut init = self.opts.init.clone();
        init.worker = w;
        write_request(&mut conn.writer, &Request::Init(init, est))
            .map_err(|e| format!("init handshake send failed: {e}"))?;
        match conn.rx.recv_timeout(self.opts.spawn_timeout) {
            Ok(Ok(Response::Ready {
                n_params: theirs, ..
            })) if theirs == n_params => Ok(conn),
            Ok(Ok(Response::Ready {
                n_params: theirs, ..
            })) => Err(format!(
                "space mismatch: worker has {theirs} parameters, coordinator has {n_params}"
            )),
            Ok(Ok(resp)) => Err(format!("handshake protocol violation: {resp:?}")),
            Ok(Err(e)) => Err(format!("handshake failed: {e}")),
            Err(RecvTimeoutError::Timeout) => Err(format!(
                "handshake timed out after {}ms",
                self.opts.spawn_timeout.as_millis()
            )),
            Err(RecvTimeoutError::Disconnected) => {
                Err("worker exited during handshake".to_string())
            }
        }
    }

    /// Records one failure on slot `w`, quarantining it at the
    /// threshold. Returns whether the slot is now quarantined.
    fn record_failure(&self, slot: &mut Slot, w: usize, reason: &str) -> bool {
        slot.failures += 1;
        self.telemetry.emit(Event::WorkerFailed {
            worker: w,
            reason: reason.to_string(),
        });
        if !slot.quarantined && slot.failures >= self.opts.max_failures {
            slot.quarantined = true;
            self.telemetry.emit(Event::WorkerQuarantined {
                worker: w,
                failures: u64::from(slot.failures),
            });
        }
        slot.quarantined
    }

    /// Round-trips one evaluation over slot `w`, spawning its worker if
    /// needed. `Err(quarantined)` means the task must be re-dispatched;
    /// the flag tells the calling loop whether this slot is finished.
    fn eval_on(
        &self,
        w: usize,
        space: &ParamSpace,
        cfg: &Configuration,
        instance: usize,
        retry: &RetryPolicy,
    ) -> Result<EvalOutcome, bool> {
        let mut slot = self.slots[w].lock();
        if slot.quarantined {
            return Err(true);
        }
        if slot.conn.is_none() {
            match self.spawn(w, space.len()) {
                Ok(conn) => {
                    self.telemetry.emit(Event::WorkerSpawned {
                        worker: w,
                        pid: conn.pid,
                    });
                    slot.conn = Some(conn);
                }
                Err(reason) => return Err(self.record_failure(&mut slot, w, &reason)),
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request::Eval {
            id,
            config: encode_config(space, cfg),
            instance,
            retry: *retry,
        };
        let fail = |slot: &mut Slot, reason: String| {
            if let Some(conn) = slot.conn.as_mut() {
                conn.kill();
            }
            slot.conn = None;
            Err(self.record_failure(slot, w, &reason))
        };
        let sent = {
            let conn = slot.conn.as_mut().expect("slot has a live connection");
            write_request(&mut conn.writer, &req)
        };
        if let Err(e) = sent {
            return fail(&mut slot, format!("request send failed: {e}"));
        }
        let reply = {
            let conn = slot.conn.as_ref().expect("slot has a live connection");
            conn.rx.recv_timeout(self.opts.request_timeout)
        };
        match reply {
            Ok(Ok(Response::Eval {
                id: rid,
                outcome,
                retries,
            })) if rid == id => {
                self.m_dispatched.inc();
                Ok((outcome.into_result(), retries))
            }
            Ok(Ok(resp)) => fail(
                &mut slot,
                format!("protocol violation: unexpected {resp:?}"),
            ),
            Ok(Err(WireError::Closed)) => fail(&mut slot, "worker exited mid-request".to_string()),
            Ok(Err(e)) => fail(&mut slot, format!("wire fault: {e}")),
            Err(RecvTimeoutError::Timeout) => fail(
                &mut slot,
                format!(
                    "request timed out after {}ms",
                    self.opts.request_timeout.as_millis()
                ),
            ),
            Err(RecvTimeoutError::Disconnected) => {
                fail(&mut slot, "worker reader thread exited".to_string())
            }
        }
    }

    /// One slot's pull loop: evaluate tasks from the shared queue until
    /// the batch's end-of-batch sentinel (`None`) arrives or this slot is
    /// quarantined.
    ///
    /// Blocking without a timeout is safe because a pending task is
    /// always either queued or in flight on a live puller: a failing
    /// puller re-queues its task before it returns, so while any puller
    /// waits, some task or sentinel is still to arrive. The puller that
    /// completes the last task sends one sentinel per puller.
    #[allow(clippy::too_many_arguments)]
    fn pull_loop(
        &self,
        w: usize,
        queue_tx: &channel::Sender<Option<usize>>,
        queue_rx: &Receiver<Option<usize>>,
        pullers: usize,
        space: &ParamSpace,
        tasks: &[&Configuration],
        instance: usize,
        retry: &RetryPolicy,
        results: &Mutex<Vec<Option<EvalOutcome>>>,
        pending: &AtomicUsize,
    ) {
        while let Ok(Some(task)) = queue_rx.recv() {
            match self.eval_on(w, space, tasks[task], instance, retry) {
                Ok(outcome) => {
                    results.lock()[task] = Some(outcome);
                    if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        for _ in 0..pullers {
                            let _ = queue_tx.send(None);
                        }
                    }
                }
                Err(quarantined) => {
                    // The evaluation is presumed innocent of the
                    // worker's death: back into the queue, retry
                    // accounting untouched.
                    self.m_redispatched.inc();
                    let _ = queue_tx.send(Some(task));
                    if quarantined {
                        return;
                    }
                }
            }
        }
    }
}

impl EvalDispatch for WorkerPool {
    fn eval_batch(
        &self,
        space: &ParamSpace,
        tasks: &[&Configuration],
        instance: usize,
        retry: &RetryPolicy,
    ) -> Vec<EvalOutcome> {
        let n = tasks.len();
        let results: Mutex<Vec<Option<EvalOutcome>>> = Mutex::new((0..n).map(|_| None).collect());
        let pending = AtomicUsize::new(n);
        let (queue_tx, queue_rx) = channel::unbounded();
        for task in 0..n {
            queue_tx.send(Some(task)).expect("queue is open");
        }
        // No pullers for an empty batch: nothing would wake them.
        let pullers = self.opts.workers.min(n);
        crossbeam::scope(|scope| {
            for w in 0..pullers {
                let (queue_tx, queue_rx) = (&queue_tx, &queue_rx);
                let (results, pending) = (&results, &pending);
                scope.spawn(move |_| {
                    self.pull_loop(
                        w, queue_tx, queue_rx, pullers, space, tasks, instance, retry, results,
                        pending,
                    );
                });
            }
        })
        .expect("pool dispatch threads do not panic");
        // Every slot quarantined with work left: degrade to the local
        // path so the campaign still completes (and still exits 0). No
        // sentinel was sent, since no puller completed the last task.
        while pending.load(Ordering::Acquire) > 0 {
            let task = queue_rx
                .try_recv()
                .ok()
                .flatten()
                .expect("unfinished tasks are always queued");
            self.m_fallback.inc();
            let outcome =
                eval_with_retry(self.fallback.as_ref(), tasks[task], space, instance, retry);
            results.lock()[task] = Some(outcome);
            pending.fetch_sub(1, Ordering::AcqRel);
        }
        results
            .into_inner()
            .into_iter()
            .map(|cell| cell.expect("every task has an outcome"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for slot in &self.slots {
            let mut slot = slot.lock();
            if let Some(mut conn) = slot.conn.take() {
                // Orderly goodbye first; the kill in Conn::drop is the
                // backstop for workers that ignore it.
                if write_request(&mut conn.writer, &Request::Shutdown).is_ok() {
                    let _ = conn.rx.recv_timeout(Duration::from_millis(500));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{serve, WorkerOptions, WorkerStack};
    use std::os::unix::net::UnixStream;

    struct LinearCost;
    impl TryCostFn for LinearCost {
        fn try_cost(
            &self,
            cfg: &Configuration,
            space: &ParamSpace,
            instance: usize,
        ) -> Result<f64, EvalError> {
            Ok(cfg.integer(space, "x") as f64 + instance as f64 * 0.125)
        }
    }

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[1, 2, 3, 4, 5, 6, 7, 8]);
        s
    }

    fn init_spec() -> InitSpec {
        InitSpec {
            core: "a53".to_string(),
            scale: 2048,
            faults: "none".to_string(),
            fault_seed: 1,
            timeout_ms: 0,
            worker: 0,
            static_bounds: false,
        }
    }

    /// Serves the synthetic stack over a socketpair in a thread.
    struct Loopback {
        opts: WorkerOptions,
    }

    impl WorkerLauncher for Loopback {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            let (coord, work) = UnixStream::pair().map_err(|e| e.to_string())?;
            let opts = self.opts.clone();
            std::thread::spawn(move || {
                let mut reader = work.try_clone().expect("clone socket");
                let mut writer = work;
                let _ = serve(&mut reader, &mut writer, &opts, |_, _| {
                    Ok(WorkerStack {
                        space: space(),
                        cost: Arc::new(LinearCost),
                        n_instances: 4,
                    })
                });
            });
            let reader = coord.try_clone().map_err(|e| e.to_string())?;
            Ok(WorkerLink {
                writer: Box::new(coord),
                reader: Box::new(reader),
                pid: 0,
                child: None,
            })
        }
    }

    /// A launcher that never produces a worker.
    struct Stillborn;
    impl WorkerLauncher for Stillborn {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            Err("no such worker binary".to_string())
        }
    }

    fn configs(space: &ParamSpace, picks: &[u16]) -> Vec<Configuration> {
        picks
            .iter()
            .map(|&k| {
                let mut cfg = space.default_configuration();
                cfg.set_value(0, racesim_race::Value::Int(k));
                cfg
            })
            .collect()
    }

    #[test]
    fn batches_come_back_in_task_order_bit_identically() {
        let space = space();
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions::default(),
            }),
            PoolOptions::new(3, init_spec()),
            Arc::new(LinearCost),
            Telemetry::disabled(),
        );
        let cfgs = configs(&space, &[4, 0, 7, 2, 5, 1]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let got = pool.eval_batch(&space, &tasks, 2, &RetryPolicy::immediate(1));
        assert_eq!(got.len(), tasks.len());
        for (slot, (result, retries)) in got.iter().enumerate() {
            let expect = eval_with_retry(
                &LinearCost,
                tasks[slot],
                &space,
                2,
                &RetryPolicy::immediate(1),
            );
            assert_eq!(
                result.clone().map(f64::to_bits),
                expect.0.map(f64::to_bits),
                "slot {slot} diverged"
            );
            assert_eq!(*retries, expect.1);
        }
        assert!(pool
            .eval_batch(&space, &[], 2, &RetryPolicy::immediate(1))
            .is_empty());
    }

    #[test]
    fn dying_workers_are_redispatched_then_quarantined() {
        let telemetry = Telemetry::in_memory();
        // Both slots die on their first eval request, every time they
        // are respawned: after max_failures each is quarantined and the
        // batch must finish through the local fallback.
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions {
                    exit_after: Some(1),
                    only_worker: None,
                },
            }),
            PoolOptions {
                max_failures: 2,
                ..PoolOptions::new(2, init_spec())
            },
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[3, 6, 1]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let got = pool.eval_batch(&space, &tasks, 0, &RetryPolicy::immediate(1));
        for (slot, (result, _)) in got.iter().enumerate() {
            let expect = eval_with_retry(
                &LinearCost,
                tasks[slot],
                &space,
                0,
                &RetryPolicy::immediate(1),
            );
            assert_eq!(result.clone().map(f64::to_bits), expect.0.map(f64::to_bits));
        }
        let journal = telemetry.lines();
        let failed = journal
            .iter()
            .filter(|l| l.contains("\"ev\":\"worker_failed\""))
            .count();
        let quarantined = journal
            .iter()
            .filter(|l| l.contains("\"ev\":\"worker_quarantined\""))
            .count();
        assert!(failed >= 4, "expected >= 4 worker failures, saw {failed}");
        assert_eq!(quarantined, 2, "both slots quarantine");
    }

    /// Runs `batches` small batches (2–3 tasks, cycling) through `pool`
    /// and checks every outcome against the inline path.
    fn run_small_batches(pool: &WorkerPool, batches: usize) {
        let space = space();
        let retry = RetryPolicy::immediate(1);
        for b in 0..batches {
            let picks: Vec<u16> = (0..2 + b % 2).map(|k| ((b + k) % 8) as u16).collect();
            let cfgs = configs(&space, &picks);
            let tasks: Vec<&Configuration> = cfgs.iter().collect();
            let instance = b % 4;
            let got = pool.eval_batch(&space, &tasks, instance, &retry);
            assert_eq!(got.len(), tasks.len(), "batch {b}");
            for (slot, (result, _)) in got.iter().enumerate() {
                let expect = eval_with_retry(&LinearCost, tasks[slot], &space, instance, &retry);
                assert_eq!(
                    result.clone().map(f64::to_bits),
                    expect.0.map(f64::to_bits),
                    "batch {b} slot {slot} diverged"
                );
            }
        }
    }

    #[test]
    fn small_batches_finish_without_polling_delays() {
        // A batch ends when its last outcome arrives. A puller that waits
        // on a timed poll instead adds up to one poll period per batch,
        // which 120 batches would turn into whole seconds.
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions::default(),
            }),
            PoolOptions::new(2, init_spec()),
            Arc::new(LinearCost),
            Telemetry::disabled(),
        );
        // Spawn both workers outside the timed region.
        run_small_batches(&pool, 1);
        let t0 = std::time::Instant::now();
        run_small_batches(&pool, 120);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "120 two-to-three-task batches took {elapsed:?}"
        );
    }

    #[test]
    fn a_worker_killed_mid_campaign_still_completes_every_batch() {
        let telemetry = Telemetry::in_memory();
        // Slot 0's worker dies on every 5th request it serves, so it is
        // respawned, re-dispatched and finally quarantined while slot 1
        // carries on.
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions {
                    exit_after: Some(5),
                    only_worker: Some(0),
                },
            }),
            PoolOptions::new(2, init_spec()),
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        // Probe outside the timed region, as the first spawn would.
        reference_estimates(init_spec().core_kind().unwrap()).unwrap();
        let t0 = std::time::Instant::now();
        run_small_batches(&pool, 100);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "100 batches with a dying worker took {elapsed:?}"
        );
        let journal = telemetry.lines();
        let count = |ev: &str| journal.iter().filter(|l| l.contains(ev)).count();
        assert_eq!(count("\"ev\":\"worker_failed\""), 3);
        assert_eq!(count("\"ev\":\"worker_quarantined\""), 1);
    }

    #[test]
    fn stillborn_workers_fall_back_to_local_evaluation() {
        let pool = WorkerPool::new(
            Box::new(Stillborn),
            PoolOptions {
                max_failures: 1,
                ..PoolOptions::new(2, init_spec())
            },
            Arc::new(LinearCost),
            Telemetry::disabled(),
        );
        let space = space();
        let cfgs = configs(&space, &[0, 7]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let got = pool.eval_batch(&space, &tasks, 1, &RetryPolicy::immediate(1));
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(r, _)| r.is_ok()));
    }
}
