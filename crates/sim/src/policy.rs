//! The online static-order scheduling policy (§IV), simulated on a
//! discrete-event multiprocessor platform.
//!
//! The policy repeats the static schedule frame with period `H`. On each
//! processor independently, the scheduler picks jobs in static start-time
//! order and runs a *round* per job:
//!
//! 1. **Synchronize Invocation** — wait for the invocation corresponding to
//!    the job. Periodic (and server) jobs are invoked at `f·H + A_i`;
//!    a sporadic server slot is invoked when its matching real event
//!    arrives (possibly before `A_i`), or is marked **false** at `A_i` if
//!    fewer events arrived in its window.
//! 2. **Synchronize Precedence** — wait until all task-graph predecessors
//!    (and, across frames, the wrap-around predecessors of conflicting
//!    processes) have completed.
//! 3. **Execute** the job, unless marked false.
//!
//! A sporadic slot's window is `(b − T′, b]` when the sporadic process has
//! functional priority over its user and `[b − T′, b)` otherwise (Fig. 2's
//! boundary rule).
//!
//! The simulation is *deterministic*: given the network, stimuli, schedule
//! and execution-time model it computes exact rational start/completion
//! times, runs the process behaviors in a precedence-consistent order, and
//! yields [`Observables`] that must equal the zero-delay reference
//! (Prop. 4.1 — asserted by the integration test-suite).
//!
//! One engine computes every run. Its round loop is frame-major and
//! memoized wherever replay can hit (see [`RoundEngine`]): a frame whose
//! input equals an earlier frame's, relative to each frame's base, replays
//! that frame's rounds shifted in time instead of recomputing them. The
//! memo-off loop stays as the reference the differential suite checks
//! replay against ([`crate::hotpath`]).

use std::error::Error;
use std::fmt;

use fppn_core::{
    BehaviorBank, ExecError, ExecState, Fppn, NetworkError, Observables, ProcessId, Stimuli,
};
use fppn_taskgraph::{DerivedTaskGraph, JobId, TaskGraph};
use fppn_sched::StaticSchedule;
use fppn_time::{ContentHasher, TimeQ};

use crate::cancel::CancelToken;
use crate::compile::StaticTables;
use crate::exectime::ExecTimeModel;
use crate::overhead::OverheadModel;

/// Simulation parameters. Every field changes what a run computes; there
/// is no execution-strategy knob.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of schedule frames (hyperperiods) to simulate.
    pub frames: u64,
    /// Runtime frame-management overhead model.
    pub overhead: OverheadModel,
    /// Actual-execution-time model.
    pub exec_time: ExecTimeModel,
}

impl SimConfig {
    /// Absorbs the configuration into a content hash: frame count,
    /// overhead model, and execution-time model (tagged, with its
    /// parameters, including the `Jitter` seed). The destructuring is
    /// exhaustive, so a new field cannot be left out of the serve-layer
    /// `RunCache` key unnoticed.
    pub fn content_hash_into(&self, h: &mut ContentHasher) {
        let SimConfig {
            frames,
            overhead,
            exec_time,
        } = *self;
        h.write_u64(frames);
        h.write_time(overhead.first_frame);
        h.write_time(overhead.steady_frame);
        match exec_time {
            ExecTimeModel::Wcet => h.write_u8(0),
            ExecTimeModel::Scaled { num, den } => {
                h.write_u8(1);
                h.write_u32(num);
                h.write_u32(den);
            }
            ExecTimeModel::Jitter {
                lo_permille,
                hi_permille,
                seed,
            } => {
                h.write_u8(2);
                h.write_u32(lo_permille);
                h.write_u32(hi_permille);
                h.write_u64(seed);
            }
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            frames: 1,
            overhead: OverheadModel::NONE,
            exec_time: ExecTimeModel::Wcet,
        }
    }
}

/// The fate of one scheduled job instance (one round). A run's records
/// are its whole timeline: [`crate::gantt_ascii`] draws Fig. 6's chart
/// from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The process.
    pub process: ProcessId,
    /// Frame index.
    pub frame: u64,
    /// Job id within the task graph (per-frame).
    pub job: JobId,
    /// Global invocation count actually executed (0 for skipped slots).
    pub global_k: u64,
    /// Processor that ran (or resolved) the round.
    pub processor: usize,
    /// Real invocation time: `f·H + A_i` for periodic jobs, the matching
    /// event arrival for sporadic slots, the window close for false slots.
    pub invoked_at: TimeQ,
    /// Execution start (equals `invoked_at`-resolution for skipped slots).
    pub start: TimeQ,
    /// Completion (resolution time for skipped slots).
    pub completion: TimeQ,
    /// Absolute deadline (untruncated: invocation + relative deadline).
    pub deadline: TimeQ,
    /// Whether the deadline was missed.
    pub missed: bool,
    /// Whether this was a false-marked (skipped) server slot.
    pub skipped: bool,
}

/// Aggregate statistics of one simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Jobs actually executed.
    pub executed: usize,
    /// Server slots skipped as false.
    pub skipped: usize,
    /// Deadline misses among executed jobs.
    pub deadline_misses: usize,
    /// Largest `completion − deadline` over missing jobs (zero if none).
    pub max_lateness: TimeQ,
    /// Latest completion time observed.
    pub makespan: TimeQ,
}

/// The result of a simulation run: data only.
#[derive(Debug)]
pub struct SimRun {
    /// Per-channel / per-output observable value sequences; must equal the
    /// zero-delay reference for the same stimuli (Prop. 4.1).
    pub observables: Observables,
    /// Every round, in behavior-execution order.
    pub records: Vec<JobRecord>,
    /// Aggregate statistics.
    pub stats: SimStats,
}

/// Errors from the simulator.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The stimuli are inconsistent with the network.
    Network(NetworkError),
    /// A behavior failed while executing.
    Exec(ExecError),
    /// The per-processor static orders deadlocked against the precedence
    /// constraints (the schedule was not produced by a correct scheduler).
    Stalled {
        /// Rounds completed before the stall.
        completed_rounds: usize,
    },
    /// The run's [`CancelToken`](crate::CancelToken) tripped (explicit
    /// cancel, expired deadline, or cancelled parent) and the engine
    /// abandoned the run at a frame/round boundary.
    Cancelled {
        /// Rounds fully computed before the run observed the cancellation.
        completed_rounds: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Network(e) => write!(f, "invalid stimuli: {e}"),
            SimError::Exec(e) => write!(f, "behavior failed: {e}"),
            SimError::Stalled { completed_rounds } => write!(
                f,
                "static-order policy deadlocked after {completed_rounds} rounds \
                 (schedule inconsistent with precedence constraints)"
            ),
            SimError::Cancelled { completed_rounds } => write!(
                f,
                "run cancelled after {completed_rounds} completed rounds"
            ),
        }
    }
}

impl Error for SimError {}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        SimError::Network(e)
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// Clips sporadic arrivals to the window range covered by `frames` frames
/// of server slots, so that a zero-delay reference over the same horizon
/// observes exactly the jobs the simulation will execute.
///
/// A sporadic process with server period `T′` has its last simulated slot
/// subset at `frames·H − T′`; arrivals beyond that subset's window would
/// only be handled by the (unsimulated) next frame.
pub fn clip_stimuli(
    net: &Fppn,
    derived: &DerivedTaskGraph,
    stimuli: &Stimuli,
    frames: u64,
) -> Stimuli {
    let mut clipped = stimuli.clone();
    let h = derived.hyperperiod;
    let end = TimeQ::from_int(frames as i64) * h;
    for pid in net.process_ids() {
        if let Some(server) = derived.server(pid) {
            let last_subset = end - server.period;
            let keep: Vec<TimeQ> = stimuli
                .arrival_times(pid)
                .iter()
                .copied()
                .filter(|&t| {
                    if server.priority_over_user {
                        // Window (b − T', b]: covered iff t <= last_subset.
                        t <= last_subset
                    } else {
                        // Window [b − T', b): covered iff t < last_subset.
                        t < last_subset
                    }
                })
                .collect();
            clipped.arrivals(pid, keep.into_iter().collect());
        }
    }
    clipped
}

/// Reusable buffers for [`RoundEngine::compute_rounds_into`]: the flat
/// completion table (`[frame * n_jobs + job]`), per-processor availability,
/// the per-processor cursors and the output records. Owned by the caller
/// so a steady-state loop recomputing rounds over the same engine shape
/// reuses every buffer instead of reallocating per pass.
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    completion: Vec<Option<TimeQ>>,
    proc_avail: Vec<TimeQ>,
    cursors: Vec<(u64, usize)>,
    pub(crate) records: Vec<JobRecord>,
    /// The frame memo. Living in the scratch (hence in `RunScratch`) lets
    /// a serve worker's steady state reuse the entry buffers run after run.
    memo: FrameMemo,
}

impl RoundScratch {
    /// Empty scratch; the first compute pass sizes the buffers.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Cumulative frame-memo `(hits, misses)` over every compute into this
    /// scratch. Both stay zero while the memo never engages (non-`Wcet`
    /// model, bounded FIFOs, a single frame, or the memo-off reference).
    pub(crate) fn memo_stats(&self) -> (u64, u64) {
        (self.memo.hits, self.memo.misses)
    }
}

/// A bounded table of computed frames, indexed by a 64-bit FNV-1a
/// fingerprint of each frame's input and verified by content.
///
/// One entry memoizes one frame's full round table (records plus the
/// processor-availability snapshot it leaves behind), stored **absolute**
/// alongside the source frame's base time; replay shifts everything by
/// `base_now − src_base`. The entry also keeps the carry-in the source
/// frame was computed from, so a lookup only hits when the input really
/// is equal: the fingerprint narrows the candidates, the content check
/// decides. The table is reset (keys cleared, entry buffers retained) at
/// the start of every compute, so entries never leak across runs —
/// cross-run reuse is purely of buffer *capacity*, which is what keeps the
/// steady-state hit and re-insert paths allocation-free.
///
/// Lookup is a linear scan over at most [`FrameMemo::CAPACITY`] keys:
/// distinct fingerprints per run are bounded by the distinct carry-in
/// states, which periodic workloads keep at one or two, and a scan of 16
/// `u64`s beats any hash-map indirection at that size. Eviction is a plain
/// ring over the slots.
#[derive(Debug, Default)]
struct FrameMemo {
    /// Live fingerprints; `keys[i]` owns `entries[i]`.
    keys: Vec<u64>,
    /// Entry buffers; may outnumber `keys` after a reset (spares keep
    /// their capacity for re-insertion).
    entries: Vec<MemoEntry>,
    /// Next slot to overwrite once the table is full.
    next_evict: usize,
    hits: u64,
    misses: u64,
}

/// One memoized frame: the input it was computed from, relative to its
/// base, and the records and per-processor availability it produced,
/// absolute.
#[derive(Debug, Default)]
struct MemoEntry {
    /// The source frame; its server-slot resolutions and release gate are
    /// read back from the engine's slabs when a lookup checks content.
    src_frame: u64,
    src_base: TimeQ,
    /// Carry-in processor availability, `proc_avail − src_base`.
    avail_in: Vec<TimeQ>,
    /// Carry-in previous-frame completions at every wrap-predecessor slot,
    /// `completion − src_base`; empty for frame 0, which has none.
    wrap_in: Vec<TimeQ>,
    records: Vec<JobRecord>,
    avail_out: Vec<TimeQ>,
    /// The frame's completions at the wrap-predecessor jobs (absolute).
    /// These are the only completion slots any *later* frame reads — via
    /// `wrap_preds_of` during computation and the carry-in during
    /// fingerprinting — so a replay hit fills just these few instead of
    /// storing all `n_jobs` completions back.
    wrap_out: Vec<(u32, TimeQ)>,
}

impl FrameMemo {
    const CAPACITY: usize = 16;

    /// Forgets every entry while keeping all buffer capacity (and the
    /// cumulative hit/miss counters).
    fn reset(&mut self) {
        self.keys.clear();
        self.next_evict = 0;
    }

    /// Finds an entry under `fingerprint` whose input `same_input`
    /// confirms, counting the hit or miss. A fingerprint match whose
    /// content differs is a miss.
    fn lookup(
        &mut self,
        fingerprint: u64,
        same_input: impl Fn(&MemoEntry) -> bool,
    ) -> Option<usize> {
        let hit = self
            .keys
            .iter()
            .zip(&self.entries)
            .position(|(&k, entry)| k == fingerprint && same_input(entry));
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Claims the slot a newly computed frame is memoized in, evicting
    /// round-robin when full, and returns its entry with every buffer
    /// cleared. The caller refills the buffers with `extend`: allocation-free
    /// once they have warmed to the frame size.
    fn claim(&mut self, fingerprint: u64) -> &mut MemoEntry {
        let slot = if self.keys.len() < Self::CAPACITY {
            self.keys.push(fingerprint);
            if self.entries.len() < self.keys.len() {
                self.entries.push(MemoEntry::default());
            }
            self.keys.len() - 1
        } else {
            let slot = self.next_evict;
            self.next_evict = (slot + 1) % Self::CAPACITY;
            self.keys[slot] = fingerprint;
            slot
        };
        let entry = &mut self.entries[slot];
        entry.avail_in.clear();
        entry.wrap_in.clear();
        entry.records.clear();
        entry.avail_out.clear();
        entry.wrap_out.clear();
        entry
    }
}

/// The frame-repeated policy table plus everything the round loop needs:
/// static per-processor orders, wrap-around predecessors, per-instance
/// slot resolutions, pre-drawn execution times and per-frame release
/// gates.
///
/// The compile-phase tables (CSR orders, wrap predecessors, topological
/// positions, slot templates) are **borrowed** from a
/// [`StaticTables`] — built once per compiled network and shared by any
/// number of runs. Only the per-run slabs (slot resolutions bound to this
/// run's stimuli, pre-drawn execution times, frame gates) are owned here,
/// still flat struct-of-arrays indexed by `frame * n_jobs + job` so the
/// steady-state loop does contiguous indexed loads.
pub(crate) struct RoundEngine<'a> {
    graph: &'a TaskGraph,
    frames: u64,
    n_jobs: usize,
    m_procs: usize,
    /// Borrowed compile-phase tables (CSR orders, wrap preds, topo, …).
    tables: &'a StaticTables,
    /// Slot-resolution slabs, `[frame * n_jobs + job]`.
    slot_invoked: Vec<TimeQ>,
    slot_deadline: Vec<TimeQ>,
    slot_executable: Vec<bool>,
    /// Pre-drawn execution times, `[frame * n_jobs + job]`.
    exec_times: Vec<TimeQ>,
    /// `f·H + frame_overhead(f)` per frame: no executed job starts earlier.
    frame_gates: Vec<TimeQ>,
    h: TimeQ,
    /// Whether the round loop runs through the frame memo: whenever replay
    /// is sound and can hit — the deterministic [`ExecTimeModel::Wcet`]
    /// model, a network without bounded-capacity FIFOs, and at least two
    /// frames. Everything else computes every frame live.
    memo_enabled: bool,
    /// Job indices whose slots are server (sporadic) slots — the only
    /// slots whose resolution can differ between frames relative to the
    /// frame base, hence the only slots the frame fingerprint must absorb.
    server_slots: Vec<usize>,
    /// Per-frame static fingerprint contribution (server-slot resolutions
    /// and the release gate, relative to the frame base) — fixed once the
    /// stimuli are bound, so it is hashed once at engine build instead of
    /// once per compute. Empty unless the memo is enabled; the
    /// collision-audit path builds its own copy on demand.
    frame_fp_static: Vec<u64>,
    /// Cooperative cancellation, polled at round/frame boundaries and per
    /// behavior job. `None` (the default) compiles the checks down to a
    /// branch on a constant — classic runs pay nothing.
    cancel: Option<&'a CancelToken>,
}

impl<'a> RoundEngine<'a> {
    /// Validates stimuli and binds the per-run slabs to the borrowed
    /// compile-phase tables.
    pub(crate) fn new(
        net: &Fppn,
        stimuli: &Stimuli,
        derived: &'a DerivedTaskGraph,
        tables: &'a StaticTables,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        stimuli.validate(net)?;
        let graph = &derived.graph;
        let h = derived.hyperperiod;
        let frames = config.frames;
        let n_jobs = graph.job_count();
        let m_procs = tables.processors();
        debug_assert_eq!(tables.templates.job_count(), n_jobs);

        // Per-instance slot resolution, streamed straight into SoA slabs
        // in canonical (frame, job-id) order.
        let total = frames as usize * n_jobs;
        let mut slot_invoked = Vec::with_capacity(total);
        let mut slot_deadline = Vec::with_capacity(total);
        let mut slot_executable = Vec::with_capacity(total);
        tables.templates.for_each_slot(stimuli, frames, |res| {
            slot_invoked.push(res.invoked_at);
            slot_deadline.push(res.deadline);
            slot_executable.push(res.executable);
        });

        // Pre-drawn execution times in canonical (frame, job-id) order, so
        // the random draws do not depend on simulation internals.
        let mut sampler = config.exec_time.sampler();
        let mut exec_times = Vec::with_capacity(total);
        for _ in 0..frames {
            exec_times.extend(graph.jobs().iter().map(|j| sampler.sample(j)));
        }

        let frame_gates: Vec<TimeQ> = (0..frames)
            .map(|f| TimeQ::from_int(f as i64) * h + config.overhead.frame_overhead(f))
            .collect();

        // Replay is only sound when the exec-time draws are a pure function
        // of the job (`Wcet`: sample ≡ wcet, frame-invariant by
        // construction); the bounded-FIFO exclusion is deliberately
        // conservative — round *times* ignore capacities, but the
        // differential suite pins this gate as a fallback case. A single
        // frame can never hit, so it skips the memo's bookkeeping.
        let memo_enabled = frames >= 2
            && matches!(config.exec_time, ExecTimeModel::Wcet)
            && !net.channels().iter().any(|c| c.capacity().is_some());

        // Built unconditionally (it is one cheap pass) so the
        // collision-audit path fingerprints identically whether or not the
        // memo itself is enabled.
        let server_slots: Vec<usize> = graph
            .jobs()
            .iter()
            .enumerate()
            .filter(|(_, j)| j.is_server)
            .map(|(i, _)| i)
            .collect();
        #[cfg(debug_assertions)]
        if memo_enabled {
            // The fingerprint and the content check skip non-server slots
            // because their resolution is frame-invariant relative to the
            // frame base (`Template::Periodic`: invoked = base + A_i,
            // deadline = invoked + D_i, always executable). Pin that
            // template contract here so a future resolver change cannot
            // silently unsound the memo.
            for f in 1..frames as usize {
                let base = TimeQ::from_int(f as i64) * h;
                for (j, job) in graph.jobs().iter().enumerate() {
                    if job.is_server {
                        continue;
                    }
                    let s = f * n_jobs + j;
                    debug_assert_eq!(slot_invoked[s] - base, slot_invoked[j]);
                    debug_assert_eq!(slot_deadline[s] - base, slot_deadline[j]);
                    debug_assert!(slot_executable[s] && slot_executable[j]);
                }
            }
        }

        let mut engine = RoundEngine {
            graph,
            frames,
            n_jobs,
            m_procs,
            tables,
            slot_invoked,
            slot_deadline,
            slot_executable,
            exec_times,
            frame_gates,
            h,
            memo_enabled,
            server_slots,
            frame_fp_static: Vec::new(),
            cancel: None,
        };
        if engine.memo_enabled {
            engine.frame_fp_static = engine.build_static_frame_fps();
        }
        Ok(engine)
    }

    /// The same engine with the frame memo switched off: the reference
    /// loop that computes every frame live.
    pub(crate) fn without_memo(mut self) -> Self {
        self.memo_enabled = false;
        self.frame_fp_static = Vec::new();
        self
    }

    /// Hashes each frame's static fingerprint contribution: the server
    /// slots' resolutions and the release gate, relative to the frame
    /// base. Everything else a frame's round computation depends on is
    /// either carry-in (hashed per compute) or frame-invariant by template
    /// construction (see the `debug_assert` in [`RoundEngine::new`]).
    fn build_static_frame_fps(&self) -> Vec<u64> {
        (0..self.frames)
            .map(|frame| {
                let base = TimeQ::from_int(frame as i64) * self.h;
                let slots = frame as usize * self.n_jobs;
                let mut h = ContentHasher::new();
                for &j in &self.server_slots {
                    h.write_time_words(self.slot_invoked[slots + j] - base);
                    h.write_time_words(self.slot_deadline[slots + j] - base);
                    h.write_u64_word(u64::from(self.slot_executable[slots + j]));
                }
                h.write_time_words(self.frame_gates[frame as usize] - base);
                h.finish()
            })
            .collect()
    }

    /// Arms cooperative cancellation: the round loop polls `token` at
    /// round-scan / frame boundaries, the behavior loop per job, and both
    /// return [`SimError::Cancelled`] once it trips.
    pub(crate) fn set_cancel(&mut self, token: &'a CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether the armed token (if any) has tripped. Allocation-free.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Total number of rounds over all frames.
    fn total_rounds(&self) -> usize {
        self.frames as usize * self.n_jobs
    }

    /// Processor `m`'s static round order.
    fn proc_order(&self, m: usize) -> &[JobId] {
        let t = self.tables;
        &t.proc_order_data[t.proc_order_bounds[m]..t.proc_order_bounds[m + 1]]
    }

    /// The previous-frame (wrap-around) predecessors of a job.
    fn wrap_preds_of(&self, id: JobId) -> &[JobId] {
        let t = self.tables;
        &t.wrap_pred_data[t.wrap_pred_bounds[id.index()]..t.wrap_pred_bounds[id.index() + 1]]
    }

    /// Attempts the round `(frame, id)` on processor `m` whose timeline is
    /// free at `proc_avail`. `completion_of` reports the completion time of
    /// an already-finished round (`None` = not finished yet).
    ///
    /// Returns `None` when a predecessor has not completed (the round
    /// blocks), otherwise the finished [`JobRecord`]; the caller publishes
    /// `record.completion` as this round's completion and advances the
    /// processor's availability to it.
    fn try_round(
        &self,
        frame: u64,
        id: JobId,
        m: usize,
        proc_avail: TimeQ,
        completion_of: impl Fn(u64, JobId) -> Option<TimeQ>,
    ) -> Option<JobRecord> {
        let job = self.graph.job(id);
        let mut ready_at = proc_avail;
        for p in self.graph.predecessors(id) {
            ready_at = ready_at.max(completion_of(frame, p)?);
        }
        if frame > 0 {
            for &p in self.wrap_preds_of(id) {
                ready_at = ready_at.max(completion_of(frame - 1, p)?);
            }
        }
        let slot = frame as usize * self.n_jobs + id.index();
        let (invoked_at, deadline) = (self.slot_invoked[slot], self.slot_deadline[slot]);
        Some(if !self.slot_executable[slot] {
            // False slot: resolved (and "completed") at the window close;
            // consumes no processor time.
            let t = ready_at.max(invoked_at);
            JobRecord {
                process: job.process,
                frame,
                job: id,
                global_k: 0,
                processor: m,
                invoked_at,
                start: t,
                completion: t,
                deadline,
                missed: false,
                skipped: true,
            }
        } else {
            let start = ready_at
                .max(invoked_at)
                .max(self.frame_gates[frame as usize]);
            let end = start + self.exec_times[slot];
            JobRecord {
                process: job.process,
                frame,
                job: id,
                global_k: 0, // assigned during behavior execution
                processor: m,
                invoked_at,
                start,
                completion: end,
                deadline,
                missed: end > deadline,
                skipped: false,
            }
        })
    }

    /// Computes every round into caller-owned scratch buffers: after one
    /// warm-up pass over the same engine shape, repeated calls perform
    /// **zero heap allocations** (asserted by the `alloc_zero` regression
    /// test in `fppn-bench`). The computed records are left in
    /// `scratch.records`.
    ///
    /// When the memo is enabled this runs the frame-major memo loop; a
    /// `Stalled` result there falls back to the reference loop, whose
    /// `completed_rounds` accounting is the dataflow fixed point
    /// (frame-major driving can stop earlier when a stall in frame `f`
    /// keeps it from ever attempting frame `f+1` rounds other processors
    /// could still finish).
    pub(crate) fn compute_rounds_into(&self, scratch: &mut RoundScratch) -> Result<(), SimError> {
        if self.memo_enabled {
            let fingerprint = |frame: u64, base, completion: &[_], proc_avail: &[_]| {
                let static_fp = self.frame_fp_static[frame as usize];
                self.frame_fingerprint(frame, base, completion, proc_avail, static_fp)
            };
            match self.compute_rounds_memo_into(scratch, fingerprint) {
                Err(SimError::Stalled { .. }) => {}
                other => return other,
            }
        }
        self.compute_rounds_reference_into(scratch)
    }

    /// The memo-off reference loop: drives the per-processor cursors in
    /// free interleaving until every round of every frame has completed.
    fn compute_rounds_reference_into(&self, scratch: &mut RoundScratch) -> Result<(), SimError> {
        let RoundScratch {
            completion,
            proc_avail,
            cursors,
            records,
            memo: _,
        } = scratch;
        completion.clear();
        completion.resize(self.total_rounds(), None);
        proc_avail.clear();
        proc_avail.resize(self.m_procs, TimeQ::ZERO);
        records.clear();
        records.reserve(self.total_rounds());
        let n_jobs = self.n_jobs;
        let total_rounds = self.total_rounds();
        cursors.clear();
        cursors.resize(self.m_procs, (0u64, 0usize));
        while records.len() < total_rounds {
            if self.cancelled() {
                return Err(SimError::Cancelled {
                    completed_rounds: records.len(),
                });
            }
            let mut progressed = false;
            for (m, cursor) in cursors.iter_mut().enumerate() {
                let order = self.proc_order(m);
                loop {
                    let (frame, idx) = *cursor;
                    if frame >= self.frames {
                        break;
                    }
                    if idx >= order.len() {
                        *cursor = (frame + 1, 0);
                        continue;
                    }
                    let id = order[idx];
                    let lookup =
                        |f: u64, p: JobId| completion[f as usize * n_jobs + p.index()];
                    let Some(rec) = self.try_round(frame, id, m, proc_avail[m], lookup) else {
                        break;
                    };
                    completion[frame as usize * n_jobs + id.index()] = Some(rec.completion);
                    proc_avail[m] = rec.completion;
                    records.push(rec);
                    *cursor = (frame, idx + 1);
                    progressed = true;
                }
            }
            if !progressed {
                return Err(SimError::Stalled {
                    completed_rounds: records.len(),
                });
            }
        }
        Ok(())
    }

    /// Fingerprints frame `frame`'s full round-computation input, relative
    /// to its base time `frame · H`:
    ///
    /// * the determinism class of the exec-time draws (only `Wcet`
    ///   memoizes, so this tag is future-proofing, not discrimination);
    /// * per-processor carry-in availability, `proc_avail − base`;
    /// * the previous frame's completions at every wrap-predecessor slot,
    ///   `completion − base` (hashed only on networks that *have* wrap
    ///   predecessors; frame 0, which has none incoming, is tagged so it
    ///   can still seed replay on wrap-free networks);
    /// * `static_fp`, the frame's precomputed static contribution from
    ///   [`RoundEngine::build_static_frame_fps`] — every **server** slot's
    ///   resolution (`invoked_at − base`, `deadline − base`, executability)
    ///   and the frame release gate, `gate − base`. Periodic slots are
    ///   deliberately absent: their resolution is frame-invariant relative
    ///   to the base by template construction (pinned by a `debug_assert`
    ///   in [`RoundEngine::new`]), so hashing them would spend the bulk of
    ///   the fingerprint cost discriminating nothing.
    ///
    /// Round arithmetic is built from `max` and `+` over these quantities
    /// plus the (frame-invariant under `Wcet`) execution times, so it is
    /// equivariant under time translation: equal inputs ⇒ the frames'
    /// round tables are exact translates of each other. The fingerprint
    /// only indexes the memo; [`RoundEngine::same_frame_input`] checks the
    /// inputs themselves before a replay.
    fn frame_fingerprint(
        &self,
        frame: u64,
        base: TimeQ,
        completion: &[Option<TimeQ>],
        proc_avail: &[TimeQ],
        static_fp: u64,
    ) -> u64 {
        // Word-granularity FNV throughout: this runs once per frame per
        // compute over thousands of server slots, and the 16× round
        // reduction vs the byte family is what keeps a fingerprint cheaper
        // than the frame it saves.
        let mut h = ContentHasher::new();
        h.write_u64_word(0); // determinism class: Wcet
        for &avail in proc_avail {
            h.write_time_words(avail - base);
        }
        let t = self.tables;
        if !t.wrap_pred_data.is_empty() {
            h.write_u64_word(u64::from(frame == 0));
            if frame > 0 {
                let prev = (frame as usize - 1) * self.n_jobs;
                for p in &t.wrap_pred_data {
                    let done = completion[prev + p.index()]
                        .expect("fingerprinting runs after the previous frame completed");
                    h.write_time_words(done - base);
                }
            }
        }
        h.write_u64_word(static_fp);
        h.finish()
    }

    /// Whether frame `frame` (at `base`) has exactly the input `entry`'s
    /// source frame was computed from, relative to each frame's base: the
    /// carry-in availability and wrap-predecessor completions stored in
    /// the entry, and the server-slot resolutions and release gate read
    /// from both frames' slabs. These are the quantities
    /// [`RoundEngine::frame_fingerprint`] absorbs, compared instead of
    /// hashed, so a fingerprint collision can never replay the wrong
    /// rounds. Allocation-free.
    fn same_frame_input(
        &self,
        entry: &MemoEntry,
        frame: u64,
        base: TimeQ,
        completion: &[Option<TimeQ>],
        proc_avail: &[TimeQ],
    ) -> bool {
        let avail_equal = proc_avail.len() == entry.avail_in.len()
            && proc_avail
                .iter()
                .zip(&entry.avail_in)
                .all(|(&now, &then)| now - base == then);
        let wrap = &self.tables.wrap_pred_data;
        let wrap_equal = if frame == 0 {
            entry.wrap_in.is_empty()
        } else {
            let prev = (frame as usize - 1) * self.n_jobs;
            wrap.len() == entry.wrap_in.len()
                && wrap.iter().zip(&entry.wrap_in).all(|(p, &then)| {
                    let done = completion[prev + p.index()]
                        .expect("the content check runs after the previous frame completed");
                    done - base == then
                })
        };
        let src_frame = entry.src_frame as usize;
        let (src, now) = (src_frame * self.n_jobs, frame as usize * self.n_jobs);
        let src_base = entry.src_base;
        let slots_equal = self.server_slots.iter().all(|&j| {
            self.slot_executable[src + j] == self.slot_executable[now + j]
                && self.slot_invoked[src + j] - src_base == self.slot_invoked[now + j] - base
                && self.slot_deadline[src + j] - src_base == self.slot_deadline[now + j] - base
        });
        let gate_equal =
            self.frame_gates[src_frame] - src_base == self.frame_gates[frame as usize] - base;
        avail_equal && wrap_equal && slots_equal && gate_equal
    }

    /// Drives every processor's cursor through exactly one frame (free
    /// interleaving *within* the frame — sound because no round depends on
    /// a later frame), appending the frame's `n_jobs` records.
    fn compute_frame(
        &self,
        frame: u64,
        completion: &mut [Option<TimeQ>],
        proc_avail: &mut [TimeQ],
        cursors: &mut Vec<(u64, usize)>,
        records: &mut Vec<JobRecord>,
    ) -> Result<(), SimError> {
        cursors.clear();
        cursors.resize(self.m_procs, (frame, 0));
        let n_jobs = self.n_jobs;
        let mut done = 0usize;
        while done < n_jobs {
            if self.cancelled() {
                return Err(SimError::Cancelled {
                    completed_rounds: records.len(),
                });
            }
            let mut progressed = false;
            for (m, cursor) in cursors.iter_mut().enumerate() {
                let order = self.proc_order(m);
                while cursor.1 < order.len() {
                    let id = order[cursor.1];
                    let lookup =
                        |f: u64, p: JobId| completion[f as usize * n_jobs + p.index()];
                    let Some(rec) = self.try_round(frame, id, m, proc_avail[m], lookup)
                    else {
                        break;
                    };
                    completion[frame as usize * n_jobs + id.index()] = Some(rec.completion);
                    proc_avail[m] = rec.completion;
                    records.push(rec);
                    cursor.1 += 1;
                    done += 1;
                    progressed = true;
                }
            }
            if !progressed && done < n_jobs {
                return Err(SimError::Stalled {
                    completed_rounds: records.len(),
                });
            }
        }
        Ok(())
    }

    /// The memoized loop: frame-major (valid because rounds never depend
    /// on later frames and `canonicalize` makes record production order
    /// irrelevant), looking each frame's input up by `fingerprint` and
    /// replaying the memoized round table — every time shifted by the
    /// frame-base delta — when the content check confirms it. A periodic
    /// workload computes frame 0 and replays the other `N−1`.
    fn compute_rounds_memo_into(
        &self,
        scratch: &mut RoundScratch,
        fingerprint: impl Fn(u64, TimeQ, &[Option<TimeQ>], &[TimeQ]) -> u64,
    ) -> Result<(), SimError> {
        let RoundScratch {
            completion,
            proc_avail,
            cursors,
            records,
            memo,
        } = scratch;
        completion.clear();
        completion.resize(self.total_rounds(), None);
        proc_avail.clear();
        proc_avail.resize(self.m_procs, TimeQ::ZERO);
        records.clear();
        records.reserve(self.total_rounds());
        memo.reset();
        let n_jobs = self.n_jobs;
        let wrap_preds = &self.tables.wrap_pred_data;
        for frame in 0..self.frames {
            let base = TimeQ::from_int(frame as i64) * self.h;
            let fp = fingerprint(frame, base, completion, proc_avail);
            let hit = memo.lookup(fp, |entry| {
                self.same_frame_input(entry, frame, base, completion, proc_avail)
            });
            if let Some(slot) = hit {
                let entry = &memo.entries[slot];
                let delta = base - entry.src_base;
                let out = frame as usize * n_jobs;
                // One fused copy+shift pass (the slice iterator's exact
                // length elides per-push capacity checks); these records
                // are wide enough that a second patching pass over the
                // block is measurably memory-bound.
                records.extend(entry.records.iter().map(|rec| JobRecord {
                    frame,
                    invoked_at: rec.invoked_at + delta,
                    start: rec.start + delta,
                    completion: rec.completion + delta,
                    deadline: rec.deadline + delta,
                    ..*rec
                }));
                // Later frames only ever read the wrap-predecessor
                // completions of this frame, so replay fills just those.
                for &(j, done) in &entry.wrap_out {
                    completion[out + j as usize] = Some(done + delta);
                }
                for (avail, &src) in proc_avail.iter_mut().zip(&entry.avail_out) {
                    *avail = src + delta;
                }
            } else {
                // Record the carry-in before the live compute overwrites
                // the availability.
                let entry = memo.claim(fp);
                entry.src_frame = frame;
                entry.src_base = base;
                entry
                    .avail_in
                    .extend(proc_avail.iter().map(|&avail| avail - base));
                if frame > 0 {
                    let prev = (frame as usize - 1) * n_jobs;
                    entry.wrap_in.extend(wrap_preds.iter().map(|p| {
                        completion[prev + p.index()].expect("previous frame completed") - base
                    }));
                }
                let start = records.len();
                self.compute_frame(frame, completion, proc_avail, cursors, records)?;
                // Sort the freshly computed block into the canonical
                // per-frame order `(completion, topological position)`
                // before memoizing it: replays (a uniform time shift)
                // preserve the order, so the whole memoized run streams
                // out already canonical and `canonicalize`'s sorted fast
                // path collapses the final sort to a linear scan.
                let topo_pos = &self.tables.topo_pos;
                records[start..].sort_unstable_by(|a, b| {
                    (a.completion, topo_pos[a.job.index()])
                        .cmp(&(b.completion, topo_pos[b.job.index()]))
                });
                let out = frame as usize * n_jobs;
                entry.records.extend_from_slice(&records[start..]);
                entry.avail_out.extend_from_slice(proc_avail);
                entry.wrap_out.extend(wrap_preds.iter().map(|p| {
                    let done = completion[out + p.index()].expect("memoized frames are complete");
                    (p.index() as u32, done)
                }));
            }
        }
        Ok(())
    }

    /// The frame-major loop with **replay disabled**: computes every frame
    /// live while reporting each frame's fingerprint. This is the
    /// collision-audit seam — a test can check that fingerprint-equal
    /// frames really did produce translate-identical round tables, with no
    /// memo in the loop to make the check vacuous. Fingerprints are only
    /// meaningful under [`ExecTimeModel::Wcet`] (the fingerprint does not
    /// absorb stochastic draws).
    pub(crate) fn compute_rounds_fingerprinted(
        &self,
        scratch: &mut RoundScratch,
        fingerprints: &mut Vec<u64>,
    ) -> Result<(), SimError> {
        let RoundScratch {
            completion,
            proc_avail,
            cursors,
            records,
            memo: _,
        } = scratch;
        completion.clear();
        completion.resize(self.total_rounds(), None);
        proc_avail.clear();
        proc_avail.resize(self.m_procs, TimeQ::ZERO);
        records.clear();
        records.reserve(self.total_rounds());
        fingerprints.clear();
        // The audit path works whether or not the memo is enabled, so it
        // builds its own static contributions instead of relying on the
        // engine's (empty-when-disabled) cache. Perf is irrelevant here.
        let static_fps = self.build_static_frame_fps();
        for frame in 0..self.frames {
            let base = TimeQ::from_int(frame as i64) * self.h;
            fingerprints.push(self.frame_fingerprint(
                frame,
                base,
                completion,
                proc_avail,
                static_fps[frame as usize],
            ));
            self.compute_frame(frame, completion, proc_avail, cursors, records)?;
        }
        Ok(())
    }

    /// Sorts `records` into the canonical total order `(completion, frame,
    /// topological position)` and assigns each executed round its global
    /// invocation count — a pure function of that order, so the memo loop
    /// and the reference loop compute identical identities.
    fn canonicalize(&self, net: &Fppn, records: &mut [JobRecord]) {
        let topo_pos = &self.tables.topo_pos;
        let key = |r: &JobRecord| (r.completion, r.frame, topo_pos[r.job.index()] as u32);
        // Sorted fast path: the memo loop emits each frame block
        // pre-sorted, so on schedulable workloads (no frame overruns its
        // hyperperiod) the concatenation is already canonical and one
        // linear scan replaces the sort + permutation entirely.
        if !records.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            // Decorate-sort-permute with an *unstable* sort: the canonical
            // key is already a total order (the topological position is
            // unique per job within a frame), so stability buys nothing and
            // pdqsort over compact `(key, index)` pairs avoids the stable
            // sort's merge scratch. The trailing index is a tie-breaker in
            // theory only.
            let mut keyed: Vec<(TimeQ, u64, u32, u32)> = records
                .iter()
                .enumerate()
                .map(|(i, r)| (r.completion, r.frame, topo_pos[r.job.index()] as u32, i as u32))
                .collect();
            keyed.sort_unstable();
            for i in 0..keyed.len() {
                let mut index = keyed[i].3 as usize;
                while index < i {
                    index = keyed[index].3 as usize;
                }
                keyed[i].3 = index as u32;
                records.swap(i, index);
            }
        }

        let mut counts = vec![0u64; net.process_count()];
        for rec in records.iter_mut() {
            if rec.skipped {
                continue;
            }
            let c = &mut counts[rec.process.index()];
            *c += 1;
            rec.global_k = *c;
        }
    }

    /// Sorts the records canonically, runs the behaviors in that order and
    /// accumulates the statistics.
    ///
    /// The canonical order `(completion, frame, topological position)` is a
    /// *total* order on rounds (the topological position is unique per job
    /// within a frame), so the result is independent of the order in which
    /// the round loop produced the records — which is what makes replayed
    /// and recomputed runs bit-identical.
    pub(crate) fn finalize(
        &self,
        net: &Fppn,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        mut records: Vec<JobRecord>,
    ) -> Result<SimRun, SimError> {
        self.canonicalize(net, &mut records);

        // Execute behaviors in the precedence-consistent canonical order.
        let mut behaviors = bank.instantiate();
        let mut state = ExecState::new(net, stimuli);
        let mut stats = SimStats::default();
        for (done, rec) in records.iter().enumerate() {
            // Behaviors are where wall-clock time actually goes, so the
            // data plane polls per job — the round loop's per-scan check
            // alone would never interrupt a slow behavior.
            if self.cancelled() {
                return Err(SimError::Cancelled {
                    completed_rounds: done,
                });
            }
            if rec.skipped {
                stats.skipped += 1;
                continue;
            }
            stats.executed += 1;
            stats.makespan = stats.makespan.max(rec.completion);
            if rec.missed {
                stats.deadline_misses += 1;
                stats.max_lateness = stats.max_lateness.max(rec.completion - rec.deadline);
            }
            state.run_job(&mut behaviors, rec.process, rec.global_k, rec.invoked_at)?;
        }
        Ok(SimRun {
            observables: state.into_observables(),
            records,
            stats,
        })
    }
}

/// Simulates `config.frames` frames of the static-order policy: compiles
/// the round tables from `derived` and `schedule`, then runs the engine.
///
/// # Errors
///
/// Returns [`SimError`] on invalid stimuli, behavior failures, or a
/// deadlocked (structurally invalid) schedule.
pub fn simulate(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: &SimConfig,
) -> Result<SimRun, SimError> {
    let tables = StaticTables::build(net, derived, schedule);
    run(
        net,
        bank,
        stimuli,
        derived,
        &tables,
        config,
        &mut RoundScratch::new(),
        None,
    )
}

/// One run against borrowed compile-phase tables, with the round loop in
/// caller-owned scratch buffers: the completion/availability/cursor
/// vectors and the frame memo are reused across runs (records move into
/// the returned [`SimRun`]). The `fppn-serve` worker pool drives this
/// through
/// [`CompiledNetwork::simulate_with_scratch`](crate::CompiledNetwork::simulate_with_scratch).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    tables: &StaticTables,
    config: &SimConfig,
    scratch: &mut RoundScratch,
    cancel: Option<&CancelToken>,
) -> Result<SimRun, SimError> {
    let mut engine = RoundEngine::new(net, stimuli, derived, tables, config)?;
    if let Some(token) = cancel {
        engine.set_cancel(token);
    }
    engine.compute_rounds_into(scratch)?;
    let records = std::mem::take(&mut scratch.records);
    engine.finalize(net, bank, stimuli, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{
        run_zero_delay, ChannelKind, EventSpec, FppnBuilder, JobCtx, JobOrdering, PortId,
        ProcessSpec, SporadicTrace, Value,
    };
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_taskgraph::{derive_task_graph, WcetModel};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// input(200ms) -> filter(100ms) -> output(200ms), FIFO chain.
    fn chain_app() -> (Fppn, BehaviorBank) {
        let mut b = FppnBuilder::new();
        let input = b.process(ProcessSpec::new("input", EventSpec::periodic(ms(200))));
        let filter = b.process(ProcessSpec::new("filter", EventSpec::periodic(ms(100))));
        let output =
            b.process(ProcessSpec::new("output", EventSpec::periodic(ms(200))).with_output("o"));
        let c1 = b.channel("c1", input, filter, ChannelKind::Fifo);
        let c2 = b.channel("c2", filter, output, ChannelKind::Fifo);
        b.priority(input, filter);
        b.priority(filter, output);
        b.behavior(input, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(c1, Value::Int(ctx.k() as i64)))
        });
        b.behavior(filter, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                if let Some(Value::Int(v)) = ctx.read(c1) {
                    ctx.write(c2, Value::Int(v * 10));
                }
            })
        });
        b.behavior(output, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let v = ctx.read_value(c2);
                ctx.write_output(PortId::from_index(0), v);
            })
        });
        let (net, bank) = b.build().unwrap();
        (net, bank)
    }

    #[test]
    fn simulation_matches_zero_delay_reference() {
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let frames = 3;
        let config = SimConfig {
            frames,
            ..SimConfig::default()
        };
        let run = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config).unwrap();

        let mut behaviors = bank.instantiate();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let reference = run_zero_delay(
            &net,
            &mut behaviors,
            &Stimuli::new(),
            horizon,
            JobOrdering::default(),
        )
        .unwrap();
        assert_eq!(run.observables.diff(&reference.observables), None);
        assert_eq!(run.stats.deadline_misses, 0);
        assert_eq!(run.stats.executed, 3 * 4); // 4 jobs per 200ms frame
    }

    #[test]
    fn jitter_execution_still_meets_deadlines_and_is_deterministic() {
        // Prop. 4.1: with a feasible schedule and exec times <= WCET,
        // deadlines hold and observables match the reference.
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(30))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        assert!(schedule.check_feasible(&derived.graph).is_ok());
        for seed in 0..5 {
            let config = SimConfig {
                frames: 4,
                exec_time: ExecTimeModel::typical_jitter(seed),
                ..SimConfig::default()
            };
            let run =
                simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config).unwrap();
            assert_eq!(run.stats.deadline_misses, 0, "seed {seed}");
            let mut behaviors = bank.instantiate();
            let horizon = TimeQ::from_int(4) * derived.hyperperiod;
            let reference = run_zero_delay(
                &net,
                &mut behaviors,
                &Stimuli::new(),
                horizon,
                JobOrdering::default(),
            )
            .unwrap();
            assert_eq!(run.observables.diff(&reference.observables), None);
        }
    }

    /// user(200ms) with sporadic cfg (2 per 700ms) writing a blackboard.
    fn sporadic_app(cfg_priority: bool) -> (Fppn, BehaviorBank, ProcessId) {
        let mut b = FppnBuilder::new();
        let user =
            b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))).with_output("o"));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(2, ms(700))));
        let ch = b.channel("c", cfg, user, ChannelKind::Blackboard);
        if cfg_priority {
            b.priority(cfg, user);
        } else {
            b.priority(user, cfg);
        }
        b.behavior(cfg, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(ch, Value::Int(100 * ctx.k() as i64)))
        });
        b.behavior(user, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let v = ctx.read_value(ch);
                ctx.write_output(PortId::from_index(0), v);
            })
        });
        let (net, bank) = b.build().unwrap();
        (net, bank, cfg)
    }

    #[test]
    fn sporadic_slots_execute_and_match_reference() {
        for cfg_priority in [true, false] {
            let (net, bank, cfg) = sporadic_app(cfg_priority);
            let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
            let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
            let frames = 5;
            let mut stimuli = Stimuli::new();
            stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(50), ms(400), ms(750)]));
            let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
            let config = SimConfig {
                frames,
                ..SimConfig::default()
            };
            let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).unwrap();
            // 3 arrivals executed; 2 slots per frame x 5 frames = 10 slots,
            // so 7 were skipped as false.
            assert_eq!(run.stats.skipped, 7, "priority {cfg_priority}");
            let mut behaviors = bank.instantiate();
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            let reference =
                run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())
                    .unwrap();
            assert_eq!(
                run.observables.diff(&reference.observables),
                None,
                "priority {cfg_priority}"
            );
        }
    }

    #[test]
    fn boundary_rule_differs_at_exact_window_close() {
        // An arrival exactly at a window boundary b = 200 is handled by the
        // subset at 200 when cfg -> user, but postponed when user -> cfg.
        // In both cases the observables match the zero-delay reference
        // (where the same tie is broken by FP at execution time).
        for cfg_priority in [true, false] {
            let (net, bank, cfg) = sporadic_app(cfg_priority);
            let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
            let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
            let frames = 4;
            let mut stimuli = Stimuli::new();
            stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(200)]));
            let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
            let config = SimConfig {
                frames,
                ..SimConfig::default()
            };
            let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).unwrap();
            let mut behaviors = bank.instantiate();
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            let reference =
                run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())
                    .unwrap();
            assert_eq!(
                run.observables.diff(&reference.observables),
                None,
                "priority {cfg_priority}"
            );
            // The user job at 200 sees the config value iff cfg has
            // priority.
            let out = &run.observables.outputs[0].1;
            let user_job_2 = &out[1].1; // user[2] invoked at 200
            if cfg_priority {
                assert_eq!(user_job_2, &Value::Int(100));
            } else {
                assert_eq!(user_job_2, &Value::Absent);
            }
        }
    }

    #[test]
    fn overhead_delays_starts_and_causes_misses_on_tight_load() {
        let (net, bank) = chain_app();
        // filter: 100ms period & deadline; WCET 45ms x2 + others on one
        // processor with 30ms overhead => frame jobs squeezed.
        let mut wcet = WcetModel::uniform(ms(45));
        let _ = &mut wcet;
        let derived = derive_task_graph(&net, &wcet).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let base = SimConfig {
            frames: 3,
            ..SimConfig::default()
        };
        let no_overhead = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &base)
            .unwrap();
        let with_overhead = simulate(
            &net,
            &bank,
            &Stimuli::new(),
            &derived,
            &schedule,
            &SimConfig {
                overhead: OverheadModel::constant(ms(30)),
                ..base
            },
        )
        .unwrap();
        assert!(no_overhead.stats.deadline_misses < with_overhead.stats.deadline_misses);
        // Determinism holds even under overload.
        let mut behaviors = bank.instantiate();
        let horizon = TimeQ::from_int(3) * derived.hyperperiod;
        let reference = run_zero_delay(
            &net,
            &mut behaviors,
            &Stimuli::new(),
            horizon,
            JobOrdering::default(),
        )
        .unwrap();
        assert_eq!(with_overhead.observables.diff(&reference.observables), None);
    }

    #[test]
    fn stats_accumulate() {
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let run = simulate(
            &net,
            &bank,
            &Stimuli::new(),
            &derived,
            &schedule,
            &SimConfig {
                frames: 2,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(run.stats.executed, 8);
        assert_eq!(run.stats.skipped, 0);
        assert!(run.stats.makespan <= TimeQ::from_int(2) * derived.hyperperiod);
        assert_eq!(run.records.len(), 8);
    }

    /// Runs the memo loop with every frame forced onto one fingerprint, so
    /// only the content check tells frames apart, and checks it against
    /// the real fingerprint and the reference loop: same hits and misses,
    /// same rounds.
    fn assert_forced_collision_is_harmless(net: &Fppn, stimuli: &Stimuli, frames: u64) {
        let derived = derive_task_graph(net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let tables = StaticTables::build(net, &derived, &schedule);
        let stimuli = clip_stimuli(net, &derived, stimuli, frames);
        let config = SimConfig {
            frames,
            ..SimConfig::default()
        };
        let engine = RoundEngine::new(net, &stimuli, &derived, &tables, &config).unwrap();
        let mut honest = RoundScratch::new();
        engine.compute_rounds_into(&mut honest).unwrap();
        let mut forced = RoundScratch::new();
        engine
            .compute_rounds_memo_into(&mut forced, |_, _, _, _| 0)
            .unwrap();
        let mut reference = RoundScratch::new();
        engine.compute_rounds_reference_into(&mut reference).unwrap();

        let (hits, misses) = honest.memo_stats();
        assert!(hits > 0 && misses > 1, "the workload must mix hits and misses");
        assert_eq!(forced.memo_stats(), (hits, misses), "a collision replayed");
        let by_slot = |records: &mut Vec<JobRecord>| {
            records.sort_by_key(|r| (r.frame, r.job.index()));
            std::mem::take(records)
        };
        let expected = by_slot(&mut reference.records);
        assert_eq!(by_slot(&mut forced.records), expected);
        assert_eq!(by_slot(&mut honest.records), expected);
    }

    #[test]
    fn forced_collision_with_different_carry_in_does_not_replay() {
        // Frame 0 starts from idle processors; every later frame inherits
        // availability from the frame before, so frames 0 and 1 differ in
        // carry-in only.
        let (net, _) = chain_app();
        assert_forced_collision_is_harmless(&net, &Stimuli::new(), 6);
    }

    #[test]
    fn forced_collision_with_different_server_slots_does_not_replay() {
        // Arrivals in frames 0 and 2 only: frames differ in their
        // server-slot resolutions, not in carry-in.
        let (net, _, cfg) = sporadic_app(true);
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(50), ms(2900)]));
        assert_forced_collision_is_harmless(&net, &stimuli, 6);
    }
}
