//! # fppn-sim — discrete-event platform simulator and online policy (§IV)
//!
//! This crate substitutes for the paper's hardware testbeds (Kalray MPPA
//! many-core, Linux/i7): a deterministic discrete-event simulation of `M`
//! identical processors executing an FPPN under the **static-order online
//! policy**, with a calibratable runtime-overhead model (the 41 ms / 20 ms
//! frame-management costs measured in §V-A) and configurable actual
//! execution times.
//!
//! The simulator runs the *real* process behaviors, so its observable
//! outputs can be compared bit-for-bit against the zero-delay reference of
//! `fppn-core` — the workspace's mechanized check of Prop. 4.1.
//!
//! One sequential engine computes every run. Its round loop memoizes
//! frames wherever replay can hit: under the [`ExecTimeModel::Wcet`] model,
//! on a network without bounded-capacity FIFOs, over at least two frames.
//! A frame whose input equals an earlier frame's, relative to each frame's
//! base and confirmed by content, replays that frame's rounds shifted in
//! time. [`SimConfig`] holds only what a run computes: frames, overhead
//! model and execution-time model. Concurrency lives across runs, in the
//! `fppn-serve` pool, and on real threads in `fppn-runtime`.
//!
//! The compile phase (task-graph derivation, list scheduling, round
//! tables) is split from the run phase: [`CompiledNetwork`] reifies it as
//! an immutable, content-hash-keyed artifact ([`compile_key`]) so many
//! runs — any stimuli, any config — execute against one borrowed compile.
//! [`simulate`] is a thin compile+run wrapper over it; `fppn-serve` adds
//! an artifact cache and a multi-tenant run pool on top.
//!
//! A [`SimRun`] carries data only: observables, job records and
//! statistics. [`gantt_ascii`] draws the Fig. 6 chart from the records on
//! demand. See `fppn-apps`/`fppn-bench` for full reproductions of the
//! paper's Figures 4 and 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod compile;
mod exectime;
mod gantt;
#[doc(hidden)]
pub mod hotpath;
mod metrics;
mod overhead;
mod policy;
mod stimgen;

pub use cancel::CancelToken;
pub use compile::{
    compile_key, CompileConfig, CompileError, CompiledNetwork, RunScratch, StaticTables,
};
pub use exectime::{ExecTimeModel, ExecTimeSampler};
pub use gantt::gantt_ascii;
pub use metrics::{
    completion_table, end_to_end_latency, missed_jobs, response_stats, response_table,
    ResponseStats,
};
pub use overhead::OverheadModel;
pub use policy::{clip_stimuli, simulate, JobRecord, SimConfig, SimError, SimRun, SimStats};
pub use stimgen::adversarial::{adversarial_stimuli, max_density_flood_trace, AdversarialClass};
pub use stimgen::{random_sporadic_trace, random_stimuli, sporadic_processes, validate_stimuli};
