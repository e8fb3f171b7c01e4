//! A deliberately narrow public window onto the round-computation hot
//! path, for allocation instrumentation and differential testing.
//!
//! The `RoundEngine` and its scratch buffers are crate-private; this module
//! re-exposes exactly the "build once, recompute rounds into reused
//! buffers" loop so `fppn-bench` can assert the steady-state round loop
//! performs zero heap allocations (the `alloc_zero` regression test). It
//! also keeps the **memo-off reference**: the round loop with the frame
//! memo switched off ([`SeqRounds::new_reference`],
//! [`simulate_memo_off`]), which the differential suite checks every
//! replay against. It is `#[doc(hidden)]`: not a supported API, only a
//! measurement and testing seam.

use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sched::StaticSchedule;
use fppn_taskgraph::DerivedTaskGraph;

use crate::cancel::CancelToken;
use crate::compile::StaticTables;
use crate::policy::{RoundEngine, RoundScratch, SimConfig, SimError, SimRun};

/// Owns a [`RoundEngine`] plus its reusable [`RoundScratch`]: after one
/// warm-up [`SeqRounds::compute`], further computes allocate nothing.
pub struct SeqRounds<'a> {
    engine: RoundEngine<'a>,
    scratch: RoundScratch,
}

impl<'a> SeqRounds<'a> {
    /// Builds the round tables for one simulation shape, with the frame
    /// memo engaged wherever the engine engages it in a real run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on stimuli inconsistent with the network.
    pub fn new(
        net: &Fppn,
        stimuli: &Stimuli,
        derived: &'a DerivedTaskGraph,
        tables: &'a StaticTables,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Ok(SeqRounds {
            engine: RoundEngine::new(net, stimuli, derived, tables, config)?,
            scratch: RoundScratch::new(),
        })
    }

    /// Like [`SeqRounds::new`], but with the frame memo switched off: the
    /// reference loop that computes every frame live.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on stimuli inconsistent with the network.
    pub fn new_reference(
        net: &Fppn,
        stimuli: &Stimuli,
        derived: &'a DerivedTaskGraph,
        tables: &'a StaticTables,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Ok(SeqRounds {
            engine: RoundEngine::new(net, stimuli, derived, tables, config)?.without_memo(),
            scratch: RoundScratch::new(),
        })
    }

    /// Arms cooperative cancellation on the engine, so the `alloc_zero`
    /// gate can assert the round loop stays allocation-free with a live
    /// (never-tripping) token's deadline checks on the hot path.
    pub fn set_cancel(&mut self, token: &'a CancelToken) {
        self.engine.set_cancel(token);
    }

    /// Recomputes every round into the reused scratch buffers and returns
    /// the number of rounds computed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] on a structurally invalid schedule.
    pub fn compute(&mut self) -> Result<usize, SimError> {
        self.engine.compute_rounds_into(&mut self.scratch)?;
        Ok(self.scratch.records.len())
    }

    /// Cumulative frame-memo `(hits, misses)` across every [`Self::compute`]
    /// so far. Both zero unless the memo engaged (`Wcet` exec model, no
    /// bounded FIFOs, at least two frames, not the reference loop).
    pub fn memo_stats(&self) -> (u64, u64) {
        self.scratch.memo_stats()
    }

    /// Computes every round frame-major with replay **disabled**, pushing
    /// each frame's carry-in fingerprint into `fingerprints` and returning
    /// the computed records (canonical `(frame, job)` order within each
    /// frame is *not* guaranteed; compare frames as sets or sort first).
    /// The collision-audit seam: fingerprint-equal frames must have
    /// produced translate-identical round tables.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] on a structurally invalid schedule.
    pub fn compute_fingerprinted(
        &mut self,
        fingerprints: &mut Vec<u64>,
    ) -> Result<Vec<crate::JobRecord>, SimError> {
        self.engine
            .compute_rounds_fingerprinted(&mut self.scratch, fingerprints)?;
        Ok(self.scratch.records.clone())
    }
}

/// [`crate::simulate`] with the frame memo switched off: every frame is
/// computed live. The reference a replayed run must equal on every
/// [`SimRun`] field.
///
/// # Errors
///
/// Returns [`SimError`] on invalid stimuli, behavior failures, or a
/// deadlocked (structurally invalid) schedule.
pub fn simulate_memo_off(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: &SimConfig,
) -> Result<SimRun, SimError> {
    let tables = StaticTables::build(net, derived, schedule);
    let engine = RoundEngine::new(net, stimuli, derived, &tables, config)?.without_memo();
    let mut scratch = RoundScratch::new();
    engine.compute_rounds_into(&mut scratch)?;
    engine.finalize(net, bank, stimuli, std::mem::take(&mut scratch.records))
}
