//! Deterministic fault and schedule plans for the parallel engines.
//!
//! The parallel miners' failure modes — a worker panicking mid-class, a
//! receiver abandoning the pipeline channel, a spill file torn or lost —
//! are all timing-dependent in the wild. This module pins them down:
//! every plan is a plain value, every injected event fires at a
//! deterministic point (the Nth class, the Nth record, a named shard), so
//! a failing configuration replays exactly.
//!
//! Plans thread into the engines through their `#[doc(hidden)]` faulted
//! entry points: [`PipelineFaults`] into the streaming pipeline's channel
//! workers, [`ShardFaults`] into the sharded miner's spill I/O.

use crate::gen::Case;
use taxogram_core::{
    mine_pipelined_faulted, mine_sharded_faulted, Budget, GovernOptions, MiningOutcome,
    MiningResult, PipelineFaults, PipelineOptions, ShardFaults, ShardOptions, ShardedOutcome,
    Taxogram, TaxogramConfig, TaxogramError,
};

/// The thread counts the acceptance matrix sweeps.
pub const FAULT_THREADS: [usize; 3] = [1, 2, 4];

/// The channel capacities (and Pass 2b class batches) the acceptance
/// matrix sweeps; capacity 1 maximizes contention (every send
/// backpressures).
pub const FAULT_CAPACITIES: [usize; 3] = [1, 2, 4];

/// One deterministic parallel-run configuration: scheduler shape plus
/// injected faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Worker thread count (0 ⇒ engine default).
    pub threads: usize,
    /// Channel capacity (pipelined) / Pass 2b class batch (sharded);
    /// 0 ⇒ engine default.
    pub capacity: usize,
    /// Faults for the streaming pipeline.
    pub pipeline: PipelineFaults,
    /// Spill-I/O faults for the sharded out-of-core miner.
    pub shard: ShardFaults,
    /// Governance trigger: cancel at the `n`th class admission (exact and
    /// schedule-independent for the serially-admitting engines).
    pub cancel_after: Option<usize>,
    /// Governance budget: admitted-class ceiling.
    pub max_classes: Option<usize>,
    /// Governance budget: emitted-pattern ceiling.
    pub max_patterns: Option<usize>,
}

impl FaultPlan {
    /// A clean plan (no faults) with the given scheduler shape.
    pub fn shape(threads: usize, capacity: usize) -> Self {
        FaultPlan {
            threads,
            capacity,
            ..FaultPlan::default()
        }
    }

    /// Injects a panic into the pipelined engine's `n`th pattern class.
    pub fn panic_at(mut self, n: usize) -> Self {
        self.pipeline.panic_at_class = Some(n);
        self
    }

    /// Simulates pipeline receivers dropping after `n` processed items.
    pub fn drop_receiver_after(mut self, n: usize) -> Self {
        self.pipeline.drop_receiver_after = Some(n);
        self
    }

    /// Truncates shard `s`'s spill file mid-stream after writing.
    pub fn truncate_shard(mut self, s: usize) -> Self {
        self.shard.truncate_shard = Some(s);
        self
    }

    /// Overwrites shard `s`'s first record length prefix with an absurd
    /// value after writing.
    pub fn corrupt_length_prefix(mut self, s: usize) -> Self {
        self.shard.corrupt_prefix = Some(s);
        self
    }

    /// Deletes shard `s`'s spill file after writing.
    pub fn missing_shard(mut self, s: usize) -> Self {
        self.shard.delete_shard = Some(s);
        self
    }

    /// Fails the spill write at the `n`th global graph record.
    pub fn spill_write_error_at(mut self, n: usize) -> Self {
        self.shard.write_error_at_record = Some(n);
        self
    }

    /// Governed runs behave as if the cancel token flipped at the `n`th
    /// class admission (`0` cancels before any class).
    pub fn cancel_after(mut self, n: usize) -> Self {
        self.cancel_after = Some(n);
        self
    }

    /// Governed runs admit at most `n` pattern classes.
    pub fn budget_classes(mut self, n: usize) -> Self {
        self.max_classes = Some(n);
        self
    }

    /// Governed runs stop admitting once `n` patterns have been emitted.
    pub fn budget_patterns(mut self, n: usize) -> Self {
        self.max_patterns = Some(n);
        self
    }

    /// The [`GovernOptions`] this plan's governed runners use.
    pub fn govern_options(&self) -> GovernOptions {
        let mut budget = Budget::unlimited();
        if let Some(n) = self.max_classes {
            budget = budget.max_classes(n);
        }
        if let Some(n) = self.max_patterns {
            budget = budget.max_patterns(n);
        }
        GovernOptions {
            cancel: None,
            budget,
            cancel_after_classes: self.cancel_after,
        }
    }

    /// Runs the streaming pipelined engine (ungoverned) under this plan.
    /// Note the engine needs `threads ≥ 2` to exercise the channel (at 1
    /// it falls back to the serial miner and faults cannot fire).
    pub fn run_pipelined(&self, case: &Case) -> Result<MiningResult, TaxogramError> {
        Ok(mine_pipelined_faulted(
            &self.config(case),
            &case.db,
            &case.taxonomy,
            self.pipeline_options(),
            None,
            self.pipeline,
        )?
        .result)
    }

    /// Runs the serial engine under this plan's governance.
    pub fn run_serial_governed(&self, case: &Case) -> Result<MiningOutcome, TaxogramError> {
        Taxogram::new(self.config(case)).mine_governed(
            &case.db,
            &case.taxonomy,
            &self.govern_options(),
        )
    }

    /// Runs the pipelined engine under this plan's governance and faults.
    pub fn run_pipelined_governed(&self, case: &Case) -> Result<MiningOutcome, TaxogramError> {
        mine_pipelined_faulted(
            &self.config(case),
            &case.db,
            &case.taxonomy,
            self.pipeline_options(),
            Some(&self.govern_options()),
            self.pipeline,
        )
    }

    /// Runs the sharded out-of-core miner (ungoverned) under this plan's
    /// spill faults, split into `shards` shards.
    pub fn run_sharded(&self, case: &Case, shards: usize) -> Result<ShardedOutcome, TaxogramError> {
        mine_sharded_faulted(
            &self.config(case),
            &case.db,
            &case.taxonomy,
            &self.shard_options(shards),
            None,
            self.shard,
        )
    }

    /// Runs the sharded out-of-core miner under this plan's governance
    /// and spill faults.
    pub fn run_sharded_governed(
        &self,
        case: &Case,
        shards: usize,
    ) -> Result<ShardedOutcome, TaxogramError> {
        mine_sharded_faulted(
            &self.config(case),
            &case.db,
            &case.taxonomy,
            &self.shard_options(shards),
            Some(&self.govern_options()),
            self.shard,
        )
    }

    fn pipeline_options(&self) -> PipelineOptions {
        PipelineOptions {
            threads: self.threads,
            channel_capacity: self.capacity,
            clamp_to_cores: false,
        }
    }

    fn shard_options(&self, shards: usize) -> ShardOptions {
        ShardOptions {
            shards,
            threads: self.threads.max(1),
            // Capacity doubles as the Pass 2b class batch so the matrix
            // sweeps batch boundaries too.
            class_batch: self.capacity.max(1),
            ..ShardOptions::default()
        }
    }

    fn config(&self, case: &Case) -> TaxogramConfig {
        TaxogramConfig::with_threshold(case.theta).max_edges(crate::metamorphic::MAX_EDGES)
    }
}

/// Asserts the governed `outcome` upholds the partial-result contract
/// against the ungoverned serial result `full`: its patterns are a
/// byte-identical prefix of `full.patterns`, its termination arithmetic
/// is truthful (`classes_finished` matches the result, a complete run
/// has nothing abandoned and the whole stream, an early stop reports a
/// non-`Completed` reason), and the frontier is only populated on early
/// stops.
pub fn assert_completed_prefix(outcome: &MiningOutcome, full: &MiningResult) -> Result<(), String> {
    let got = &outcome.result.patterns;
    let term = &outcome.termination;
    if got.len() > full.patterns.len() {
        return Err(format!(
            "partial result has {} patterns, full only {}",
            got.len(),
            full.patterns.len()
        ));
    }
    crate::metamorphic::assert_same_sequence("prefix", &full.patterns[..got.len()], got, 1)?;
    if term.classes_finished != outcome.result.stats.classes {
        return Err(format!(
            "termination says {} classes finished, stats say {}",
            term.classes_finished, outcome.result.stats.classes
        ));
    }
    if term.is_complete() {
        if got.len() != full.patterns.len() {
            return Err(format!(
                "claims Completed but has {}/{} patterns",
                got.len(),
                full.patterns.len()
            ));
        }
        if term.classes_abandoned != 0 || !term.frontier.is_empty() {
            return Err(format!(
                "claims Completed but abandoned {} classes (frontier {:?})",
                term.classes_abandoned, term.frontier
            ));
        }
    } else if term.classes_abandoned == 0 {
        return Err(format!(
            "claims {} but abandoned no classes",
            term.reason
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::case;
    use crate::metamorphic::{assert_engines_identical, Engine, MAX_EDGES};

    #[test]
    fn clean_plans_reproduce_serial_output() {
        let c = case(11);
        let serial = Engine::Serial
            .mine(
                &TaxogramConfig::with_threshold(c.theta).max_edges(MAX_EDGES),
                &c.db,
                &c.taxonomy,
            )
            .unwrap();
        for &threads in &FAULT_THREADS {
            for &capacity in &FAULT_CAPACITIES {
                let piped = FaultPlan::shape(threads, capacity)
                    .run_pipelined(&c)
                    .unwrap();
                assert_engines_identical(&serial, &piped).unwrap();
            }
        }
    }

    #[test]
    fn injected_panics_surface_as_errors() {
        let c = case(13);
        let plan = FaultPlan::shape(2, 1).panic_at(1);
        assert!(matches!(
            plan.run_pipelined(&c),
            Err(TaxogramError::WorkerPanicked { .. })
        ));
    }
}
