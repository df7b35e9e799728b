//! Online cache repartitioning: the paper's optimizer in a control loop.
//!
//! Sections VII–VIII of the paper argue that optimal partition-sharing is
//! practical online: footprints "can be collected in real time" and the
//! `O(P·C²)` dynamic program is cheap enough to re-run periodically. This
//! crate closes that loop as a **pipeline of swappable stages**, one
//! module per stage:
//!
//! 1. **profile** ([`TenantProfiler`], default
//!    [`WindowedProfiler`](cps_hotl::windowed::WindowedProfiler)) —
//!    each tenant's accesses feed a private windowed profiler (exact
//!    within the epoch, exponentially decayed across epochs);
//! 2. **solve** ([`PartitionSolver`], default [`DpPartitionSolver`]) —
//!    the blended per-tenant miss-ratio curves become DP cost curves
//!    (optionally capped by an equal-split or natural-partition fairness
//!    baseline, Section VI) and a reusable solver finds the optimal
//!    allocation;
//! 3. **actuate** ([`CacheActuator`], default [`HysteresisActuator`]) —
//!    if the new allocation moves at least the hysteresis threshold of
//!    units, it is applied to the live `PartitionedCache` *gracefully*:
//!    growing partitions just gain headroom, shrinking ones evict only
//!    their LRU tail, so hot data survives reconfiguration.
//!
//! [`RepartitionEngine`] composes the three stages over one access
//! stream and records every epoch in an [`EngineReport`] (see
//! [`report`]). It is the only engine: the replay CLI, the `cps-serve`
//! ingest pump and the cluster's local nodes all own one directly.
//!
//! The access stream is any `(tenant, block)` iterator;
//! `cps_trace::InterleavedStream` produces one lazily from live
//! workload streams, and `CoTrace::tenant_accesses` adapts a
//! materialized co-run trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actuate;
pub(crate) mod obs;
pub mod profile;
pub mod report;
pub mod solve;

pub use actuate::{units_moved, Actuation, CacheActuator, HysteresisActuator};
pub use profile::{default_profilers, window_solo_profiles, TenantProfiler};
pub use report::{weighted_miss_ratio, EngineReport, EpochRecord};
pub use solve::{DpPartitionSolver, PartitionSolver, SolveInput, SolveOutcome};
// The observability vocabulary every engine record speaks.
pub use cps_obs::{MetricsRegistry, Stage, StageTimings};
// `Block` appears in every `record_access`/`run` signature; re-export
// it so callers (cps-cluster) can name it without a cps-trace edge.
pub use cps_trace::Block;

use crate::obs::EngineMetrics;
use cps_cachesim::AccessCounts;
use cps_core::{CacheConfig, Objective};
use cps_hotl::MissRatioCurve;
use cps_obs::Stopwatch;
use std::time::Instant;

/// Tenant index into the engine's partitions and profilers.
pub type TenantId = usize;

/// Live-telemetry hook fired with each booked epoch record (see
/// [`RepartitionEngine::set_epoch_hook`]).
pub type EpochHook = Box<dyn FnMut(&EpochRecord) + Send>;

/// One tenant's exported state at an externally clocked epoch boundary
/// (see [`RepartitionEngine::export_epoch_curves`]): the realized
/// counts of the epoch just closed and the profiler's blended
/// miss-ratio curve after folding that window. A cluster coordinator
/// pulls these from every node, weights the curves by **global**
/// access shares, and solves the two-level partition itself.
#[derive(Clone, Debug)]
pub struct TenantCurve {
    /// Hit/miss counts realized by this tenant in the closed epoch.
    pub counts: AccessCounts,
    /// Blended miss-ratio curve (`None` if the tenant has never been
    /// observed by this engine).
    pub curve: Option<MissRatioCurve>,
}

/// Which allocation policy the epoch re-solve applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Unconstrained optimal partitioning (Eq. 15).
    Optimal,
    /// Optimal subject to the equal-split baseline: no tenant may miss
    /// more than it would with `1/P` of the cache (Section VI).
    EqualBaseline,
    /// Optimal subject to the natural-partition baseline: no tenant may
    /// miss more than under free-for-all sharing (Section VI).
    NaturalBaseline,
}

/// Engine knobs.
///
/// # Examples
///
/// ```
/// use cps_core::CacheConfig;
/// use cps_engine::EngineConfig;
/// let cfg = EngineConfig::new(CacheConfig::new(64, 2), 10_000)
///     .decay(0.3)
///     .hysteresis(4);
/// assert_eq!(cfg.epoch_length, 10_000);
/// ```
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Cache geometry shared by all tenants.
    pub cache: CacheConfig,
    /// Accesses (across all tenants) per epoch.
    pub epoch_length: usize,
    /// Allocation policy applied at each re-solve.
    pub policy: Policy,
    /// The partitioning objective (cost construction + accumulation).
    pub objective: Objective,
    /// Per-tenant profiler decay: the weight each window boundary puts
    /// on the previous blended curve (`0.0..1.0`).
    pub decay: f64,
    /// Minimum units that must move before a new allocation is applied;
    /// `1` applies every change, larger values add hysteresis.
    pub min_repartition_units: usize,
}

impl EngineConfig {
    /// A throughput-optimal engine with windowed profiling (decay 0.5)
    /// and no hysteresis.
    ///
    /// # Panics
    /// Panics if `epoch_length` is zero.
    pub fn new(cache: CacheConfig, epoch_length: usize) -> Self {
        assert!(epoch_length > 0, "epochs need at least one access");
        EngineConfig {
            cache,
            epoch_length,
            policy: Policy::Optimal,
            objective: Objective::MissRatioSum,
            decay: 0.5,
            min_repartition_units: 1,
        }
    }

    /// Sets the allocation policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the partitioning objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the profiler decay (see
    /// [`WindowedProfiler`](cps_hotl::windowed::WindowedProfiler)).
    pub fn decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }

    /// Sets the hysteresis threshold in units.
    pub fn hysteresis(mut self, min_units: usize) -> Self {
        self.min_repartition_units = min_units;
        self
    }
}

/// The epoch-driven online repartitioning controller — the stage
/// pipeline over one access stream.
///
/// # Examples
///
/// ```
/// use cps_core::CacheConfig;
/// use cps_engine::{EngineConfig, RepartitionEngine};
/// use cps_trace::{InterleavedStream, WorkloadSpec};
///
/// let streams = vec![
///     WorkloadSpec::SequentialLoop { working_set: 20 }.stream(1),
///     WorkloadSpec::UniformRandom { region: 200 }.stream(2),
/// ];
/// let feed = InterleavedStream::new(streams, vec![1.0, 1.0]);
/// let cfg = EngineConfig::new(CacheConfig::new(64, 1), 2_000);
/// let mut engine = RepartitionEngine::new(cfg.clone(), 2);
/// engine.run(feed.take(20_000));
/// let report = engine.finish();
/// assert_eq!(report.epochs.len(), 10);
/// // The loop tenant ends up with its working set covered.
/// assert!(report.epochs.last().unwrap().allocation[0] >= 20);
/// ```
pub struct RepartitionEngine {
    config: EngineConfig,
    profilers: Vec<Box<dyn TenantProfiler>>,
    solver: Box<dyn PartitionSolver>,
    actuator: Box<dyn CacheActuator>,
    epoch: usize,
    epoch_accesses: usize,
    records: Vec<EpochRecord>,
    totals: Vec<AccessCounts>,
    pending_external: Option<PendingBoundary>,
    /// Registered instrument handles; `None` runs fully uninstrumented.
    metrics: Option<EngineMetrics>,
    /// Run clock anchor — epoch `start` timestamps are nanoseconds
    /// since this instant (journal v3).
    run_start: Instant,
    /// When the *current* (still open) epoch began serving, on the run
    /// clock. Epoch 0 starts at 0; each close re-anchors.
    epoch_start_nanos: u64,
    /// Live-telemetry hook: called with each epoch record as it is
    /// booked. `None` costs nothing.
    emit: Option<EpochHook>,
}

/// State parked between [`RepartitionEngine::export_epoch_curves`] and
/// the matching [`RepartitionEngine::apply_external_allocation`]: the
/// epoch just closed is not booked until the coordinator answers (or
/// the boundary is abandoned by a new export or `finish`).
struct PendingBoundary {
    served_allocation: Vec<usize>,
    per_tenant: Vec<AccessCounts>,
    timings: StageTimings,
}

impl RepartitionEngine {
    /// Creates an engine for `tenants` tenants with the default stages
    /// (windowed profilers, DP solver, hysteresis actuator), starting
    /// from an equal split of the cache.
    ///
    /// # Panics
    /// Panics if `tenants` is zero.
    pub fn new(config: EngineConfig, tenants: usize) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        RepartitionEngine::with_stages(
            config.clone(),
            default_profilers(&config, tenants),
            Box::new(DpPartitionSolver::new(&config)),
            Box::new(HysteresisActuator::new(&config, tenants)),
        )
    }

    /// Like [`new`](Self::new), with instruments registered in
    /// `registry`: a per-access access counter (one relaxed atomic
    /// increment on the hot path; hits are batched in at epoch
    /// boundaries), per-stage time counters, solve latency and
    /// epoch-size histograms, and per-tenant allocation gauges.
    ///
    /// # Panics
    /// Panics if `tenants` is zero.
    pub fn with_metrics(config: EngineConfig, tenants: usize, registry: &MetricsRegistry) -> Self {
        let mut engine = RepartitionEngine::new(config, tenants);
        engine.metrics = Some(EngineMetrics::register(registry, tenants));
        engine
    }

    /// Composes an engine from explicit stage implementations — the
    /// escape hatch for swapping any stage (a sampled profiler, a
    /// heuristic solver, a hardware-backed actuator) without touching
    /// the control loop.
    ///
    /// # Panics
    /// Panics if `profilers` is empty or its length disagrees with the
    /// actuator's allocation.
    pub fn with_stages(
        config: EngineConfig,
        profilers: Vec<Box<dyn TenantProfiler>>,
        solver: Box<dyn PartitionSolver>,
        actuator: Box<dyn CacheActuator>,
    ) -> Self {
        assert_eq!(
            profilers.len(),
            actuator.allocation_units().len(),
            "one profiler per actuated tenant"
        );
        assert!(!profilers.is_empty(), "need at least one tenant");
        let tenants = profilers.len();
        RepartitionEngine {
            config,
            profilers,
            solver,
            actuator,
            epoch: 0,
            epoch_accesses: 0,
            records: Vec::new(),
            totals: vec![AccessCounts::default(); tenants],
            pending_external: None,
            metrics: None,
            run_start: Instant::now(),
            epoch_start_nanos: 0,
            emit: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.profilers.len()
    }

    /// Current allocation in units.
    pub fn allocation_units(&self) -> &[usize] {
        self.actuator.allocation_units()
    }

    /// Epochs completed so far.
    pub fn epochs_completed(&self) -> usize {
        self.epoch
    }

    /// Serves one access; returns `true` on a hit. Crossing the epoch
    /// boundary triggers the snapshot → re-solve → repartition step.
    ///
    /// # Panics
    /// Panics if `tenant` is out of range.
    pub fn record_access(&mut self, tenant: TenantId, block: Block) -> bool {
        self.profilers[tenant].observe(block);
        let hit = self.actuator.access(tenant, block);
        if let Some(metrics) = &self.metrics {
            metrics.accesses.inc();
        }
        self.epoch_accesses += 1;
        if self.epoch_accesses == self.config.epoch_length {
            self.flush_pending();
            self.close_epoch(true);
        }
        hit
    }

    /// Drains an interleaved stream through the engine. Bound infinite
    /// streams with `Iterator::take`.
    pub fn run(&mut self, accesses: impl IntoIterator<Item = (TenantId, Block)>) {
        for (tenant, block) in accesses {
            self.record_access(tenant, block);
        }
    }

    /// Finishes the run, flushing any partial final epoch, and returns
    /// the report.
    ///
    /// A trailing epoch shorter than `epoch_length` is profiled and
    /// re-solved like any other (its counts enter the totals and its
    /// record carries the solve's prediction and latency) but never
    /// actuated — there is no next epoch for a new allocation to serve.
    pub fn finish(mut self) -> EngineReport {
        self.flush_pending();
        if self.epoch_accesses > 0 {
            self.close_epoch(false);
        }
        EngineReport {
            tenants: self.totals.len(),
            cache: self.config.cache,
            objective: self.config.objective.name(),
            epochs: self.records,
            totals: self.totals,
        }
    }

    /// Closes the current epoch under **external clocking** and exports
    /// per-tenant state for an out-of-engine solve: realized counts and
    /// the profiler's blended miss-ratio curve. The closed epoch is
    /// parked, not yet booked — the caller completes the boundary with
    /// [`apply_external_allocation`](Self::apply_external_allocation),
    /// which records the epoch with the coordinator's verdict. An
    /// export while a boundary is already open first books the open one
    /// as unactuated.
    ///
    /// A cluster coordinator builds such engines with an effectively
    /// infinite `epoch_length` so the internal clock never fires, and
    /// drives every boundary through this pair.
    pub fn export_epoch_curves(&mut self) -> Vec<TenantCurve> {
        self.flush_pending();
        let served_allocation = self.actuator.allocation_units().to_vec();
        let per_tenant = self.actuator.take_counts();
        self.epoch_accesses = 0;
        let mut timings = StageTimings::default();
        let profile_clock = Stopwatch::start();
        let curves: Vec<Option<MissRatioCurve>> =
            self.profilers.iter_mut().map(|p| p.end_window()).collect();
        profile_clock.record(&mut timings, Stage::Profile);
        let exported = per_tenant
            .iter()
            .zip(curves)
            .map(|(counts, curve)| TenantCurve {
                counts: *counts,
                curve,
            })
            .collect();
        self.pending_external = Some(PendingBoundary {
            served_allocation,
            per_tenant,
            timings,
        });
        exported
    }

    /// Completes an externally clocked boundary opened by
    /// [`export_epoch_curves`](Self::export_epoch_curves): actuates
    /// `target` (if any) through the engine's own hysteresis stage and
    /// books the parked epoch with the coordinator's `predicted_cost`.
    /// Unlike the internal solve path, `target` may sum to *less* than
    /// physical capacity — a coordinator can run a node on a budget.
    ///
    /// Returns `None` (and does nothing) when no boundary is open.
    ///
    /// # Panics
    /// Panics if `target` has the wrong number of tenants or oversubscribes
    /// the cache.
    pub fn apply_external_allocation(
        &mut self,
        target: Option<&[usize]>,
        predicted_cost: Option<f64>,
        trace: Option<u64>,
    ) -> Option<Actuation> {
        let pending = self.pending_external.take()?;
        let mut timings = pending.timings;
        let actuation = match target {
            Some(units) => {
                assert_eq!(units.len(), self.tenants(), "one budget per tenant");
                assert!(
                    units.iter().sum::<usize>() <= self.config.cache.units,
                    "allocation exceeds cache capacity"
                );
                let actuate_clock = Stopwatch::start();
                let actuation = self.actuator.apply(units);
                actuate_clock.record(&mut timings, Stage::Actuate);
                actuation
            }
            None => Actuation::NONE,
        };
        self.book(
            pending.served_allocation,
            pending.per_tenant,
            timings,
            predicted_cost,
            actuation,
            trace,
        );
        Some(actuation)
    }

    /// Registers a live-telemetry hook fired with each booked epoch
    /// record. Replaces any prior hook; an engine without one pays
    /// nothing.
    pub fn set_epoch_hook(&mut self, hook: EpochHook) {
        self.emit = Some(hook);
    }

    /// Books a dangling external boundary as an unactuated epoch.
    fn flush_pending(&mut self) {
        if self.pending_external.is_some() {
            self.apply_external_allocation(None, None, None);
        }
    }

    /// Runs the epoch-boundary pipeline: natural-baseline snapshot,
    /// window close, re-solve, and (when `actuate` is set) application
    /// of the chosen allocation. Books the epoch record.
    fn close_epoch(&mut self, actuate: bool) {
        let served_allocation = self.actuator.allocation_units().to_vec();
        let per_tenant = self.actuator.take_counts();
        self.epoch_accesses = 0;
        // Inline profiling/serving has no separable ingest span; every
        // epoch starts from zeroed timings.
        let mut timings = StageTimings::default();

        // Natural-baseline inputs need the exact epoch windows, captured
        // before `end_window` folds and resets them.
        let profile_clock = Stopwatch::start();
        let window_profiles = if self.config.policy == Policy::NaturalBaseline {
            Some(window_solo_profiles(
                &self.profilers,
                &per_tenant,
                self.config.cache.blocks(),
            ))
        } else {
            None
        };
        let mrcs: Vec<Option<MissRatioCurve>> =
            self.profilers.iter_mut().map(|p| p.end_window()).collect();
        profile_clock.record(&mut timings, Stage::Profile);

        let outcome = if mrcs.iter().all(|m| m.is_some()) {
            let mrcs: Vec<MissRatioCurve> = mrcs.into_iter().flatten().collect();
            // The solve span covers the whole stage — baseline caps,
            // cost-curve building, and the DP — so a skipped solve is
            // exactly 0 and a performed one is strictly positive.
            let solve_clock = Stopwatch::start();
            let outcome = self.solver.solve(SolveInput {
                mrcs: &mrcs,
                per_tenant: &per_tenant,
                window_profiles: window_profiles.as_deref(),
            });
            solve_clock.record(&mut timings, Stage::Solve);
            outcome
        } else {
            // Some tenant has never been seen; keep the allocation until
            // every curve exists.
            SolveOutcome {
                predicted_cost: None,
                solve_nanos: 0,
                allocation: None,
            }
        };

        // A solver must emit an exact partition of the cache; anything
        // else would silently skew hysteresis accounting downstream
        // (see `units_moved`).
        if let Some(units) = &outcome.allocation {
            debug_assert_eq!(
                units.iter().sum::<usize>(),
                self.config.cache.units,
                "solver allocation must sum to capacity"
            );
        }

        let actuation = match outcome.allocation {
            Some(units) if actuate => {
                let actuate_clock = Stopwatch::start();
                let actuation = self.actuator.apply(&units);
                actuate_clock.record(&mut timings, Stage::Actuate);
                actuation
            }
            _ => Actuation::NONE,
        };

        self.book(
            served_allocation,
            per_tenant,
            timings,
            outcome.predicted_cost,
            actuation,
            None,
        );
    }

    /// Folds a closed epoch into the totals and instruments, appends
    /// its record, fires the telemetry hook, and re-anchors the run
    /// clock so the *next* epoch's `start` is the moment this boundary
    /// completed.
    fn book(
        &mut self,
        allocation: Vec<usize>,
        per_tenant: Vec<AccessCounts>,
        timings: StageTimings,
        predicted_cost: Option<f64>,
        actuation: Actuation,
        trace: Option<u64>,
    ) {
        for (t, c) in self.totals.iter_mut().zip(&per_tenant) {
            t.merge(c);
        }
        if let Some(metrics) = &self.metrics {
            metrics.observe_epoch(&allocation, &per_tenant, &timings, actuation);
        }
        self.records.push(EpochRecord {
            epoch: self.epoch,
            start_nanos: self.epoch_start_nanos,
            trace,
            node_spans: Vec::new(),
            allocation,
            per_tenant,
            predicted_cost,
            timings,
            repartitioned: actuation.repartitioned,
            units_moved: actuation.units_moved,
        });
        self.epoch += 1;
        self.epoch_start_nanos = self.run_start.elapsed().as_nanos() as u64;
        if let Some(emit) = &mut self.emit {
            emit(self.records.last().expect("record just pushed"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::{interleave_proportional, Trace, WorkloadSpec};

    fn feed(engine: &mut RepartitionEngine, traces: &[Trace], rates: &[f64], total: usize) {
        let refs: Vec<&Trace> = traces.iter().collect();
        let co = interleave_proportional(&refs, rates, total);
        engine.run(co.tenant_accesses());
    }

    #[test]
    fn engine_learns_a_cliff_and_feeds_it() {
        // Tenant 0: 24-block loop (cliff at 24). Tenant 1: uniform over
        // 200 (shallow ramp). Optimal gives the loop its working set.
        let t0 = WorkloadSpec::SequentialLoop { working_set: 24 }.generate(40_000, 1);
        let t1 = WorkloadSpec::UniformRandom { region: 200 }.generate(40_000, 2);
        let cfg = EngineConfig::new(CacheConfig::new(64, 1), 4_000);
        let mut engine = RepartitionEngine::new(cfg.clone(), 2);
        feed(&mut engine, &[t0, t1], &[1.0, 1.0], 40_000);
        let report = engine.finish();
        assert_eq!(report.epochs.len(), 10);
        let last = report.epochs.last().unwrap();
        assert!(
            last.allocation[0] >= 24,
            "loop tenant got {} < 24 units",
            last.allocation[0]
        );
        // Once converged the loop tenant stops missing.
        assert!(last.per_tenant[0].miss_ratio() < 0.05);
        assert!(report.repartition_count() >= 1);
    }

    #[test]
    fn hysteresis_suppresses_small_moves() {
        let t0 = WorkloadSpec::UniformRandom { region: 100 }.generate(30_000, 3);
        let t1 = WorkloadSpec::UniformRandom { region: 100 }.generate(30_000, 4);
        let loose = EngineConfig::new(CacheConfig::new(64, 1), 3_000);
        let tight = loose.clone().hysteresis(64); // can never move 64 of 64 units
        let mut a = RepartitionEngine::new(loose, 2);
        let mut b = RepartitionEngine::new(tight, 2);
        feed(&mut a, &[t0.clone(), t1.clone()], &[1.0, 1.0], 30_000);
        feed(&mut b, &[t0, t1], &[1.0, 1.0], 30_000);
        let ra = a.finish();
        let rb = b.finish();
        assert_eq!(rb.repartition_count(), 0, "threshold 64 blocks all moves");
        // Same stream, same solves — only the application differs, so the
        // suppressed engine still *records* the moves it declined.
        assert_eq!(ra.epochs.len(), rb.epochs.len());
        assert!(rb.epochs.iter().all(|e| !e.repartitioned));
        assert!(
            rb.epochs.iter().all(|e| e.allocation == vec![32, 32]),
            "suppressed engine keeps the equal split"
        );
    }

    #[test]
    fn partial_final_epoch_is_flushed_profiled_and_solved() {
        let t0 = WorkloadSpec::SequentialLoop { working_set: 8 }.generate(2_500, 1);
        let cfg = EngineConfig::new(CacheConfig::new(16, 1), 1_000);
        let mut engine = RepartitionEngine::new(cfg.clone(), 1);
        engine.run(t0.blocks.iter().map(|&b| (0usize, b)));
        let report = engine.finish();
        assert_eq!(report.epochs.len(), 3, "2 full + 1 partial epoch");
        let partial = &report.epochs[2];
        assert_eq!(partial.accesses(), 500);
        let total: u64 = report.epochs.iter().map(|e| e.accesses()).sum();
        assert_eq!(total, 2_500);
        assert_eq!(report.totals[0].accesses, 2_500);
        // The partial epoch goes through the full profile + solve
        // pipeline (its 500 accesses are not dropped from the blended
        // curve) but is never actuated.
        assert!(partial.predicted_cost.is_some(), "partial epoch solved");
        assert!(partial.solve_nanos() > 0);
        assert!(!partial.repartitioned);
        assert_eq!(partial.units_moved, 0);
    }

    #[test]
    fn baseline_policies_stay_feasible_and_run() {
        let t0 = WorkloadSpec::SequentialLoop { working_set: 20 }.generate(24_000, 1);
        let t1 = WorkloadSpec::Zipfian {
            region: 80,
            alpha: 0.9,
        }
        .generate(24_000, 2);
        for policy in [Policy::EqualBaseline, Policy::NaturalBaseline] {
            let cfg = EngineConfig::new(CacheConfig::new(64, 1), 4_000).policy(policy);
            let mut engine = RepartitionEngine::new(cfg.clone(), 2);
            feed(&mut engine, &[t0.clone(), t1.clone()], &[1.0, 1.0], 24_000);
            let report = engine.finish();
            assert_eq!(report.epochs.len(), 6, "{policy:?}");
            // Every boundary with all curves present must have solved.
            assert!(
                report.epochs.iter().any(|e| e.solve_nanos() > 0),
                "{policy:?} never solved"
            );
        }
    }

    #[test]
    fn totals_are_sum_of_epochs() {
        let t0 = WorkloadSpec::UniformRandom { region: 60 }.generate(12_000, 7);
        let t1 = WorkloadSpec::SequentialLoop { working_set: 12 }.generate(12_000, 8);
        let cfg = EngineConfig::new(CacheConfig::new(32, 1), 2_000);
        let mut engine = RepartitionEngine::new(cfg.clone(), 2);
        feed(&mut engine, &[t0, t1], &[2.0, 1.0], 18_000);
        let report = engine.finish();
        for t in 0..2 {
            let acc: u64 = report.epochs.iter().map(|e| e.per_tenant[t].accesses).sum();
            let mis: u64 = report.epochs.iter().map(|e| e.per_tenant[t].misses).sum();
            assert_eq!(acc, report.totals[t].accesses);
            assert_eq!(mis, report.totals[t].misses);
        }
        let ratio = report.cumulative_miss_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn allocation_always_sums_to_cache() {
        let t0 = WorkloadSpec::WorkingSetWalk {
            region: 300,
            window: 30,
            dwell: 500,
        }
        .generate(20_000, 5);
        let t1 = WorkloadSpec::SequentialLoop { working_set: 40 }.generate(20_000, 6);
        let cfg = EngineConfig::new(CacheConfig::new(96, 1), 2_500).decay(0.2);
        let mut engine = RepartitionEngine::new(cfg.clone(), 2);
        feed(&mut engine, &[t0, t1], &[1.0, 1.0], 40_000);
        let report = engine.finish();
        for e in &report.epochs {
            assert_eq!(e.allocation.iter().sum::<usize>(), 96, "epoch {}", e.epoch);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_panics() {
        let _ = RepartitionEngine::new(EngineConfig::new(CacheConfig::new(8, 1), 100), 0);
    }

    #[test]
    fn custom_stages_drive_the_same_loop() {
        // A constant solver always proposing [cache, 0, ...] — the
        // pipeline applies it through the normal actuate path.
        struct Greedy {
            units: usize,
        }
        impl PartitionSolver for Greedy {
            fn solve(&mut self, input: SolveInput<'_>) -> SolveOutcome {
                let mut alloc = vec![0; input.mrcs.len()];
                alloc[0] = self.units;
                SolveOutcome {
                    predicted_cost: Some(0.0),
                    solve_nanos: 1,
                    allocation: Some(alloc),
                }
            }
        }
        let cfg = EngineConfig::new(CacheConfig::new(32, 1), 500);
        let engine = RepartitionEngine::with_stages(
            cfg.clone(),
            default_profilers(&cfg, 2),
            Box::new(Greedy { units: 32 }),
            Box::new(HysteresisActuator::new(&cfg, 2)),
        );
        let mut engine = engine;
        for i in 0..1_000u64 {
            engine.record_access((i % 2) as usize, i % 40);
        }
        assert_eq!(engine.allocation_units(), &[32, 0]);
        let report = engine.finish();
        assert!(report.epochs.iter().any(|e| e.repartitioned));
    }

    #[test]
    fn external_boundaries_record_epochs() {
        // Coordinator clocking: the internal epoch clock never fires
        // (epoch_length is effectively infinite); every boundary goes
        // through export → apply.
        let cfg = EngineConfig::new(CacheConfig::new(16, 1), usize::MAX).hysteresis(1);
        let mut engine = RepartitionEngine::new(cfg.clone(), 2);

        // No boundary open yet: apply is a no-op.
        assert!(engine
            .apply_external_allocation(Some(&[8, 8]), None, None)
            .is_none());

        for i in 0..500u64 {
            engine.record_access((i % 2) as usize, i % 20);
        }
        let exported = engine.export_epoch_curves();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].counts.accesses, 250);
        assert!(exported[0].curve.is_some(), "window was profiled");

        // Sub-capacity budget: 10 + 4 < 16 is legal under a coordinator.
        let act = engine
            .apply_external_allocation(Some(&[10, 4]), Some(1.5), Some(9))
            .expect("boundary was open");
        assert!(act.repartitioned);
        assert_eq!(engine.allocation_units(), &[10, 4]);
        assert_eq!(engine.epochs_completed(), 1);

        // A second export with no intervening apply books the first
        // boundary unactuated; finish flushes the dangling one.
        for i in 0..100u64 {
            engine.record_access((i % 2) as usize, i % 20);
        }
        engine.export_epoch_curves();
        engine.export_epoch_curves();
        let report = engine.finish();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[0].allocation, vec![8, 8], "served pre-apply");
        assert_eq!(report.epochs[0].predicted_cost, Some(1.5));
        assert_eq!(
            report.epochs[0].trace,
            Some(9),
            "coordinator trace id sticks"
        );
        assert!(report.epochs[1].trace.is_none());
        assert!(report.epochs[0].repartitioned);
        assert_eq!(report.epochs[1].allocation, vec![10, 4]);
        assert!(!report.epochs[1].repartitioned, "abandoned boundary");
        assert_eq!(
            report.totals.iter().map(|t| t.accesses).sum::<u64>(),
            600,
            "every access lands in exactly one epoch"
        );
    }

    fn four_tenant_cotrace(total: usize) -> Vec<(usize, u64)> {
        let specs = [
            WorkloadSpec::SequentialLoop { working_set: 24 },
            WorkloadSpec::Zipfian {
                region: 150,
                alpha: 0.8,
            },
            WorkloadSpec::WorkingSetWalk {
                region: 300,
                window: 30,
                dwell: 500,
            },
            WorkloadSpec::UniformRandom { region: 400 },
        ];
        let traces: Vec<Trace> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.generate(total, 1 + i as u64))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let co = interleave_proportional(&refs, &[1.0, 2.0, 1.0, 1.5], total);
        co.tenant_accesses().collect()
    }

    /// The registered counters agree with the report's own totals,
    /// whether boundaries come from the engine's clock or from an
    /// external coordinator (both book through the same path).
    #[test]
    fn registered_metrics_agree_with_the_report() {
        let accesses = four_tenant_cotrace(20_000);

        let check = |report: &EngineReport, registry: &MetricsRegistry, label: &str| {
            let snap = registry.snapshot();
            let counter = |name: &str| match snap.get(name) {
                Some(cps_obs::metrics::SampleValue::Counter(v)) => *v,
                other => panic!("{label}: {name} -> {other:?}"),
            };
            let total_acc: u64 = report.totals.iter().map(|c| c.accesses).sum();
            let total_hits: u64 = report.totals.iter().map(|c| c.accesses - c.misses).sum();
            assert_eq!(counter("cps_engine_accesses_total"), total_acc, "{label}");
            assert_eq!(counter("cps_engine_hits_total"), total_hits, "{label}");
            assert_eq!(
                counter("cps_engine_epochs_total"),
                report.epochs.len() as u64,
                "{label}"
            );
            assert_eq!(
                counter("cps_engine_repartitions_total"),
                report.repartition_count() as u64,
                "{label}"
            );
            let moved: usize = report.epochs.iter().map(|e| e.units_moved).sum();
            assert_eq!(
                counter("cps_engine_units_moved_total"),
                moved as u64,
                "{label}"
            );
            for (stage, nanos) in report.stage_totals().iter() {
                assert_eq!(
                    counter(&format!("cps_engine_stage_{}_nanos_total", stage.name())),
                    nanos,
                    "{label}: {stage}"
                );
            }
            let last = &report.epochs.last().expect("epochs booked").allocation;
            for (t, &units) in last.iter().enumerate() {
                assert_eq!(
                    snap.get(&format!("cps_engine_tenant_{t}_units")),
                    Some(&cps_obs::metrics::SampleValue::Gauge(units as i64)),
                    "{label}: tenant {t} gauge"
                );
            }
        };

        let cfg = EngineConfig::new(CacheConfig::new(64, 1), 4_000);
        let registry = MetricsRegistry::new();
        let mut single = RepartitionEngine::with_metrics(cfg, 4, &registry);
        single.run(accesses.iter().copied());
        let report = single.finish();
        check(&report, &registry, "single");
        assert!(
            report.stage_totals().solve_nanos > 0,
            "single: solves timed"
        );

        // Externally clocked: alternate two budgets (one under capacity),
        // skip one apply so an unactuated boundary is booked, and leave
        // the final boundary dangling for `finish` to flush.
        let cfg = EngineConfig::new(CacheConfig::new(64, 1), usize::MAX).hysteresis(1);
        let registry = MetricsRegistry::new();
        let mut external = RepartitionEngine::with_metrics(cfg, 4, &registry);
        let budgets: [&[usize]; 2] = [&[40, 8, 8, 8], &[10, 20, 10, 20]];
        for (i, chunk) in accesses.chunks(4_000).enumerate() {
            external.run(chunk.iter().copied());
            external.export_epoch_curves();
            if i != 2 {
                external.apply_external_allocation(Some(budgets[i % 2]), Some(0.5), None);
            }
        }
        external.run(accesses[..500].iter().copied());
        external.export_epoch_curves();
        let report = external.finish();
        assert_eq!(report.epochs.len(), 6);
        assert!(report.repartition_count() >= 3, "budgets were applied");
        check(&report, &registry, "external");
        assert_eq!(report.stage_totals().solve_nanos, 0, "external: no solve");
    }
}
