//! The only module that calls into the workspace's crates.
//!
//! Every program API the benchmark drives — stream generation, the CPST
//! reader and writer, the engine and its stage seam, the journal, the
//! wire client and the Table-I sweep — is reached through this file, so
//! a change to those APIs (an engine merge, a new sweep entry point) has
//! one place to port. The stage wrappers used by the traced run live
//! here too: they are the benchmark's spans around each layer's calls.

use crate::tracer::{sampling, Tracer};
use cps_cachesim::AccessCounts;
pub use cps_core::sweep::Study;
use cps_core::sweep::{all_k_subsets, sweep_groups_with, table1};
use cps_core::{
    evaluate_group_with, natural_partition_units, optimal_partition, sttw_partition, CacheConfig,
    GroupEvaluation, Objective, Scheme,
};
use cps_engine::{
    default_profilers, Actuation, CacheActuator, DpPartitionSolver, EngineConfig, EngineReport,
    HysteresisActuator, PartitionSolver, RepartitionEngine, SolveInput, SolveOutcome,
    TenantProfiler,
};
use cps_hotl::online::OnlineProfiler;
use cps_hotl::{CoRunModel, MissRatioCurve, ReuseProfile, SoloProfile};
use cps_obs::RunHeader;
use cps_serve::Client;
use cps_trace::spec_like::{study_programs_scaled, ProgramSpec};
use cps_trace::{interleave_proportional, Block, Trace, WorkloadSpec};
use cps_traceio::{
    BinaryWriter, BlockMap, Strictness, TenantPolicy, TraceFormat, TraceIoError, TraceSource,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

pub use cps_obs::json::parse as parse_json;
pub use cps_serve::ServeStats;
pub use cps_traceio::Records;

/// The standard four-tenant mix every replay and served run uses:
/// `loop:24,zipf:150:0.8,walk:300:30:500,uniform:400` at equal rates.
pub const TENANTS: usize = 4;

fn standard_mix() -> [WorkloadSpec; TENANTS] {
    [
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
    ]
}

/// The interleaved `(tenant, block)` stream `cps trace gen` writes for
/// the standard mix at this seed: tenant `i` is seeded `seed + i + 1`
/// and the four traces are interleaved at equal rates.
pub fn standard_stream(seed: u64, len: usize) -> Vec<(usize, Block)> {
    let traces: Vec<Trace> = standard_mix()
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(len, seed.wrapping_add(i as u64 + 1)))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    interleave_proportional(&refs, &[1.0; TENANTS], len)
        .tenant_accesses()
        .collect()
}

/// Writes `stream` as a pre-mapped CPST binary trace.
pub fn write_cpst(path: &Path, stream: &[(usize, Block)]) -> std::io::Result<u64> {
    let mut writer = BinaryWriter::new(BufWriter::new(File::create(path)?), 1)?;
    for &(tenant, block) in stream {
        writer.write_record(tenant as u64, block)?;
    }
    writer.finish()
}

/// Opens a CPST trace written by [`write_cpst`] as a strict streaming
/// source with explicit tenancy.
pub fn open_cpst(path: &Path) -> std::io::Result<TraceSource> {
    let file = File::open(path)?;
    Ok(TraceSource::from_read(
        Box::new(file),
        TraceFormat::Binary,
        TenantPolicy::Explicit,
        BlockMap::identity(),
        TENANTS,
        Strictness::Strict,
    ))
}

/// Takes the error a [`Records`] iterator stopped on, if any.
pub fn records_error(records: &mut Records<'_>) -> Option<TraceIoError> {
    records.take_error()
}

/// The replay geometry: `units` × 1-block units, default decay and
/// hysteresis (the same engine `cps serve` builds from its defaults).
pub fn engine_config(units: usize, epoch: usize) -> EngineConfig {
    EngineConfig::new(CacheConfig::new(units, 1), epoch)
}

/// The engine with default stages, composed through the stage seam so
/// the traced run differs only by the wrappers around each stage.
pub fn default_engine(config: &EngineConfig) -> RepartitionEngine {
    RepartitionEngine::with_stages(
        config.clone(),
        default_profilers(config, TENANTS),
        Box::new(DpPartitionSolver::new(config)),
        Box::new(HysteresisActuator::new(config, TENANTS)),
    )
}

/// The same engine with every stage wrapped in a [`Traced`] stage.
pub fn traced_engine(config: &EngineConfig, tracer: &Tracer) -> RepartitionEngine {
    let profilers = default_profilers(config, TENANTS)
        .into_iter()
        .map(|p| Box::new(Traced::new(p, tracer)) as Box<dyn TenantProfiler>)
        .collect();
    let solver: Box<dyn PartitionSolver> = Box::new(DpPartitionSolver::new(config));
    let actuator: Box<dyn CacheActuator> = Box::new(HysteresisActuator::new(config, TENANTS));
    RepartitionEngine::with_stages(
        config.clone(),
        profilers,
        Box::new(Traced::new(solver, tracer)),
        Box::new(Traced::new(actuator, tracer)),
    )
}

/// The journal header of a single-engine run at this geometry — the
/// header `cps serve` announces for the same flags.
pub fn run_header(config: &EngineConfig) -> RunHeader {
    RunHeader {
        engine: "single".to_string(),
        tenants: TENANTS,
        units: config.cache.units,
        bpu: config.cache.blocks_per_unit,
        epoch_length: config.epoch_length,
        shards: 1,
        policy: "none".to_string(),
        objective: config.objective.name(),
    }
}

/// Renders the run's journal (header, epochs, summary).
pub fn render_journal(header: &RunHeader, report: &EngineReport) -> String {
    cps_serve::render_journal(header, report)
}

/// The report-identity text of an in-process run: the journal with its
/// wall-clock fields zeroed.
pub fn identity_of_report(header: &RunHeader, report: &EngineReport) -> String {
    cps_serve::identity_of_report(header, report)
}

/// The report-identity text of a journal received from a daemon.
pub fn identity_of_journal_text(text: &str) -> Result<String, String> {
    let journal = cps_obs::Journal::parse(text).map_err(|e| format!("journal: {e}"))?;
    Ok(cps_serve::identity_of_journal(&journal))
}

/// Cumulative miss ratio of a finished run.
pub fn miss_ratio(report: &EngineReport) -> f64 {
    report.cumulative_miss_ratio()
}

/// Replays `stream` in process through the default engine.
pub fn replay_in_process(config: &EngineConfig, stream: &[(usize, Block)]) -> EngineReport {
    let mut engine = default_engine(config);
    engine.run(stream.iter().copied());
    engine.finish()
}

// ---------------------------------------------------------------------------
// Traced stages: spans around each call into hotl, core and cachesim.

/// A stage wrapped with the benchmark's timing: per-access calls are
/// counted and timed on sampled iterations (see
/// [`crate::tracer::set_sampling`]), boundary calls open spans.
pub struct Traced<S> {
    inner: S,
    tracer: Tracer,
    calls: u64,
    samples: u64,
    sampled_ns: u64,
}

impl<S> Traced<S> {
    fn new(inner: S, tracer: &Tracer) -> Self {
        Traced {
            inner,
            tracer: tracer.clone(),
            calls: 0,
            samples: 0,
            sampled_ns: 0,
        }
    }

    fn time<R>(&mut self, call: impl FnOnce(&mut S) -> R) -> R {
        self.calls += 1;
        if sampling() {
            let start = Instant::now();
            let out = call(&mut self.inner);
            self.sampled_ns += start.elapsed().as_nanos() as u64;
            self.samples += 1;
            out
        } else {
            call(&mut self.inner)
        }
    }

    fn flush(&mut self, name: &'static str) {
        self.tracer
            .add_sampled(name, self.calls, self.samples, self.sampled_ns);
        self.calls = 0;
        self.samples = 0;
        self.sampled_ns = 0;
    }
}

impl TenantProfiler for Traced<Box<dyn TenantProfiler>> {
    fn observe(&mut self, block: Block) {
        self.time(|p| p.observe(block));
    }

    fn window_accesses(&self) -> usize {
        self.inner.window_accesses()
    }

    fn window_reuse(&self) -> ReuseProfile {
        self.inner.window_reuse()
    }

    fn absorb_window(&mut self, chunk: &OnlineProfiler) {
        self.inner.absorb_window(chunk);
    }

    fn end_window(&mut self) -> Option<MissRatioCurve> {
        self.flush("hotl.observe");
        let _span = self.tracer.enter("hotl.end_window");
        self.inner.end_window()
    }
}

impl PartitionSolver for Traced<Box<dyn PartitionSolver>> {
    fn solve(&mut self, input: SolveInput<'_>) -> SolveOutcome {
        let _span = self.tracer.enter("core.solve");
        self.inner.solve(input)
    }
}

impl CacheActuator for Traced<Box<dyn CacheActuator>> {
    fn allocation_units(&self) -> &[usize] {
        self.inner.allocation_units()
    }

    fn access(&mut self, tenant: usize, block: Block) -> bool {
        self.time(|a| a.access(tenant, block))
    }

    fn take_counts(&mut self) -> Vec<AccessCounts> {
        self.flush("cachesim.access");
        let counts = self.inner.take_counts();
        let accesses: u64 = counts.iter().map(|c| c.accesses).sum();
        let misses: u64 = counts.iter().map(|c| c.misses).sum();
        self.tracer.add_count("cachesim.hits", accesses - misses);
        self.tracer.add_count("cachesim.accesses", accesses);
        counts
    }

    fn apply(&mut self, target_units: &[usize]) -> Actuation {
        let actuation = {
            let _span = self.tracer.enter("cachesim.apply");
            self.inner.apply(target_units)
        };
        self.tracer.add_count("cachesim.proposed", 1);
        self.tracer
            .add_count("cachesim.applied", u64::from(actuation.repartitioned));
        actuation
    }
}

// ---------------------------------------------------------------------------
// The served path: `cps serve` driven through the wire client.

/// One admitted client session against a daemon.
pub struct Session(Client);

impl Session {
    /// Connects and completes the HELLO handshake.
    pub fn connect(addr: &str) -> Result<Session, String> {
        Client::connect(addr, None)
            .map(Session)
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    /// Streams one batch (fire-and-forget).
    pub fn push_batch(&mut self, records: &[(u64, u64)]) -> Result<(), String> {
        self.0.push_batch(records).map_err(|e| format!("push: {e}"))
    }

    /// STATS round trip; the daemon answers after every earlier batch is
    /// ingested.
    pub fn stats(&mut self) -> Result<ServeStats, String> {
        self.0.stats().map_err(|e| format!("stats: {e}"))
    }

    /// The daemon's metrics registry as JSONL.
    pub fn snapshot(&mut self) -> Result<String, String> {
        self.0.snapshot().map_err(|e| format!("snapshot: {e}"))
    }

    /// SHUTDOWN: ends the daemon's run and returns its journal.
    pub fn shutdown(self) -> Result<String, String> {
        self.0.shutdown().map_err(|e| format!("shutdown: {e}"))
    }
}

// ---------------------------------------------------------------------------
// The Table-I sweep.

/// The first `programs` of the 16-program spec-like study, each
/// program's generator seed offset by the benchmark seed (seed 0 is the
/// study `table1` profiles).
pub fn study_specs(programs: usize, trace_len: usize, seed: u64) -> Vec<ProgramSpec> {
    let mut specs = study_programs_scaled(trace_len);
    specs.truncate(programs);
    for s in &mut specs {
        s.seed = s
            .seed
            .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    specs
}

/// Generates one program's trace (the generation half of
/// [`build_study`]).
pub fn generate_program(spec: &ProgramSpec) -> Trace {
    spec.trace()
}

/// Profiles every program of `specs` against `units` 1-block units.
pub fn build_study(specs: &[ProgramSpec], units: usize) -> Study {
    Study::build(specs, CacheConfig::new(units, 1))
}

/// The library's parallel sweep of every 4-program group under the
/// default miss-ratio objective.
pub fn sweep(study: &Study) -> Vec<GroupEvaluation> {
    sweep_groups_with(study, 4, &Objective::MissRatioSum)
        .into_iter()
        .map(|r| r.evaluation)
        .collect()
}

/// Every 4-program group of the study, in the sweep's order.
pub fn groups(study: &Study) -> Vec<Vec<usize>> {
    all_k_subsets(study.len(), 4)
}

fn members<'a>(study: &'a Study, group: &[usize]) -> Vec<&'a SoloProfile> {
    group.iter().map(|&i| &study.profiles[i]).collect()
}

/// One group's six-scheme evaluation, as the sweep computes it.
pub fn evaluate_group(study: &Study, group: &[usize]) -> GroupEvaluation {
    evaluate_group_with(
        &members(study, group),
        &study.config,
        &Objective::MissRatioSum,
    )
}

/// The parts of one group evaluation, each timed as its own call: the
/// unconstrained DP, the natural partition and STTW. Returns their wall
/// times in nanoseconds.
pub fn time_group_parts(study: &Study, group: &[usize], tracer: &Tracer) -> [u64; 3] {
    let members = members(study, group);
    let config = &study.config;
    let objective = Objective::MissRatioSum;
    let model = CoRunModel::new(members.clone());
    let mrcs: Vec<&MissRatioCurve> = members.iter().map(|m| &m.mrc).collect();
    let costs = objective.cost_curves(&mrcs, config, model.shares(), None);
    let dp = tracer.timed("core.dp", || {
        std::hint::black_box(optimal_partition(&costs, config.units, &objective));
    });
    let natural = tracer.timed("core.natural", || {
        std::hint::black_box(natural_partition_units(&model, config));
    });
    let sttw = tracer.timed("core.sttw", || {
        std::hint::black_box(sttw_partition(&costs, config.units));
    });
    [dp, natural, sttw]
}

/// Optimal's group miss ratio.
pub fn optimal_miss_ratio(evaluation: &GroupEvaluation) -> f64 {
    evaluation.get(Scheme::Optimal).group_miss_ratio
}

/// The Table I rows of a sweep, one line per compared scheme with every
/// statistic at full precision.
pub fn table1_rows(study: &Study, evaluations: &[GroupEvaluation]) -> Vec<String> {
    let records: Vec<cps_core::sweep::GroupRecord> = groups(study)
        .into_iter()
        .zip(evaluations.iter().cloned())
        .map(|(indices, evaluation)| cps_core::sweep::GroupRecord {
            indices,
            evaluation,
        })
        .collect();
    table1(&records)
        .iter()
        .map(|row| {
            format!(
                "{} max={:?} mean={:?} median={:?} ge10={:?} ge20={:?}",
                row.versus.name(),
                row.summary.max,
                row.summary.mean,
                row.summary.median,
                row.improved_10pct,
                row.improved_20pct
            )
        })
        .collect()
}

/// A stable fingerprint of a group evaluation (allocations and cost
/// bits of all six schemes).
pub fn evaluation_key(evaluation: &GroupEvaluation) -> String {
    evaluation
        .results
        .iter()
        .map(|r| format!("{:?}{:x}", r.allocation, r.group_miss_ratio.to_bits()))
        .collect()
}
