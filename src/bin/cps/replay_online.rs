//! `cps replay-online` — replay an interleaved multi-tenant stream
//! through the epoch-driven repartitioning engine, side by side with a
//! static-optimal partition and free-for-all sharing.
//!
//! `--journal PATH` writes the run's epoch event journal (the stable
//! JSONL schema `cps inspect` consumes); `--metrics-out PATH` attaches
//! a metrics registry to the run and writes a snapshot on exit —
//! Prometheus text exposition by default, JSONL if PATH ends in
//! `.jsonl` or is `-` (which streams the snapshot to stdout).

use crate::common::{
    open_trace_source, parse_engine_config, parse_trace_opts, parse_workload, print_source_stats,
    Args,
};
use cache_partition_sharing::engine::EpochRecord;
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::traceio::TraceIoMetrics;

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    args.reject_removed_engine_flags()?;
    if args.get("trace-file").is_some() {
        return run_trace_file(&args);
    }
    let specs: Vec<WorkloadSpec> = args
        .require("workloads")?
        .split(',')
        .map(parse_workload)
        .collect::<Result<_, _>>()?;
    if specs.len() < 2 {
        return Err("replay-online needs at least two comma-separated workloads".into());
    }
    let k = specs.len();
    let engine_cfg = parse_engine_config(&args, k)?;
    let config = engine_cfg.cache;
    let len: usize = args.get_parse("len", 200_000)?;
    if len == 0 {
        return Err("--len must be at least 1".into());
    }
    let seed: u64 = args.get_parse("seed", 0)?;
    let rates: Vec<f64> = match args.get("rates") {
        None => vec![1.0; k],
        Some(s) => {
            let r: Vec<f64> = s
                .split(',')
                .map(|x| x.parse().map_err(|_| format!("bad rate `{x}`")))
                .collect::<Result<_, _>>()?;
            if r.len() != k {
                return Err(format!("{} rates for {k} workloads", r.len()));
            }
            r
        }
    };

    // One shared interleaved trace drives all three contenders.
    let traces: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(len, seed.wrapping_add(i as u64 + 1)))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let co = interleave_proportional(&refs, &rates, len);

    // Online: the epoch-driven repartitioning engine.
    let registry = MetricsRegistry::new();
    let mut engine = new_engine(&args, &engine_cfg, k, &registry);
    engine.run(co.tenant_accesses());
    let report = engine.finish();

    // Static-optimal: one offline DP solve over full-trace profiles,
    // then a fixed partition for the whole run.
    let objective = &engine_cfg.objective;
    let total_acc: u64 = co.per_program.iter().sum();
    let profiles: Vec<SoloProfile> = (0..k)
        .map(|i| {
            let blocks: Vec<Block> = co
                .accesses
                .iter()
                .filter(|a| a.program as usize == i)
                .map(|a| a.block)
                .collect();
            SoloProfile::from_trace(
                format!("t{i}"),
                &blocks,
                co.per_program[i].max(1) as f64 / total_acc.max(1) as f64,
                config.blocks(),
            )
        })
        .collect();
    let mrcs: Vec<&MissRatioCurve> = profiles.iter().map(|p| &p.mrc).collect();
    let shares: Vec<f64> = profiles.iter().map(|p| p.access_rate).collect();
    let costs =
        cache_partition_sharing::core::build_cost_curves(&mrcs, &config, &shares, objective, None);
    let static_alloc = optimal_partition(&costs, config.units, objective)
        .ok_or("static solve infeasible")?
        .allocation;
    let static_sizes: Vec<usize> = static_alloc.iter().map(|&u| config.to_blocks(u)).collect();
    let mut static_cache = PartitionedCache::new(&static_sizes);
    let mut shared_cache = LruCache::new(config.blocks());

    // Replay both references with the engine's epoch boundaries.
    let mut static_mr = Vec::new();
    let mut shared_mr = Vec::new();
    let mut static_total = (0u64, 0u64); // (accesses, misses)
    let mut shared_total = (0u64, 0u64);
    for chunk in co.accesses.chunks(engine_cfg.epoch_length) {
        let (mut sa, mut sm, mut ha, mut hm) = (0u64, 0u64, 0u64, 0u64);
        for a in chunk {
            sa += 1;
            sm += u64::from(!static_cache.access(a.program as usize, a.block));
            ha += 1;
            hm += u64::from(!shared_cache.access(a.block));
        }
        static_mr.push(sm as f64 / sa as f64);
        shared_mr.push(hm as f64 / ha as f64);
        static_total = (static_total.0 + sa, static_total.1 + sm);
        shared_total = (shared_total.0 + ha, shared_total.1 + hm);
    }

    println!(
        "online repartitioning: {k} tenants, {} accesses, {}",
        co.len(),
        describe(&engine_cfg)
    );
    println!(
        "{:<7} {:>9} {:>9} {:>9}  {:>6} {:>10}  allocation (units)",
        "epoch", "online", "static", "shared", "moved", "solve"
    );
    for (i, e) in report.epochs.iter().enumerate() {
        println!(
            "{:<7} {:>9.4} {:>9.4} {:>9.4}  {}",
            e.epoch,
            e.miss_ratio(),
            static_mr.get(i).copied().unwrap_or(f64::NAN),
            shared_mr.get(i).copied().unwrap_or(f64::NAN),
            decision_columns(e)
        );
    }
    let static_cum = static_total.1 as f64 / static_total.0.max(1) as f64;
    let shared_cum = shared_total.1 as f64 / shared_total.0.max(1) as f64;
    println!(
        "\ncumulative miss ratio: online {:.4} | static-optimal {:.4} | free-for-all {:.4}",
        report.cumulative_miss_ratio(),
        static_cum,
        shared_cum
    );
    println!(
        "{} repartitions over {} epochs; mean DP solve {}",
        report.repartition_count(),
        report.epochs.len(),
        mean_solve(&report)
    );
    write_outputs(&args, &engine_cfg, k, &report, &registry)
}

/// `--trace-file` mode: stream an external trace straight into the
/// engine — no materialization, so the input may be arbitrarily large.
/// The static-optimal and free-for-all baselines need the whole stream
/// in memory and are skipped.
fn run_trace_file(args: &Args) -> Result<(), String> {
    let path = args.require("trace-file")?;
    let k: usize = args
        .require("tenants")
        .map_err(|_| "external traces need --tenants K (the engine's tenant count)".to_string())?
        .parse()
        .map_err(|_| "bad --tenants".to_string())?;
    if k == 0 {
        return Err("--tenants must be at least 1".into());
    }
    let engine_cfg = parse_engine_config(args, k)?;
    let opts = parse_trace_opts(args, k)?;

    let registry = MetricsRegistry::new();
    let (mut source, format) = open_trace_source(path, &opts)?;
    if args.get("metrics-out").is_some() {
        source = source.with_metrics(TraceIoMetrics::register(&registry));
    }
    let mut engine = new_engine(args, &engine_cfg, k, &registry);
    let mut records = source.records();
    engine.run(records.by_ref());
    if let Some(e) = records.take_error() {
        return Err(format!("{path}: {e}"));
    }
    let report = engine.finish();
    let stats = source.stats();

    println!(
        "online repartitioning: {k} tenants from {path} ({} format), {} accesses, {}",
        format.name(),
        stats.records,
        describe(&engine_cfg)
    );
    print_source_stats(&stats);
    println!("(static-optimal and free-for-all baselines need a materialized stream; skipped)");
    println!(
        "{:<7} {:>9}  {:>6} {:>10}  allocation (units)",
        "epoch", "online", "moved", "solve"
    );
    for e in &report.epochs {
        println!(
            "{:<7} {:>9.4}  {}",
            e.epoch,
            e.miss_ratio(),
            decision_columns(e)
        );
    }
    println!(
        "\ncumulative miss ratio: online {:.4}; {} repartitions over {} epochs; mean DP solve {}",
        report.cumulative_miss_ratio(),
        report.repartition_count(),
        report.epochs.len(),
        mean_solve(&report)
    );
    write_outputs(args, &engine_cfg, k, &report, &registry)
}

/// The engine, instrumented in `registry` when `--metrics-out` asks
/// for a snapshot.
fn new_engine(
    args: &Args,
    cfg: &EngineConfig,
    tenants: usize,
    registry: &MetricsRegistry,
) -> RepartitionEngine {
    if args.get("metrics-out").is_some() {
        RepartitionEngine::with_metrics(cfg.clone(), tenants, registry)
    } else {
        RepartitionEngine::new(cfg.clone(), tenants)
    }
}

/// The engine knobs, as the run banner prints them.
fn describe(cfg: &EngineConfig) -> String {
    format!(
        "{} x {}-block units, epoch {}, decay {}, hysteresis {}, objective {}, policy {:?}",
        cfg.cache.units,
        cfg.cache.blocks_per_unit,
        cfg.epoch_length,
        cfg.decay,
        cfg.min_repartition_units,
        cfg.objective.name(),
        cfg.policy
    )
}

/// The epoch table's moved / solve / allocation columns.
fn decision_columns(e: &EpochRecord) -> String {
    let solve = if e.solve_nanos() > 0 {
        format!("{:.1}us", e.solve_nanos() as f64 / 1e3)
    } else {
        "-".to_string()
    };
    let mark = if e.repartitioned { "*" } else { " " };
    let alloc: Vec<String> = e.allocation.iter().map(|u| u.to_string()).collect();
    format!(
        "{:>5}{} {:>10}  {}",
        e.units_moved,
        mark,
        solve,
        alloc.join("/")
    )
}

fn mean_solve(report: &EngineReport) -> String {
    match report.mean_solve_nanos() {
        Some(ns) => format!("{:.1} us", ns as f64 / 1e3),
        None => "n/a".to_string(),
    }
}

/// Writes `--journal` (the stable line protocol `cps inspect`
/// re-parses and cross-validates) and `--metrics-out`, when asked.
fn write_outputs(
    args: &Args,
    cfg: &EngineConfig,
    tenants: usize,
    report: &EngineReport,
    registry: &MetricsRegistry,
) -> Result<(), String> {
    if let Some(path) = args.get("journal") {
        let header = RunHeader {
            engine: "single".to_string(),
            tenants,
            units: cfg.cache.units,
            bpu: cfg.cache.blocks_per_unit,
            epoch_length: cfg.epoch_length,
            shards: 1,
            policy: args.get("baseline").unwrap_or("none").to_string(),
            objective: cfg.objective.name(),
        };
        let journal = cache_partition_sharing::serve::render_journal(&header, report);
        std::fs::write(path, journal).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "journal: {} epochs (single engine) -> {path}",
            report.epochs.len()
        );
    }
    if let Some(path) = args.get("metrics-out") {
        let snapshot = registry.snapshot();
        crate::common::write_text_out(
            path,
            &crate::common::render_metrics_snapshot(path, &snapshot),
        )?;
        if path != "-" {
            println!("metrics: {} samples -> {path}", snapshot.samples.len());
        }
    }
    Ok(())
}
