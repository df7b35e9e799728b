//! `replay-small-cache`: an in-process engine replays a CPST file.
//!
//! Each rep writes the standard four-tenant mix as a CPST trace (the
//! set-up), opens it, streams it through a `RepartitionEngine` with
//! default stages at 128 × 1-block units and epoch 5000, finishes the
//! run and writes its journal. About three quarters of a rep is the
//! per-access path (parse, profile, simulate) and about an eighth the
//! DP, so this workload moves with access-path changes and barely with
//! DP changes.

use crate::adapter::{self, TENANTS};
use crate::stats::{fastest, least_disturbed, median, quantile, Coin};
use crate::tracer::{set_sampling, Tracer};
use crate::{layers, Alias, Opts, Outcome};
use cps_engine::RepartitionEngine;
use std::path::Path;
use std::time::Instant;

pub const UNITS: usize = 128;
pub const EPOCH: usize = 5_000;

/// The seed whose full-size output is pinned below.
const PINNED_SEED: u64 = 0;
/// FNV-1a of the report-identity text (allocations, per-epoch counts,
/// predicted costs, actuation record) of the seed-0 replay at full
/// size, recorded when the benchmark was introduced. An exact
/// optimisation leaves it unchanged.
const PINNED_DIGEST: u64 = 0x44a3_dfcf_51b4_bb9c;

/// What one replay rep produced.
pub struct Rep {
    pub wall_ns: f64,
    pub records: u64,
    /// Wall time of each `record_access` call that closed an epoch.
    pub pauses_ns: Vec<f64>,
    pub digest: u64,
    pub miss_ratio: f64,
    pub epochs: usize,
    pub journal_bytes: usize,
}

/// Streams every record into the engine, timing only the calls that
/// close an epoch.
fn drive(engine: &mut RepartitionEngine, records: &mut adapter::Records<'_>, rep: &mut Rep) {
    let epoch = EPOCH as u64;
    let mut i = 0u64;
    for (tenant, block) in records.by_ref() {
        i += 1;
        if i.is_multiple_of(epoch) {
            let start = Instant::now();
            engine.record_access(tenant, block);
            rep.pauses_ns.push(start.elapsed().as_nanos() as f64);
        } else {
            engine.record_access(tenant, block);
        }
    }
    rep.records = i;
}

/// Records read and fed together in one timed block window.
const WINDOW: usize = 32;

/// [`drive`] with spans. Each epoch-closing call is an `engine.boundary`
/// span. On a random 1-in-64 of the other iterations the stage wrappers
/// time their one call; on about a third of the records, block windows
/// time [`WINDOW`] record reads together and then the [`WINDOW`]
/// `record_access` calls together, which keeps the clock's cost and its
/// stall of the pipeline out of the per-record figures.
fn drive_traced(
    engine: &mut RepartitionEngine,
    records: &mut adapter::Records<'_>,
    rep: &mut Rep,
    tracer: &Tracer,
    coin: &mut Coin,
) {
    let epoch = EPOCH as u64;
    let mut i = 0u64;
    let mut window = [(0usize, 0u64); WINDOW];
    let (mut timed, mut read_ns, mut access_ns) = (0u64, 0u64, 0u64);
    let (mut pairs, mut pair_ns) = (0u64, 0u64);
    loop {
        if (i + 1).is_multiple_of(epoch) {
            let Some((tenant, block)) = records.next() else {
                break;
            };
            let start = Instant::now();
            {
                let _span = tracer.enter("engine.boundary");
                engine.record_access(tenant, block);
            }
            rep.pauses_ns.push(start.elapsed().as_nanos() as f64);
            i += 1;
        } else if coin.flip() {
            let Some((tenant, block)) = records.next() else {
                break;
            };
            // An empty clock pair in the same loop: what timing adds to
            // the single calls the wrappers time in this iteration.
            let a = Instant::now();
            let b = Instant::now();
            pairs += 1;
            pair_ns += (b - a).as_nanos() as u64;
            set_sampling(true);
            engine.record_access(tenant, block);
            set_sampling(false);
            i += 1;
        } else if coin.flip() && i % epoch + (WINDOW as u64) < epoch {
            let a = Instant::now();
            let mut n = 0;
            for slot in window.iter_mut() {
                let Some(record) = records.next() else {
                    break;
                };
                *slot = record;
                n += 1;
            }
            let b = Instant::now();
            for &(tenant, block) in &window[..n] {
                engine.record_access(tenant, block);
            }
            let c = Instant::now();
            i += n as u64;
            timed += n as u64;
            read_ns += (b - a).as_nanos() as u64;
            access_ns += (c - b).as_nanos() as u64;
            if n < WINDOW {
                break;
            }
        } else {
            let Some((tenant, block)) = records.next() else {
                break;
            };
            engine.record_access(tenant, block);
            i += 1;
        }
    }
    rep.records = i;
    tracer.add_sampled("traceio.next", i, timed, read_ns);
    tracer.add_sampled("engine.record_access", i, timed, access_ns);
    tracer.add_sampled("clock.pair", pairs, pairs, pair_ns);
}

/// One rep: open the trace, replay it, finish, write the journal.
pub fn rep(
    trace: &Path,
    journal: &Path,
    tracer: Option<&Tracer>,
    coin: &mut Coin,
) -> Result<Rep, String> {
    let config = adapter::engine_config(UNITS, EPOCH);
    let header = adapter::run_header(&config);
    let mut out = Rep {
        wall_ns: 0.0,
        records: 0,
        pauses_ns: Vec::new(),
        digest: 0,
        miss_ratio: 0.0,
        epochs: 0,
        journal_bytes: 0,
    };
    let start = Instant::now();
    let root = tracer.map(|t| t.enter("run.replay"));
    let mut source = adapter::open_cpst(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    let mut records = source.records();
    let report = match tracer {
        None => {
            let mut engine = adapter::default_engine(&config);
            drive(&mut engine, &mut records, &mut out);
            engine.finish()
        }
        Some(t) => {
            let mut engine = adapter::traced_engine(&config, t);
            drive_traced(&mut engine, &mut records, &mut out, t, coin);
            let _span = t.enter("engine.finish");
            engine.finish()
        }
    };
    if let Some(e) = adapter::records_error(&mut records) {
        return Err(format!("{}: {e}", trace.display()));
    }
    {
        let _span = tracer.map(|t| t.enter("obs.journal_write"));
        let text = adapter::render_journal(&header, &report);
        std::fs::write(journal, &text).map_err(|e| format!("{}: {e}", journal.display()))?;
        out.journal_bytes = text.len();
    }
    drop(root);
    out.wall_ns = start.elapsed().as_nanos() as f64;
    out.digest = crate::stats::fnv1a(adapter::identity_of_report(&header, &report).as_bytes());
    out.miss_ratio = adapter::miss_ratio(&report);
    out.epochs = report.epochs.len();
    Ok(out)
}

/// Generates the seed's stream and writes it as a CPST trace; returns
/// the generation time alone.
fn write_trace(seed: u64, records: usize, path: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let stream = adapter::standard_stream(seed, records);
    let gen_ns = start.elapsed().as_nanos() as f64;
    adapter::write_cpst(path, &stream).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(gen_ns)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let trace = opts.work.join(format!("replay-seed{}.cpst", opts.seed));
    let journal = opts.work.join("replay-journal.jsonl");
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let tracer = Tracer::new();
    let mut coin = Coin::new(opts.seed ^ 0x5eed);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    // Every rep writes the trace afresh, so the set-up samples are
    // spread over the whole run like the replay's own. The traced run
    // alternates untraced and traced reps, so the two wall times it
    // compares share the same machine state.
    while plain.is_empty() || (opts.trace && traced.is_empty()) || Instant::now() < deadline {
        let start = Instant::now();
        gen.push(write_trace(opts.seed, opts.size.records, &trace)?);
        setup.push(start.elapsed().as_secs_f64());
        if opts.trace && traced.len() < plain.len() {
            traced.push(rep(&trace, &journal, Some(&tracer), &mut coin)?);
        } else {
            plain.push(rep(&trace, &journal, None, &mut coin)?);
        }
    }
    let rss_mb = crate::peak_rss_mb(None)?;

    let mut outcome = Outcome::default();
    let expected_epochs = opts.size.records.div_ceil(EPOCH);
    let reference = plain[0].digest;
    for r in plain.iter().chain(&traced) {
        outcome.attempted += r.records;
        let ok = r.records == opts.size.records as u64
            && r.epochs == expected_epochs
            && r.pauses_ns.len() == opts.size.records / EPOCH
            && r.digest == reference;
        outcome.check(ok, r.records, || {
            format!(
                "rep diverged: {} records, {} epochs, {} pauses, digest {:016x} vs {reference:016x}",
                r.records,
                r.epochs,
                r.pauses_ns.len(),
                r.digest
            )
        });
    }
    if opts.size.pinned {
        let pinned = if opts.seed == PINNED_SEED {
            reference
        } else {
            let path = opts.work.join("replay-pinned.cpst");
            write_trace(PINNED_SEED, opts.size.records, &path)?;
            rep(&path, &journal, None, &mut coin)?.digest
        };
        outcome.check(pinned == PINNED_DIGEST, outcome.attempted, || {
            format!("seed-{PINNED_SEED} replay digest {pinned:016x}, pinned {PINNED_DIGEST:016x}")
        });
        outcome
            .notes
            .push(format!("seed-{PINNED_SEED} replay digest {pinned:016x}"));
    }
    if !traced.is_empty() {
        outcome.notes.push(format!(
            "traced reps reproduce the untraced trajectory ({} traced, {} untraced reps)",
            traced.len(),
            plain.len()
        ));
    }

    if opts.trace {
        let data = tracer.data();
        outcome.metrics = layers::from_trace(&data, traced.len());
        let m = &mut outcome.metrics;
        m.insert("engine.epochs", traced[0].epochs as f64);
        m.insert("obs.journal_bytes", traced[0].journal_bytes as f64);
        m.insert("trace.gen_ms", median(&gen) / 1e6);
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_ns).collect::<Vec<_>>());
        m.insert("trace_overhead_ms", (wall(&traced) - wall(&plain)) / 1e6);
        let spans = opts
            .work
            .join(format!("spans-replay-seed{}.jsonl", opts.seed));
        data.write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        outcome
            .notes
            .push(format!("spans written to {}", spans.display()));
    } else {
        let best = least_disturbed(&plain, 4, |r| r.wall_ns);
        let rates: Vec<f64> = best
            .iter()
            .map(|r| r.records as f64 / (r.wall_ns / 1e9))
            .collect();
        let pauses: Vec<f64> = best
            .iter()
            .flat_map(|r| r.pauses_ns.iter().copied())
            .collect();
        let m = &mut outcome.metrics;
        m.insert("ops_per_s", median(&rates));
        m.insert("latency_p50_us", median(&pauses) / 1e3);
        m.insert("latency_p99_us", quantile(&pauses, 0.99) / 1e3);
        m.insert("miss_ratio", plain[0].miss_ratio);
        m.insert("setup_s", fastest(&setup));
        m.insert("peak_rss_mb", rss_mb);
        outcome.notes.push(format!(
            "rep M accesses/s: {:.2?}",
            plain
                .iter()
                .map(|r| r.records as f64 / r.wall_ns * 1e3)
                .collect::<Vec<_>>()
        ));
        outcome.notes.push(format!("trace writes s: {setup:.3?}"));
        outcome.notes.push(format!(
            "{} reps of {} records ({TENANTS} tenants); metrics from the fastest {}, {} epoch pauses",
            plain.len(),
            opts.size.records,
            best.len(),
            pauses.len()
        ));
    }
    outcome.aliases = vec![
        Alias {
            metric: "ops_per_s",
            name: "replay_accesses_per_s",
            unit: "accesses/s",
        },
        Alias {
            metric: "latency_p50_us",
            name: "epoch_pause_p50_us",
            unit: "us",
        },
        Alias {
            metric: "latency_p99_us",
            name: "epoch_pause_p99_us",
            unit: "us",
        },
        Alias {
            metric: "miss_ratio",
            name: "online_miss_ratio",
            unit: "ratio",
        },
        Alias {
            metric: "setup_s",
            name: "setup_s",
            unit: "s",
        },
        Alias {
            metric: "peak_rss_mb",
            name: "peak_rss_mb",
            unit: "MiB",
        },
    ];
    Ok(outcome)
}
