//! `served-loopback`: the same stream through the shipped `cps serve`.
//!
//! Each session spawns the daemon as a child process (128 × 1-block
//! units, epoch 5000), connects one client and drives it in two phases:
//!
//! * **bulk** — a closed loop of back-to-back `push_batch` calls over
//!   the first three quarters of the stream, ended by a STATS barrier;
//! * **paced** — an open loop over the rest at a fixed offered rate:
//!   every tick sends one batch and then STATS, which the daemon answers
//!   only after that batch is ingested. Ticks are due on a fixed
//!   schedule that does not slow when the daemon does; each ack is
//!   timed from its batch's due time, so a stall is also charged to the
//!   batches it delays, and the generator reports how late it ran.
//!
//! The client is this one thread and one connection. This is the only
//! workload that runs the wire codec, the event loop, the sequencing
//! window and the pump handoff.

use crate::adapter::{self, Session};
use crate::stats::{fastest, histogram_quantile, least_disturbed, median, quantile};
use crate::tracer::Tracer;
use crate::{layers, Alias, Opts, Outcome};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::replay::{EPOCH, UNITS};

const BULK_BATCH: usize = 1_024;
const PACED_BATCH: usize = 1_024;
/// One paced batch per tick: 1024 records per millisecond offers
/// 1.02 M accesses/s, about a sixth of the bulk rate. At twice that, a
/// batch that closes an epoch took about a whole tick, so a slow phase
/// of the host delayed the batches after it too, and the p99 of ten
/// runs spread 0.33.
const PACED_TICK: Duration = Duration::from_millis(1);
/// The paced-phase ack latency limit at p99.
const ACK_LIMIT_US: f64 = 5_000.0;
const DAEMON_START_LIMIT: Duration = Duration::from_secs(20);

/// A daemon child that is killed and reaped however the session ends.
struct Daemon(Option<Child>);

impl Daemon {
    fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, Child::id)
    }

    /// Waits for a clean exit after SHUTDOWN.
    fn wait(mut self) -> Result<(), String> {
        let mut child = self.0.take().expect("daemon waited once");
        let status = child
            .wait()
            .map_err(|e| format!("wait for cps serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("cps serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts `cps serve` and returns it with its bound address.
fn spawn_daemon(cps: &Path, work: &Path, n: usize) -> Result<(Daemon, String), String> {
    let port_file = work.join(format!("serve-{}-{n}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let log =
        std::fs::File::create(work.join("serve.log")).map_err(|e| format!("serve.log: {e}"))?;
    let child = Command::new(cps)
        .args(["serve", "--tenants", "4", "--units"])
        .arg(UNITS.to_string())
        .args(["--bpu", "1", "--epoch"])
        .arg(EPOCH.to_string())
        .args(["--port", "auto", "--port-file"])
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cps.display()))?;
    let mut daemon = Daemon(Some(child));
    let deadline = Instant::now() + DAEMON_START_LIMIT;
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Some((_, port)) = text.trim().rsplit_once(':') {
                if port.parse::<u16>().is_ok() {
                    let _ = std::fs::remove_file(&port_file);
                    return Ok((daemon, text.trim().to_string()));
                }
            }
        }
        if let Some(child) = daemon.0.as_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("cps serve exited early with {status}"));
            }
        }
        if Instant::now() > deadline {
            return Err("cps serve did not report its port".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sleeps until `due`, spinning through the last stretch so the send
/// is not late by a timer's slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What one session measured.
struct SessionOut {
    setup_s: f64,
    wall_ns: f64,
    bulk_rate: f64,
    acks_ns: Vec<f64>,
    max_lag_ns: f64,
    batches: u64,
    ingested: u64,
    identity: String,
    rss_mb: f64,
    daemon: DaemonMetrics,
}

#[derive(Default)]
struct DaemonMetrics {
    frame_ns_p50: f64,
    batch_drain_ns_p50: f64,
    window_pauses: f64,
    dropped_records: f64,
}

/// Reads the daemon-side instruments from a registry snapshot.
fn daemon_metrics(jsonl: &str) -> DaemonMetrics {
    let mut m = DaemonMetrics::default();
    for line in jsonl.lines() {
        let Ok(v) = adapter::parse_json(line) else {
            continue;
        };
        let name = v.get("metric").and_then(|n| n.as_str()).unwrap_or("");
        let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
        let p50 = || {
            let buckets: Vec<(u64, u64)> = v
                .get("buckets")
                .and_then(|b| b.as_array())
                .unwrap_or(&[])
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                })
                .collect();
            histogram_quantile(&buckets, 0.5)
        };
        match name {
            "cps_serve_frame_nanos" => m.frame_ns_p50 = p50(),
            "cps_serve_batch_drain_nanos" => m.batch_drain_ns_p50 = p50(),
            "cps_serve_window_pauses_total" => m.window_pauses = value,
            "cps_serve_dropped_records_total" => m.dropped_records = value,
            _ => {}
        }
    }
    m
}

fn session(
    opts: &Opts,
    n: usize,
    stream: &[(u64, u64)],
    tracer: Option<&Tracer>,
) -> Result<SessionOut, String> {
    let span = |name: &'static str| tracer.map(|t| t.enter(name));
    let start = Instant::now();
    let (daemon, addr) = spawn_daemon(&opts.cps, &opts.work, n)?;
    let mut client = Session::connect(&addr)?;
    let setup_s = start.elapsed().as_secs_f64();

    let split = stream.len() - stream.len() / 4;
    let (bulk, paced) = stream.split_at(split);
    let root = span("run.served");
    let bulk_start = Instant::now();
    let mut batches = 0u64;
    for chunk in bulk.chunks(BULK_BATCH) {
        let _s = span("serve.push_batch");
        client.push_batch(chunk)?;
        batches += 1;
    }
    {
        let _s = span("serve.stats");
        client.stats()?;
    }
    let bulk_rate = bulk.len() as f64 / bulk_start.elapsed().as_secs_f64();

    let mut acks_ns = Vec::with_capacity(paced.len() / PACED_BATCH + 1);
    let mut max_lag_ns = 0f64;
    let first_due = Instant::now() + PACED_TICK;
    for (k, chunk) in paced.chunks(PACED_BATCH).enumerate() {
        let due = first_due + PACED_TICK * k as u32;
        {
            let _s = span("serve.pace_wait");
            wait_until(due);
        }
        max_lag_ns = max_lag_ns.max((Instant::now() - due).as_nanos() as f64);
        {
            let _s = span("serve.push_batch");
            client.push_batch(chunk)?;
        }
        {
            let _s = span("serve.stats");
            client.stats()?;
        }
        acks_ns.push((Instant::now() - due).as_nanos() as f64);
        batches += 1;
    }
    drop(root);
    let wall_ns = (Instant::now() - bulk_start).as_nanos() as f64;

    let ingested = client.stats()?.records;
    let daemon_side = daemon_metrics(&client.snapshot()?);
    let rss_mb = crate::peak_rss_mb(Some(daemon.id()))?;
    let journal = client.shutdown()?;
    daemon.wait()?;
    let identity = adapter::identity_of_journal_text(&journal)?;
    Ok(SessionOut {
        setup_s,
        wall_ns,
        bulk_rate,
        acks_ns,
        max_lag_ns,
        batches,
        ingested,
        identity,
        rss_mb,
        daemon: daemon_side,
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    if !opts.cps.is_file() {
        return Err(format!("no cps binary at {}", opts.cps.display()));
    }
    let gen_start = Instant::now();
    let generated = adapter::standard_stream(opts.seed, opts.size.records);
    let gen_ns = gen_start.elapsed().as_nanos() as f64;
    let stream: Vec<(u64, u64)> = generated.iter().map(|&(t, b)| (t as u64, b)).collect();
    // The replay-small-cache run of the same stream, in process: every
    // served journal must be report-identical to it.
    let config = adapter::engine_config(UNITS, EPOCH);
    let report = adapter::replay_in_process(&config, &generated);
    let expected = adapter::identity_of_report(&adapter::run_header(&config), &report);
    let miss_ratio = adapter::miss_ratio(&report);
    drop((generated, report));

    let tracer = Tracer::new();
    let mut plain: Vec<SessionOut> = Vec::new();
    let mut traced: Vec<SessionOut> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut n = 0;
    while plain.is_empty() || (opts.trace && traced.is_empty()) || Instant::now() < deadline {
        n += 1;
        if opts.trace && traced.len() < plain.len() {
            traced.push(session(opts, n, &stream, Some(&tracer))?);
        } else {
            plain.push(session(opts, n, &stream, None)?);
        }
    }

    let mut outcome = Outcome::default();
    for s in plain.iter().chain(&traced) {
        outcome.attempted += s.batches;
        let ok = s.ingested == stream.len() as u64 && s.identity == expected;
        outcome.check(ok, s.batches, || {
            format!(
                "session ingested {} of {} records; journal {} the in-process replay",
                s.ingested,
                stream.len(),
                if s.identity == expected {
                    "matches"
                } else {
                    "differs from"
                }
            )
        });
    }
    outcome.notes.push(format!(
        "{} sessions; every journal checked against the in-process replay",
        plain.len() + traced.len()
    ));

    if opts.trace {
        let data = tracer.data();
        outcome.metrics = layers::from_trace(&data, traced.len());
        let med =
            |f: &dyn Fn(&SessionOut) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let m = &mut outcome.metrics;
        m.insert("serve.generator_lag_ms", med(&|s| s.max_lag_ns) / 1e6);
        m.insert("serve.frame_ns_p50", med(&|s| s.daemon.frame_ns_p50));
        m.insert(
            "serve.batch_drain_ns_p50",
            med(&|s| s.daemon.batch_drain_ns_p50),
        );
        m.insert("serve.window_pauses", med(&|s| s.daemon.window_pauses));
        m.insert("serve.dropped_records", med(&|s| s.daemon.dropped_records));
        m.insert("trace.gen_ms", gen_ns / 1e6);
        let wall = |v: &[SessionOut]| median(&v.iter().map(|s| s.wall_ns).collect::<Vec<_>>());
        m.insert("trace_overhead_ms", (wall(&traced) - wall(&plain)) / 1e6);
        let spans = opts
            .work
            .join(format!("spans-served-seed{}.jsonl", opts.seed));
        data.write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        outcome
            .notes
            .push(format!("spans written to {}", spans.display()));
    } else {
        let bulk_best = least_disturbed(&plain, 4, |s| -s.bulk_rate);
        // A stall burst raises the p99 of the sessions it hits, and in a
        // busy phase most sessions are hit, so the acks come from the
        // eighth of sessions with the lowest p99 of their own.
        let p99s: Vec<f64> = plain
            .iter()
            .map(|s| quantile(&s.acks_ns, 0.99) / 1e3)
            .collect();
        let ack_best = least_disturbed(&plain, 8, |s| quantile(&s.acks_ns, 0.99));
        let acks: Vec<f64> = ack_best
            .iter()
            .flat_map(|s| s.acks_ns.iter().copied())
            .collect();
        let p99_us = quantile(&acks, 0.99) / 1e3;
        let med = |f: &dyn Fn(&SessionOut) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        let rates: Vec<f64> = bulk_best.iter().map(|s| s.bulk_rate).collect();
        let m = &mut outcome.metrics;
        m.insert("ops_per_s", median(&rates));
        m.insert("latency_p50_us", median(&acks) / 1e3);
        m.insert("latency_p99_us", p99_us);
        m.insert("miss_ratio", miss_ratio);
        let setups: Vec<f64> = plain.iter().map(|s| s.setup_s).collect();
        m.insert("setup_s", fastest(&setups));
        m.insert("peak_rss_mb", med(&|s| s.rss_mb));
        let rates: Vec<f64> = plain.iter().map(|s| s.bulk_rate / 1e6).collect();
        outcome
            .notes
            .push(format!("bulk M accesses/s by session: {rates:.2?}"));
        let all: Vec<f64> = plain
            .iter()
            .flat_map(|s| s.acks_ns.iter().copied())
            .collect();
        outcome.notes.push(format!(
            "ack p99 over every session: {:.0} us (includes the stalls the least-delayed sessions leave out)",
            quantile(&all, 0.99) / 1e3
        ));
        outcome
            .notes
            .push(format!("ack p99 us by session: {p99s:.0?}"));
        outcome.notes.push(format!(
            "rates from the fastest {} bulk phases; acks from the {} sessions with the lowest ack p99",
            bulk_best.len(),
            ack_best.len()
        ));
        outcome.notes.push(format!(
            "paced phase: {} acks at {:.2} M accesses/s offered; p99 {p99_us:.0} us {} the {ACK_LIMIT_US:.0} us limit; generator ran up to {:.3} ms late",
            acks.len(),
            PACED_BATCH as f64 / PACED_TICK.as_secs_f64() / 1e6,
            if p99_us <= ACK_LIMIT_US { "meets" } else { "misses" },
            med(&|s| s.max_lag_ns) / 1e6
        ));
    }
    outcome.aliases = vec![
        Alias {
            metric: "ops_per_s",
            name: "served_accesses_per_s",
            unit: "accesses/s",
        },
        Alias {
            metric: "latency_p50_us",
            name: "served_ack_p50_us",
            unit: "us",
        },
        Alias {
            metric: "latency_p99_us",
            name: "served_ack_p99_us",
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
