//! `table1-sweep`: the paper's Table-I sweep at its 1024-unit geometry.
//!
//! The study is a fixed prefix of the 16-program spec-like set, each
//! program's generator seed offset by the benchmark seed. Every cycle
//! builds the study (the set-up), calls the library's parallel sweep
//! entry point once — three C = 1024 DPs per 4-program group, no
//! access path, no wire — and then evaluates each group alone, which
//! gives the per-group latency and checks the parallel sweep against
//! the serial evaluation. Calling the sweep entry point, rather than
//! looping over groups here, is what lets a parallel sweep show on a
//! multi-core host.

use crate::adapter;
use crate::stats::{fastest, least_disturbed, mean, median, quantile};
use crate::tracer::Tracer;
use crate::{layers, Alias, Opts, Outcome};
use std::time::{Duration, Instant};

/// The seed whose full-size Table I rows are pinned below.
const PINNED_SEED: u64 = 0;
/// Table I rows of the seed-0 study at full size, recorded when the
/// benchmark was introduced. An exact optimisation leaves them
/// unchanged.
const PINNED_ROWS: &[&str] = &[
    "Equal max=112.94933936233456 mean=36.06901567000246 median=15.381735050111732 ge10=0.6285714285714286 ge20=0.45714285714285713",
    "Equal baseline max=109.26687510667948 mean=32.42966060043153 median=10.665655096540782 ge10=0.5142857142857142 ge20=0.45714285714285713",
    "Natural max=129.8191130029392 mean=40.955186006611854 median=17.847172537586587 ge10=0.7714285714285715 ge20=0.4857142857142857",
    "Natural baseline max=118.58557106860599 mean=33.6092918783631 median=8.99835696817557 ge10=0.4857142857142857 ge20=0.45714285714285713",
    "STTW max=52.707578060695994 mean=13.702419222433818 median=9.771913398105237 ge10=0.4857142857142857 ge20=0.2571428571428571",
];

/// What one cycle produced.
struct Cycle {
    sweep_s: f64,
    groups: usize,
    /// Wall time of each single-group evaluation.
    group_ns: Vec<f64>,
    rows: Vec<String>,
    /// Groups whose serial evaluation differs from the sweep's.
    mismatched: usize,
    optimal_miss_ratio: f64,
}

fn cycle(study: &adapter::Study, tracer: Option<&Tracer>) -> Cycle {
    let span = |name: &'static str| tracer.map(|t| t.enter(name));
    let _root = span("run.sweep");
    let start = Instant::now();
    let evaluations = {
        let _s = span("core.sweep");
        adapter::sweep(study)
    };
    let sweep_s = start.elapsed().as_secs_f64();
    let groups = adapter::groups(study);
    let mut group_ns = Vec::with_capacity(groups.len());
    let mut mismatched = 0;
    for (group, swept) in groups.iter().zip(&evaluations) {
        let start = Instant::now();
        let alone = {
            let _s = span("core.group_eval");
            adapter::evaluate_group(study, group)
        };
        group_ns.push(start.elapsed().as_nanos() as f64);
        if adapter::evaluation_key(&alone) != adapter::evaluation_key(swept) {
            mismatched += 1;
        }
        if let Some(t) = tracer {
            adapter::time_group_parts(study, group, t);
        }
    }
    let optimal: Vec<f64> = evaluations
        .iter()
        .map(adapter::optimal_miss_ratio)
        .collect();
    Cycle {
        sweep_s,
        groups: evaluations.len(),
        group_ns,
        rows: adapter::table1_rows(study, &evaluations),
        mismatched,
        optimal_miss_ratio: mean(&optimal),
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let size = opts.size;
    let specs = adapter::study_specs(size.study_programs, size.study_trace_len, opts.seed);
    let tracer = Tracer::new();
    let mut setup = Vec::new();
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    // Every cycle builds its study afresh, so the set-up samples are
    // spread over the whole run like the sweep's own, and the rows
    // check also covers the build.
    while plain.is_empty() || (opts.trace && traced.is_empty()) || Instant::now() < deadline {
        let start = Instant::now();
        let study = adapter::build_study(&specs, size.study_units);
        setup.push(start.elapsed().as_secs_f64());
        if opts.trace && traced.len() < plain.len() {
            traced.push(cycle(&study, Some(&tracer)));
        } else {
            plain.push(cycle(&study, None));
        }
    }
    let rss_mb = crate::peak_rss_mb(None)?;

    let mut outcome = Outcome::default();
    let rows = plain[0].rows.clone();
    for c in plain.iter().chain(&traced) {
        let ops = (c.groups + c.group_ns.len()) as u64;
        outcome.attempted += ops;
        outcome.check(c.rows == rows && c.mismatched == 0, ops, || {
            format!(
                "cycle diverged: {} groups evaluated alone differ from the sweep; rows {}",
                c.mismatched,
                if c.rows == rows { "agree" } else { "differ" }
            )
        });
    }
    if size.pinned {
        let pinned = if opts.seed == PINNED_SEED {
            rows.clone()
        } else {
            let specs =
                adapter::study_specs(size.study_programs, size.study_trace_len, PINNED_SEED);
            let study = adapter::build_study(&specs, size.study_units);
            adapter::table1_rows(&study, &adapter::sweep(&study))
        };
        outcome.check(pinned == PINNED_ROWS, outcome.attempted, || {
            format!(
                "seed-{PINNED_SEED} Table I rows differ from the pinned rows:\n    {}",
                pinned.join("\n    ")
            )
        });
    }
    outcome.notes.push(format!(
        "{} programs, {} groups at {} units; Table I rows:",
        size.study_programs, plain[0].groups, size.study_units
    ));
    outcome.notes.extend(rows.iter().map(|r| format!("  {r}")));

    if opts.trace {
        let data = tracer.data();
        outcome.metrics = layers::from_trace(&data, traced.len());
        let gen_start = Instant::now();
        for spec in &specs {
            std::hint::black_box(adapter::generate_program(spec));
        }
        let m = &mut outcome.metrics;
        m.insert("trace.gen_ms", gen_start.elapsed().as_secs_f64() * 1e3);
        let wall = |v: &[Cycle]| {
            let walls: Vec<f64> = v
                .iter()
                .map(|c| c.sweep_s * 1e9 + c.group_ns.iter().sum::<f64>())
                .collect();
            median(&walls)
        };
        m.insert("trace_overhead_ms", (wall(&traced) - wall(&plain)) / 1e6);
        let spans = opts
            .work
            .join(format!("spans-sweep-seed{}.jsonl", opts.seed));
        data.write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        outcome
            .notes
            .push(format!("spans written to {}", spans.display()));
    } else {
        let sweep_best = least_disturbed(&plain, 4, |c| c.sweep_s);
        let eval_best = least_disturbed(&plain, 4, |c| c.group_ns.iter().sum::<f64>());
        let rates: Vec<f64> = sweep_best
            .iter()
            .map(|c| c.groups as f64 / c.sweep_s)
            .collect();
        let latencies: Vec<f64> = eval_best
            .iter()
            .flat_map(|c| c.group_ns.iter().copied())
            .collect();
        let m = &mut outcome.metrics;
        m.insert("ops_per_s", median(&rates));
        m.insert("latency_p50_us", median(&latencies) / 1e3);
        m.insert("latency_p99_us", quantile(&latencies, 0.99) / 1e3);
        m.insert("miss_ratio", plain[0].optimal_miss_ratio);
        m.insert("setup_s", fastest(&setup));
        m.insert("peak_rss_mb", rss_mb);
        outcome.notes.push(format!(
            "groups/s by sweep: {:.1?}",
            plain
                .iter()
                .map(|c| c.groups as f64 / c.sweep_s)
                .collect::<Vec<_>>()
        ));
        outcome.notes.push(format!("study builds s: {setup:.3?}"));
        outcome.notes.push(format!(
            "{} cycles; rate from the fastest {} sweeps, latency from {} evaluations in the fastest {} cycles, set-up the fastest build",
            plain.len(),
            sweep_best.len(),
            latencies.len(),
            eval_best.len()
        ));
    }
    outcome.aliases = vec![
        Alias {
            metric: "ops_per_s",
            name: "sweep_groups_per_s",
            unit: "groups/s",
        },
        Alias {
            metric: "latency_p50_us",
            name: "group_eval_p50_us",
            unit: "us",
        },
        Alias {
            metric: "latency_p99_us",
            name: "group_eval_p99_us",
            unit: "us",
        },
        Alias {
            metric: "miss_ratio",
            name: "optimal_group_miss_ratio",
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
