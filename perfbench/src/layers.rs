//! Per-layer metrics derived from a traced run's spans and samples.
//!
//! Every value is per unit of workload work ("rep": one replay, one
//! served session, one sweep cycle). A layer's self time is the summed
//! self time of its spans plus, for per-access calls, calls × sampled
//! nanoseconds per call; `unattributed_ms` is the traced wall time that
//! no layer's self time covers.

use crate::stats::{median, quantile};
use crate::tracer::TraceData;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traceio.records", "count"),
    ("traceio.busy_ms", "ms"),
    ("traceio.ns_per_record", "ns"),
    ("hotl.observe_calls", "count"),
    ("hotl.observe_ns_per_call", "ns"),
    ("hotl.end_window_calls", "count"),
    ("hotl.end_window_us_p50", "us"),
    ("hotl.self_ms", "ms"),
    ("cachesim.access_calls", "count"),
    ("cachesim.access_ns_per_call", "ns"),
    ("cachesim.hit_ratio", "ratio"),
    ("cachesim.apply_calls", "count"),
    ("cachesim.repartition_ratio", "ratio"),
    ("cachesim.apply_us_p50", "us"),
    ("cachesim.self_ms", "ms"),
    ("core.solve_calls", "count"),
    ("core.solve_us_p50", "us"),
    ("core.solve_us_p99", "us"),
    ("core.group_eval_ms_p50", "ms"),
    ("core.dp_ms_p50", "ms"),
    ("core.natural_ms_p50", "ms"),
    ("core.sttw_ms_p50", "ms"),
    ("core.self_ms", "ms"),
    ("engine.epochs", "count"),
    ("engine.boundary_self_us_p50", "us"),
    ("engine.access_self_ns", "ns"),
    ("engine.self_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.push_batch_us_p50", "us"),
    ("serve.stats_rtt_us_p50", "us"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.frame_ns_p50", "ns"),
    ("serve.batch_drain_ns_p50", "ns"),
    ("serve.window_pauses", "count"),
    ("serve.dropped_records", "count"),
    ("serve.self_ms", "ms"),
    ("obs.journal_write_ms", "ms"),
    ("obs.journal_bytes", "bytes"),
    ("trace.gen_ms", "ms"),
    ("wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
];

/// The metrics every workload derives the same way from its trace.
/// `reps` is the number of traced reps. Workload-specific values
/// (generation time, daemon-side instruments, overhead) are added by
/// the caller.
pub fn from_trace(data: &TraceData, reps: usize) -> BTreeMap<&'static str, f64> {
    let reps = reps.max(1) as f64;
    let per_rep = |v: f64| v / reps;
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let sum = |v: Vec<f64>| v.iter().fold(0.0, |a, b| a + b);
    let mut m = BTreeMap::new();

    let io = data.sampled("traceio.next");
    let observe = data.sampled("hotl.observe");
    let access = data.sampled("cachesim.access");
    let outer = data.sampled("engine.record_access");
    // Record reads and record_access calls are timed in blocks (see
    // `replay::drive_traced`), so a block's one clock cost is noise.
    // An empty clock pair timed beside the single-call samples.
    let clock_ns = data.sampled("clock.pair").mean_ns();
    let io_ns = io.mean_ns();
    let observe_ns = observe.ns_per_call(clock_ns);
    let access_ns = access.ns_per_call(clock_ns);
    // What record_access spends outside observe and access. Single-call
    // samples overstate those two, so this can read below zero.
    let access_self_ns = if outer.samples == 0 {
        0.0
    } else {
        outer.mean_ns() - observe_ns - access_ns
    };
    let spans = data.span_self_by_layer();
    let span_self = |layer: &str| spans.get(layer).copied().unwrap_or(0.0);

    let traceio_ns = io.calls as f64 * io_ns;
    let hotl_ns = span_self("hotl") + observe.calls as f64 * observe_ns;
    let cachesim_ns = span_self("cachesim") + access.calls as f64 * access_ns;
    let engine_ns = span_self("engine") + outer.calls as f64 * access_self_ns;
    let layer_ns = [
        traceio_ns,
        hotl_ns,
        cachesim_ns,
        span_self("core"),
        engine_ns,
        span_self("serve"),
        span_self("obs"),
        span_self("trace"),
    ];

    m.insert("traceio.records", per_rep(io.calls as f64));
    m.insert("traceio.busy_ms", ms(per_rep(traceio_ns)));
    m.insert("traceio.ns_per_record", io_ns);

    m.insert("hotl.observe_calls", per_rep(observe.calls as f64));
    m.insert("hotl.observe_ns_per_call", observe_ns);
    let end_window = data.durations("hotl.end_window");
    m.insert("hotl.end_window_calls", per_rep(end_window.len() as f64));
    m.insert("hotl.end_window_us_p50", us(median(&end_window)));
    m.insert("hotl.self_ms", ms(per_rep(hotl_ns)));

    m.insert("cachesim.access_calls", per_rep(access.calls as f64));
    m.insert("cachesim.access_ns_per_call", access_ns);
    m.insert(
        "cachesim.hit_ratio",
        ratio(data.count("cachesim.hits"), data.count("cachesim.accesses")),
    );
    let apply = data.durations("cachesim.apply");
    m.insert("cachesim.apply_calls", per_rep(apply.len() as f64));
    m.insert(
        "cachesim.repartition_ratio",
        ratio(
            data.count("cachesim.applied"),
            data.count("cachesim.proposed"),
        ),
    );
    m.insert("cachesim.apply_us_p50", us(median(&apply)));
    m.insert("cachesim.self_ms", ms(per_rep(cachesim_ns)));

    let solve = data.durations("core.solve");
    m.insert("core.solve_calls", per_rep(solve.len() as f64));
    m.insert("core.solve_us_p50", us(median(&solve)));
    m.insert("core.solve_us_p99", us(quantile(&solve, 0.99)));
    m.insert(
        "core.group_eval_ms_p50",
        ms(median(&data.durations("core.group_eval"))),
    );
    m.insert("core.dp_ms_p50", ms(median(&data.durations("core.dp"))));
    m.insert(
        "core.natural_ms_p50",
        ms(median(&data.durations("core.natural"))),
    );
    m.insert("core.sttw_ms_p50", ms(median(&data.durations("core.sttw"))));
    m.insert("core.self_ms", ms(per_rep(span_self("core"))));

    m.insert(
        "engine.boundary_self_us_p50",
        us(median(&data.self_times("engine.boundary"))),
    );
    m.insert("engine.access_self_ns", access_self_ns);
    m.insert("engine.self_ms", ms(per_rep(engine_ns)));

    let push = data.durations("serve.push_batch");
    m.insert("serve.batches", per_rep(push.len() as f64));
    m.insert("serve.push_batch_us_p50", us(median(&push)));
    m.insert(
        "serve.stats_rtt_us_p50",
        us(median(&data.durations("serve.stats"))),
    );
    m.insert("serve.self_ms", ms(per_rep(span_self("serve"))));

    m.insert(
        "obs.journal_write_ms",
        ms(per_rep(sum(data.durations("obs.journal_write")))),
    );

    let wall = data.wall_ns();
    m.insert("wall_ms", ms(per_rep(wall)));
    m.insert(
        "unattributed_ms",
        ms(per_rep(wall - layer_ns.iter().sum::<f64>())),
    );
    m
}
