//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <replay-small-cache|served-loopback|table1-sweep>
//!           --seed N --seconds S --trace <0|1> --cps PATH --work DIR
//! perfbench --self-test --cps PATH --work DIR
//! ```
//!
//! `perfbench/run.sh` builds the `cps` binary and this package and
//! passes `--cps` and `--work`. A run prints its metrics by name with
//! their units, then, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed output check still prints the result and then
//! exits 1; a run that cannot measure at all exits 2 without a result.
//! NOTES.md says why each workload exists and what each metric means.

mod adapter;
mod layers;
mod replay;
mod served;
mod stats;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The end-to-end metrics with their units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("miss_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const WORKLOADS: &[&str] = &["replay-small-cache", "served-loopback", "table1-sweep"];

/// How much work one rep of each workload does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Records in the replayed and served stream.
    pub records: usize,
    /// Leading programs of the spec-like study the sweep uses.
    pub study_programs: usize,
    /// Trace length per study program.
    pub study_trace_len: usize,
    /// Cache units of the sweep geometry (1 block each).
    pub study_units: usize,
    /// Whether the pinned reference outputs apply at this size.
    pub pinned: bool,
}

/// The measured size.
pub const FULL: Size = Size {
    records: 2_000_000,
    study_programs: 7,
    study_trace_len: 400_000,
    study_units: 1024,
    pinned: true,
};

/// The self-test size: every code path, a fraction of a second each.
const TINY: Size = Size {
    records: 40_000,
    study_programs: 5,
    study_trace_len: 20_000,
    study_units: 64,
    pinned: false,
};

/// Everything a workload run needs.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cps: PathBuf,
    pub work: PathBuf,
    pub size: Size,
}

/// One end-to-end metric under the name the workload gives it.
pub struct Alias {
    pub metric: &'static str,
    pub name: &'static str,
    pub unit: &'static str,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: records, batches or groups.
    pub attempted: u64,
    /// Operations in a rep whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Metric values by JSON name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own names for the end-to-end metrics.
    pub aliases: Vec<Alias>,
    /// Extra report lines (sample counts, limits, checks passed).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, ops: u64, problem: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.problems.push(problem());
        }
    }
}

fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("create {}: {e}", opts.work.display()))?;
    match name {
        "replay-small-cache" => replay::run(opts),
        "served-loopback" => served::run(opts),
        "table1-sweep" => sweep::run(opts),
        other => Err(format!(
            "unknown workload {other} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The metric table a run reports, each with its unit.
fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        layers::PER_LAYER
    } else {
        END_TO_END
    }
}

fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for &(name, unit) in table(trace) {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    ))
}

fn print_report(workload: &str, opts: &Opts, outcome: &Outcome, host: &Host) {
    println!(
        "workload {workload}, seed {}, trace {}",
        opts.seed,
        u8::from(opts.trace)
    );
    println!(
        "host: {} cores, {}, commit {}, source digest {:016x}",
        host.cores, host.rustc, host.commit, host.source_digest
    );
    for &(metric, unit) in table(opts.trace) {
        let value = outcome.metrics.get(metric).copied().unwrap_or(0.0);
        match outcome.aliases.iter().find(|a| a.metric == metric) {
            Some(a) => println!("  {:<26} {value:>16.6} {:<10} ({metric})", a.name, a.unit),
            None => println!("  {metric:<26} {value:>16.6} {unit}"),
        }
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<26} {error_rate:>16.6} ratio      ({} of {} operations failed)",
        "error_rate", outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
}

/// Peak resident set (VmHWM) of this process or of `pid`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The host and code a result was measured on.
struct Host {
    cores: usize,
    rustc: String,
    commit: String,
    source_digest: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host() -> Host {
    let cwd = std::env::current_dir().ok();
    // Only trust git when this directory is itself the repository root;
    // an exported checkout has no commit of its own.
    let commit = command_line("git", &["rev-parse", "--show-toplevel"])
        .filter(|top| cwd.as_deref() == Some(Path::new(top)))
        .and_then(|_| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    Host {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "rustc unknown".to_string()),
        commit,
        source_digest: source_digest(),
    }
}

/// FNV-1a over the paths and contents of the sources that build the
/// measured program, so a result names its code even without git.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files: Vec<PathBuf> = [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ]
    .into_iter()
    .map(PathBuf::from)
    .collect();
    for dir in ["src", "crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(content) = std::fs::read(&f) {
            bytes.extend_from_slice(f.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
    stats::fnv1a(&bytes)
}

fn save_result(workload: &str, opts: &Opts, host: &Host, json: &str) -> std::io::Result<PathBuf> {
    let path = opts.work.join(format!(
        "result-{workload}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    let text = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\"host\":{{\"cores\":{},\
         \"rustc\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{:016x}\"}},\"result\":{json}}}\n",
        opts.seed,
        u8::from(opts.trace),
        host.cores,
        host.rustc,
        host.commit,
        host.source_digest
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Runs every workload at [`TINY`] size in both modes and checks that
/// each metric `BENCHMARK.json` names is emitted with its unit.
fn self_test(cps: PathBuf, work: PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let spec = adapter::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<(String, String)>, String> {
        let list = spec
            .get(key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
        Ok(list
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect())
    };
    let declared: Vec<String> = names("workloads")?.into_iter().map(|w| w.0).collect();
    if declared != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {declared:?} != {WORKLOADS:?}"
        ));
    }
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.5,
                trace,
                cps: cps.clone(),
                work: work.clone(),
                size: TINY,
            };
            let outcome = run_workload(workload, &opts)?;
            let json = result_json(&outcome, trace)?;
            let parsed = adapter::parse_json(&json).map_err(|e| format!("result: {e}"))?;
            let metrics = parsed.get("metrics").ok_or("result has no metrics")?;
            for (name, unit) in names(if trace { "per_layer" } else { "end_to_end" })? {
                let got = metrics
                    .get(&name)
                    .and_then(|m| m.get("unit"))
                    .and_then(|u| u.as_str());
                if got != Some(unit.as_str()) {
                    problems.push(format!(
                        "{workload} trace {trace}: {name} [{unit}] got {got:?}"
                    ));
                }
            }
            for p in outcome.problems {
                problems.push(format!("{workload} trace {trace}: {p}"));
            }
            println!("self-test {workload} trace {}: {json}", u8::from(trace));
        }
    }
    if problems.is_empty() {
        println!("self-test OK: every declared metric is emitted with its unit");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    cps: PathBuf,
    work: PathBuf,
    self_test: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        cps: PathBuf::new(),
        work: PathBuf::new(),
        self_test: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            cli.self_test = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--cps" => cli.cps = PathBuf::from(&value),
            "--work" => cli.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.cps.as_os_str().is_empty() || cli.work.as_os_str().is_empty() {
        return Err("--cps and --work are required (perfbench/run.sh passes them)".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.self_test {
        return match self_test(cli.cps, cli.work) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench self-test FAILED:\n{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = cli.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        cps: cli.cps,
        work: cli.work,
        size: FULL,
    };
    let outcome = match run_workload(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let json = match result_json(&outcome, opts.trace) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host();
    print_report(&workload, &opts, &outcome, &host);
    match save_result(&workload, &opts, &host, &json) {
        Ok(path) => println!("  result saved to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not save the result: {e}"),
    }
    println!("{json}");
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
