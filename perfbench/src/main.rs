//! End-to-end and per-layer benchmark of the robust-RSN system.
//!
//! ```text
//! rsn-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! rsn-perfbench steady --workload NAME [--runs N] [--seconds S] [--first-seed N]
//! ```
//!
//! The first form runs one workload for about `S` seconds of whole rounds,
//! checks every output against an independent computation or a property of
//! the method, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! describes the run (host, threads, commit, rustc, seeds, figures).
//!
//! The second form runs a workload `N` times with consecutive seeds and
//! prints each end-to-end metric's median and quartiles beside its bound
//! from `BENCHMARK.json`.

mod giant;
mod http;
mod json;
mod serve;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use trace::{median, Tracer};

/// Workload names, in the order of `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = ["table1-harden", "giant-sweep", "serve-inline", "serve-hot"];

/// End-to-end metrics: (name, unit). Every workload reports all of them.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s"), ("op_p50_ms", "ms")];

/// Per-layer metrics: (name, unit). A layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("rsn_model.parse_ms", "ms"),
    ("rsn_model.build_ms", "ms"),
    ("rsn_sp.tree_ms", "ms"),
    ("criticality.analyze_ms", "ms"),
    ("graph_analysis.sweep_ms", "ms"),
    ("graph_analysis.modes", "count"),
    ("graph_analysis.modes_per_s", "modes/s"),
    ("graph_analysis.threads", "count"),
    ("hardening.evaluate_ms", "ms"),
    ("hardening.evaluations", "count"),
    ("moea.spea2_self_ms", "ms"),
    ("moea.front_hv", "1"),
    ("validate.campaign_ms", "ms"),
    ("validate.modes", "count"),
    ("netkey.hash_ms", "ms"),
    ("wire.parse_request_ms", "ms"),
    ("wire.resolve_ms", "ms"),
    ("registry.resolve_ms", "ms"),
    ("wire.execute_ms", "ms"),
    ("workspace.build_ms", "ms"),
    ("workspace.whatif_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("server.cache_hit_ratio", "share"),
    ("server.cache_lookups", "count"),
    ("server.workspace_cache_hit_ratio", "share"),
    ("server.workspace_cache_lookups", "count"),
    ("server.p50_ms", "ms"),
    ("client.transport_p50_ms", "ms"),
    ("server.queue_rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Host hardware threads: the sweep thread count, server workers and
    /// client connections.
    pub nproc: usize,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (deduplicated).
    pub failures: Vec<String>,
    /// Failed output checks; any makes `correct` false.
    pub errors: Vec<String>,
    /// Set-up times of the repeated set-ups, in seconds.
    pub setups_s: Vec<f64>,
    /// Wall times of the untraced rounds, in seconds.
    pub rounds_s: Vec<f64>,
    /// Wall times of the traced rounds (traced runs only), in seconds.
    pub traced_rounds_s: Vec<f64>,
    /// Latency of the untraced operations, in milliseconds.
    pub ops_ms: trace::Samples,
    /// Per-layer metric values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the run description.
    pub figures: BTreeMap<&'static str, f64>,
    /// Run settings for the run description (threads, workers, sizes).
    pub about: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
    }

    pub fn fail(&mut self, cause: String) {
        self.failed += 1;
        if !self.failures.contains(&cause) {
            self.failures.push(cause);
        }
    }
}

/// Runs whole rounds for `ctx.seconds` (half untraced, half traced in a
/// traced run) and records their wall times. `round` gets the round index,
/// which keeps counting across the two halves, and the tracer to use.
pub fn run_rounds(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
    mut round: impl FnMut(usize, &Tracer, &mut Outcome),
) {
    let off = Tracer::new(false);
    let budget = Duration::from_secs_f64(if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds });
    let mut r = 0;
    let mut phase = |tr: &Tracer, out: &mut Outcome, traced: bool| {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            round(r, tr, out);
            let secs = t.elapsed().as_secs_f64();
            if traced {
                out.traced_rounds_s.push(secs);
            } else {
                out.rounds_s.push(secs);
            }
            r += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
    };
    phase(&off, out, false);
    if ctx.trace {
        phase(tracer, out, true);
    }
}

/// SplitMix64: derives well-spread seeds from a run seed and a counter.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Times one set-up and returns its result.
pub fn timed_setup<T>(out: &mut Outcome, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let value = setup();
    out.setups_s.push(t.elapsed().as_secs_f64());
    value
}

/// Times `reps` further set-ups and drops each result. Workloads call this
/// after their measured rounds, so that the reported median set-up comes
/// from a warm process: the first milliseconds of a process run at a
/// visibly different speed on the reference host.
pub fn repeat_setups<T>(reps: usize, out: &mut Outcome, mut setup: impl FnMut() -> T) {
    for _ in 0..reps {
        drop(timed_setup(out, &mut setup));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady(&args[1..]),
        Some("child-deep-sib") => {
            giant::child_deep_sib();
            Ok(())
        }
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value {v:?} for {name}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    let seconds: f64 = parse_flag(args, "--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match parse_flag::<u8>(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let ctx = Ctx {
        seed: parse_flag(args, "--seed", 1)?,
        seconds,
        trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let tracer = Tracer::new(trace);
    let mut out = match workload.as_str() {
        "table1-harden" => table1::run(&ctx, &tracer),
        "giant-sweep" => giant::run(&ctx, &tracer),
        "serve-inline" => serve::run_inline(&ctx, &tracer),
        "serve-hot" => serve::run_hot(&ctx, &tracer),
        _ => unreachable!("checked above"),
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        let plain = median(&out.rounds_s);
        let traced = median(&out.traced_rounds_s);
        out.layers.insert("trace.overhead_pct", (traced - plain) / plain * 100.0);
        out.layers.insert("trace.spans", tracer.span_count() as f64);
        for (name, unit) in PER_LAYER {
            metrics.push((name, out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{workload}-seed{}.jsonl",
            ctx.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => {
                out.about.insert("trace_file", path.display().to_string());
            }
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    } else {
        let values = [
            median(&out.setups_s),
            trace::peak_rss_mb(),
            median(&out.rounds_s),
            median(out.ops_ms.values()),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    for &(name, value, _) in &metrics {
        out.check(value.is_finite(), || format!("metric {name} is not a number ({value})"));
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }

    println!("{}", describe(&workload, &ctx, &out));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
    Ok(())
}

/// The run's self-description: host, threads, commit, toolchain, seeds,
/// operations, and the workload's own figures.
fn describe(workload: &str, ctx: &Ctx, out: &Outcome) -> String {
    let command_line = |program: &str, args: &[&str]| {
        // Keep `git` from searching above the working directory: the run
        // reads nothing outside its checkout.
        let here = std::env::current_dir().unwrap_or_default();
        let ceiling = here.parent().unwrap_or(&here).to_path_buf();
        Command::new(program)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let mut fields = vec![
        format!("\"workload\": {}", http::json_string(workload)),
        format!("\"seed\": {}", ctx.seed),
        format!("\"seconds\": {}", ctx.seconds),
        format!("\"trace\": {}", u8::from(ctx.trace)),
        format!("\"nproc\": {}", ctx.nproc),
        format!("\"commit\": {}", http::json_string(&command_line("git", &["rev-parse", "HEAD"]))),
        format!("\"rustc\": {}", http::json_string(&command_line("rustc", &["--version"]))),
        format!("\"setups\": {}", out.setups_s.len()),
        format!("\"rounds\": {}", out.rounds_s.len() + out.traced_rounds_s.len()),
        format!(
            "\"round_s_quartiles\": [{}, {}, {}]",
            trace::quantile(&out.rounds_s, 0.25),
            median(&out.rounds_s),
            trace::quantile(&out.rounds_s, 0.75)
        ),
        format!("\"attempted\": {}", out.attempted),
        format!("\"failed\": {}", out.failed),
    ];
    let failures: Vec<String> = out.failures.iter().map(|f| http::json_string(f)).collect();
    fields.push(format!("\"failures\": [{}]", failures.join(", ")));
    for (k, v) in &out.about {
        fields.push(format!("\"{k}\": {}", http::json_string(v)));
    }
    let figures: Vec<String> = out
        .figures
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    fields.push(format!("\"figures\": {{{}}}", figures.join(", ")));
    format!("{{\"run\": {{{}}}}}", fields.join(", "))
}

#[derive(serde::Deserialize)]
struct BenchFile {
    end_to_end: Vec<BoundSpec>,
}

#[derive(serde::Deserialize)]
struct BoundSpec {
    name: String,
    bound: f64,
}

/// Runs one workload `--runs` times with consecutive seeds and prints each
/// end-to-end metric's median, quartiles and quartile spread (as a share of
/// the median) beside its bound.
fn steady(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let runs: usize = parse_flag(args, "--runs", 10)?;
    let seconds: u64 = parse_flag(args, "--seconds", 10)?;
    let first_seed: u64 = parse_flag(args, "--first-seed", 1)?;
    let bounds: BTreeMap<String, f64> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str::<BenchFile>(&text).ok())
        .map(|b| b.end_to_end.into_iter().map(|m| (m.name, m.bound)).collect())
        .unwrap_or_default();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for i in 0..runs {
        let seed = first_seed + i as u64;
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("starting run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !output.status.success() || !last.contains("\"correct\": true") {
            return Err(format!("run with seed {seed} failed: {last}"));
        }
        let attempted = number_after(&last, "\"attempted\": ").unwrap_or(f64::NAN);
        let failed = number_after(&last, "\"failed\": ").unwrap_or(f64::NAN);
        shares.push(failed / attempted);
        let mut line = format!("seed {seed:>3}:");
        for (name, _) in END_TO_END {
            let v = number_after(&last, &format!("\"{name}\": {{\"value\": ")).unwrap_or(f64::NAN);
            values.entry(name.to_string()).or_default().push(v);
            line.push_str(&format!(" {name}={v:.4}"));
        }
        println!("{line}");
    }
    println!("failed share per run: {shares:?}");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, _) in END_TO_END {
        let v = &values[name];
        let (q1, q2, q3) = quartiles(v);
        let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
        println!(
            "{name:<14} {q1:>12.5} {q2:>12.5} {q3:>12.5} {:>8.4} {bound:>8.3}",
            (q3 - q1) / q2
        );
    }
    Ok(())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) computes them.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |k: i64| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1) - j * 4) as f64;
        (v[(j - 1) as usize] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
