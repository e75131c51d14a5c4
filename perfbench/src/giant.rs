//! `giant-sweep`: 100k-segment networks through the model, the tree path
//! and the batch kernel.
//!
//! Rings and chiplets of 100k segments and a 10k-segment deep-SIB tower each
//! go through parse → build → SP tree + tree-path `analyze` → a full
//! `analyze_graph_with` sweep at `nproc` threads. One more operation, the
//! tree-path `analyze` of a 100k-segment deep-SIB tower, runs in a child
//! process on a default-size main-thread stack (the stack `rsn_tool analyze`
//! gets), because it overflows that stack in the recursive SP-tree lowering
//! and aborts; it is counted as attempted and failed.

use std::process::Command;
use std::time::Instant;

use robust_rsn::{
    analyze, analyze_graph_with, mode_count, AnalysisOptions, CriticalitySpec, PaperSpecParams,
    Parallelism,
};
use rsn_benchmarks::giant::{deep_sib_tree, multi_chiplet, ring_of_rings};
use rsn_model::format::{parse_network, print_network};
use rsn_sp::tree_from_structure;

use crate::trace::{median, Tracer};
use crate::{repeat_setups, run_rounds, timed_setup, Ctx, Outcome};

/// Rings: 10k rings of 9 registers → 100k segments, 20k muxes.
const RINGS: (usize, usize) = (10_000, 9);
/// Chiplets: 100 chiplets of 999 segments and 399 muxes → 100k segments.
const CHIPLETS: (usize, usize, usize) = (100, 999, 399);
/// A tower shallow enough for the tree path: 5k levels → 10 001 segments.
const TOWER_LEVELS: usize = 5_000;
/// The tower whose tree-path analysis overflows: 50k levels → 100 001
/// segments. Its seed is fixed so the failing operation never depends on
/// the run's seed.
const DEEP_LEVELS: usize = 50_000;
const DEEP_SEED: u64 = 2022;

struct Input {
    name: &'static str,
    text: String,
    segments: usize,
    muxes: usize,
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;
    let generate = || {
        let (rings, ring_size) = RINGS;
        let (chips, seg_per, mux_per) = CHIPLETS;
        vec![
            Input {
                name: "rings",
                text: print_network("rings", &ring_of_rings(rings, ring_size, seed)),
                segments: rings * (ring_size + 1),
                muxes: 2 * rings,
            },
            Input {
                name: "chiplets",
                text: print_network("chiplets", &multi_chiplet(chips, seg_per, mux_per, seed)),
                segments: chips * (seg_per + 1),
                muxes: chips * (mux_per + 1),
            },
            Input {
                name: "deep-sib",
                text: print_network("deep-sib", &deep_sib_tree(TOWER_LEVELS, 1, seed)),
                segments: TOWER_LEVELS * 2 + 1,
                muxes: TOWER_LEVELS,
            },
        ]
    };
    let inputs = timed_setup(&mut out, generate);
    let threads = Parallelism::new(ctx.nproc);
    let options = AnalysisOptions::default();
    out.about.insert("sweep_threads", threads.threads().to_string());
    out.about.insert("networks", "rings 100k, chiplets 100k, deep-sib 10k".into());
    out.about
        .insert("child", format!("deep-sib {} segments, seed {DEEP_SEED}", DEEP_LEVELS * 2 + 1));

    let (mut load_s, mut analyze_s, mut sweep_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut modes, mut sweep_ms) = (0.0, 0.0);
    run_rounds(ctx, tracer, &mut out, |_, tr, out| {
        let (mut load, mut analyze_t, mut sweep) = (0.0, 0.0, 0.0);
        for input in &inputs {
            // One operation: the network through the whole pipeline.
            let name = input.name;
            tr.next_request();
            let started = Instant::now();
            let (net_name, structure) = tr
                .span("rsn_model.parse", || parse_network(&input.text))
                .expect("printed text parses");
            let (net, built) = tr
                .span("rsn_model.build", || structure.build(net_name))
                .expect("generated network builds");
            load += started.elapsed().as_secs_f64();
            let stats = net.stats();
            out.check(stats.segments == input.segments && stats.muxes == input.muxes, || {
                format!(
                    "{name}: {} segments and {} muxes after print → parse → build, expected {} and {}",
                    stats.segments, stats.muxes, input.segments, input.muxes
                )
            });

            let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
            let t = Instant::now();
            let tree = tr.span("rsn_sp.tree", || tree_from_structure(&net, &built));
            let crit = tr.span("criticality.analyze", || analyze(&net, &tree, &spec, &options));
            analyze_t += t.elapsed().as_secs_f64();
            drop(tree);
            drop(built);

            let t = Instant::now();
            let graph = tr.span("graph_analysis.sweep", || {
                analyze_graph_with(&net, &spec, &options, threads)
            });
            let secs = t.elapsed().as_secs_f64();
            sweep += secs;
            out.attempted += 1;
            if !tr.enabled() {
                out.ops_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            if tr.enabled() {
                modes += mode_count(&net, &options) as f64;
                sweep_ms += secs * 1e3;
            }
            out.check(graph.total_damage() == crit.total_damage(), || {
                format!(
                    "{name}: batch total {} != tree-path total {}",
                    graph.total_damage(),
                    crit.total_damage()
                )
            });
            let mismatched =
                crit.primitives().iter().filter(|&&j| graph.damage(j) != crit.damage(j)).count();
            out.check(mismatched == 0, || {
                format!("{name}: {mismatched} primitives differ between the batch kernel and the tree path")
            });
            if !tr.enabled() {
                out.figures.insert(
                    match name {
                        "rings" => "rings_total_damage",
                        "chiplets" => "chiplets_total_damage",
                        _ => "deep_sib_total_damage",
                    },
                    crit.total_damage() as f64,
                );
            }
        }

        // A failed operation counts in `failed`, not in the latency median.
        tr.next_request();
        out.attempted += 1;
        if let Err(cause) = tr.span("child.deep_sib_analyze", run_child) {
            out.fail(cause);
        }
        if !tr.enabled() {
            load_s.push(load);
            analyze_s.push(analyze_t);
            sweep_s.push(sweep);
        }
    });

    drop(inputs);
    repeat_setups(4, &mut out, generate);

    if ctx.trace {
        let rounds = out.traced_rounds_s.len().max(1) as f64;
        let self_ms = tracer.self_ms();
        for (layer, span) in [
            ("rsn_model.parse_ms", "rsn_model.parse"),
            ("rsn_model.build_ms", "rsn_model.build"),
            ("rsn_sp.tree_ms", "rsn_sp.tree"),
            ("criticality.analyze_ms", "criticality.analyze"),
            ("graph_analysis.sweep_ms", "graph_analysis.sweep"),
        ] {
            out.layers.insert(layer, self_ms.get(span).copied().unwrap_or(0.0) / rounds);
        }
        out.layers.insert("graph_analysis.modes", modes / rounds);
        out.layers.insert("graph_analysis.modes_per_s", modes / (sweep_ms / 1e3));
        out.layers.insert("graph_analysis.threads", threads.threads() as f64);
    }
    out.figures.insert("load_s", median(&load_s));
    out.figures.insert("analyze_s", median(&analyze_s));
    out.figures.insert("sweep_s", median(&sweep_s));
    out
}

/// Runs the deep-SIB tree-path analysis in a child process and reports how
/// it ended.
fn run_child() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("deep-sib child: no executable: {e}"))?;
    let output = Command::new(exe)
        .arg("child-deep-sib")
        .output()
        .map_err(|e| format!("deep-sib child: could not start: {e}"))?;
    if output.status.success() {
        return Ok(());
    }
    let stderr = String::from_utf8_lossy(&output.stderr);
    let what =
        if stderr.contains("overflowed its stack") { "stack overflow" } else { "abnormal exit" };
    #[cfg(unix)]
    let how = {
        use std::os::unix::process::ExitStatusExt;
        match output.status.signal() {
            Some(sig) => format!("killed by signal {sig}"),
            None => format!("exit code {:?}", output.status.code()),
        }
    };
    #[cfg(not(unix))]
    let how = format!("exit code {:?}", output.status.code());
    Err(format!("deep-sib {} segments, tree-path analyze: {what} ({how})", DEEP_LEVELS * 2 + 1))
}

/// The child's side: print → parse → build → SP tree → tree-path analyze of
/// the deep tower on this process's main thread, as `rsn_tool analyze` does.
pub fn child_deep_sib() {
    let text = print_network("deep-sib", &deep_sib_tree(DEEP_LEVELS, 1, DEEP_SEED));
    let (name, structure) = parse_network(&text).expect("printed text parses");
    let (net, built) = structure.build(name).expect("generated network builds");
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), DEEP_SEED);
    let tree = tree_from_structure(&net, &built);
    let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
    println!("{}", crit.total_damage());
}
