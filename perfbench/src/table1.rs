//! `table1-harden`: the paper's own experiment on a subset of Table I.
//!
//! Set-up generates, builds and decomposes each design (build → SP tree).
//! Each round then takes every design through criticality `analyze` under
//! the round's spec seed → `solve_spea2` with the paper's population and
//! generation count, and the smaller designs through the simulation
//! campaign (`validate`). Every call runs on one analysis thread.

use std::time::Instant;

use moea::{BitGenome, Problem};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use robust_rsn::{
    analyze, analyze_naive, oracle_damage, solve_spea2, validate_criticality_with, AnalysisOptions,
    CostModel, Criticality, CriticalitySpec, HardeningFront, HardeningProblem, PaperSpecParams,
    Parallelism,
};
use rsn_benchmarks::BenchmarkSpec;
use rsn_model::ScanNetwork;
use rsn_sp::tree_from_structure;

use crate::trace::{median, Tracer};
use crate::{repeat_setups, run_rounds, splitmix, timed_setup, Ctx, Outcome};

/// The designs: two tree-family, one SoC and two MBIST rows of Table I,
/// chosen so that one round stays a few seconds long on one thread (the
/// larger SoC rows take 4 s and more of SPEA2 each).
const DESIGNS: [&str; 5] = ["TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5", "MBIST_2_5_5"];

/// Designs replayed by the simulation campaign.
const VALIDATED: [&str; 4] = ["TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5"];

/// A design as set-up leaves it: generated, built and decomposed.
struct Design {
    spec: BenchmarkSpec,
    net: ScanNetwork,
    tree: rsn_sp::DecompTree,
}

/// Times `HardeningProblem::evaluate_batch` inside SPEA2 in traced rounds.
struct TimedProblem<'a> {
    inner: &'a HardeningProblem,
    tracer: &'a Tracer,
    evaluations: std::sync::atomic::AtomicU64,
}

impl Problem for TimedProblem<'_> {
    fn genome_len(&self) -> usize {
        self.inner.genome_len()
    }
    fn objective_count(&self) -> usize {
        self.inner.objective_count()
    }
    fn evaluate(&self, genome: &BitGenome) -> Vec<f64> {
        self.inner.evaluate(genome)
    }
    fn initial_density(&self) -> f64 {
        self.inner.initial_density()
    }
    fn evaluate_batch(&self, genomes: &[BitGenome]) -> Vec<Vec<f64>> {
        self.evaluations.fetch_add(genomes.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.tracer.span("hardening.evaluate", || self.inner.evaluate_batch(genomes))
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let options = AnalysisOptions::default();
    let generate = || {
        DESIGNS
            .iter()
            .map(|name| {
                let spec = rsn_benchmarks::by_name(name).expect("a Table I design");
                let (net, built) = spec.generate().build(spec.name).expect("Table I designs build");
                let tree = tree_from_structure(&net, &built);
                Design { spec, net, tree }
            })
            .collect::<Vec<_>>()
    };
    let designs = timed_setup(&mut out, generate);
    out.about.insert("designs", DESIGNS.join(","));
    out.about.insert("validated", VALIDATED.join(","));
    out.about.insert("analysis_threads", "1".into());
    out.about.insert("round_seeds", "splitmix(seed ^ round): spec weights and SPEA2".into());

    check_oracle(&mut out, ctx.seed);

    let (mut harden_s, mut validate_s, mut front_hv) = (Vec::new(), Vec::new(), Vec::new());
    let mut evaluations = 0u64;

    // Each round draws its own spec and solver seed, so a run's median
    // round spans several seeds rather than repeating one.
    run_rounds(ctx, tracer, &mut out, |round, tr, out| {
        let seed = splitmix(ctx.seed ^ round as u64);
        let (mut harden, mut validate, mut hv) = (0.0, 0.0, 0.0);
        for design in &designs {
            // One operation: the design through the whole flow.
            let name = design.spec.name;
            tr.next_request();
            let started = Instant::now();
            let (net, tree) = (&design.net, &design.tree);
            let weights = CriticalitySpec::paper_random(net, &PaperSpecParams::default(), seed);
            let crit = tr.span("criticality.analyze", || analyze(net, tree, &weights, &options));
            let problem = HardeningProblem::new(net, &crit, &CostModel::default())
                .with_parallelism(Parallelism::sequential());

            let config = rsn_bench::spea2_config(&design.spec, design.spec.generations);
            let t = Instant::now();
            let front = if tr.enabled() {
                let timed = TimedProblem {
                    inner: &problem,
                    tracer: tr,
                    evaluations: std::sync::atomic::AtomicU64::new(0),
                };
                let individuals = tr.span("moea.spea2", || {
                    moea::spea2(&timed, &config, &mut ChaCha8Rng::seed_from_u64(seed))
                });
                evaluations += timed.evaluations.into_inner();
                HardeningFront::from_individuals(&problem, &individuals)
            } else {
                solve_spea2(&problem, &config, seed, |_| {})
            };
            harden += t.elapsed().as_secs_f64();

            if VALIDATED.contains(&name) {
                let t = Instant::now();
                let report = tr.span("validate.campaign", || {
                    validate_criticality_with(net, &weights, &options, Parallelism::sequential())
                });
                validate += t.elapsed().as_secs_f64();
                if tr.enabled() {
                    *out.layers.entry("validate.modes").or_insert(0.0) += report.modes as f64;
                }
                out.check(report.is_clean(), || {
                    format!("{name}: validation campaign reports disagreements")
                });
                out.check(report.analysis_total_damage == crit.total_damage(), || {
                    format!("{name}: campaign total differs from the tree-path total")
                });
            }

            out.attempted += 1;
            if !tr.enabled() {
                out.ops_ms.push(started.elapsed().as_secs_f64() * 1e3);
                check_design(out, name, net, tree, &weights, &crit, &front);
                hv += normalized_hv(&front, problem.max_cost(), problem.total_damage());
            }
        }
        if !tr.enabled() {
            harden_s.push(harden);
            validate_s.push(validate);
            front_hv.push(hv);
        }
    });

    repeat_setups(24, &mut out, generate);

    let traced_rounds = out.traced_rounds_s.len().max(1) as f64;
    if ctx.trace {
        let self_ms = tracer.self_ms();
        for (layer, span) in [
            ("criticality.analyze_ms", "criticality.analyze"),
            ("hardening.evaluate_ms", "hardening.evaluate"),
            ("moea.spea2_self_ms", "moea.spea2"),
            ("validate.campaign_ms", "validate.campaign"),
        ] {
            out.layers.insert(layer, self_ms.get(span).copied().unwrap_or(0.0) / traced_rounds);
        }
        out.layers.insert("hardening.evaluations", evaluations as f64 / traced_rounds);
        if let Some(m) = out.layers.get_mut("validate.modes") {
            *m /= traced_rounds;
        }
        out.layers.insert("moea.front_hv", median(&front_hv));
    }
    out.figures.insert("harden_s", median(&harden_s));
    out.figures.insert("validate_s", median(&validate_s));
    out.figures.insert("front_hv", median(&front_hv));
    out
}

/// Checks one design's analysis and front against independent computations.
fn check_design(
    out: &mut Outcome,
    name: &str,
    net: &ScanNetwork,
    tree: &rsn_sp::DecompTree,
    weights: &CriticalitySpec,
    crit: &Criticality,
    front: &HardeningFront,
) {
    let options = AnalysisOptions::default();
    let naive = analyze_naive(net, tree, weights, &options);
    for &j in crit.primitives() {
        out.check(crit.damage(j) == naive.damage(j), || {
            format!("{name}: tree-path damage of {j} differs from analyze_naive")
        });
    }
    let cost_model = CostModel::default();
    let total = crit.total_damage();
    let points = front.solutions();
    out.check(!points.is_empty(), || format!("{name}: empty front"));
    for s in points {
        let cost: u64 = s.hardened.iter().map(|&j| cost_model.cost_of(net, j)).sum();
        let avoided: u64 = s.hardened.iter().map(|&j| crit.damage(j)).sum();
        out.check(cost == s.cost && total - avoided == s.damage, || {
            format!(
                "{name}: front point ({}, {}) recomputes to ({cost}, {})",
                s.cost,
                s.damage,
                total - avoided
            )
        });
    }
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            let dominates = |x: &robust_rsn::HardeningSolution,
                             y: &robust_rsn::HardeningSolution| {
                x.cost <= y.cost && x.damage <= y.damage && (x.cost, x.damage) != (y.cost, y.damage)
            };
            out.check(!dominates(a, b) && !dominates(b, a), || {
                format!(
                    "{name}: front points ({}, {}) and ({}, {}) dominate",
                    a.cost, a.damage, b.cost, b.damage
                )
            });
        }
    }
}

/// The configuration-enumeration oracle is exponential in the mux count,
/// so it checks the tree path on small members of the three families.
fn check_oracle(out: &mut Outcome, seed: u64) {
    use rsn_benchmarks::{mbist, soc, trees};
    let options = AnalysisOptions::default();
    for (name, structure) in [
        ("flat tree, 8 muxes", trees::flat(12, 8, 8)),
        ("SoC, 8 muxes", soc::soc(16, 8, seed)),
        ("MBIST, 7 muxes", mbist::mbist(1, 6, 2, 3)),
    ] {
        let (net, built) = structure.build(name).expect("small family members build");
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let crit = analyze(&net, &tree, &weights, &options);
        for j in net.primitives() {
            out.check(crit.damage(j) == oracle_damage(&net, &weights, j, &options), || {
                format!("{name}: tree-path damage of {j} differs from the oracle")
            });
        }
    }
}

/// Hypervolume of a front in (cost / max cost, damage / max damage) against
/// the reference point (1, 1).
fn normalized_hv(front: &HardeningFront, max_cost: u64, max_damage: u64) -> f64 {
    let mut points: Vec<(f64, f64)> = front
        .solutions()
        .iter()
        .map(|s| (s.cost as f64 / max_cost as f64, s.damage as f64 / max_damage as f64))
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hv = 0.0;
    let mut prev = 1.0;
    for (c, d) in points {
        if c < 1.0 && d < prev {
            hv += (1.0 - c) * (prev - d);
            prev = d;
        }
    }
    hv
}
