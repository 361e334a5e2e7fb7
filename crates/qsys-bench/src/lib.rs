//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (Section 7), plus the ablations DESIGN.md calls out.
//!
//! Each `table4` / `fig7` / … function runs the experiment and returns
//! printable data; the `reproduce` binary is a thin argument parser over
//! them. The gated sweeps (`chaos_sweep`, `shard_sweep`, …) all return a
//! [`Sweep`] of named arms, rendered by one table printer and one JSON
//! emitter. All numbers are *simulated* (virtual-clock) quantities — see
//! DESIGN.md's substitution notes; the claims under reproduction are about
//! relative behaviour between configurations, not absolute seconds.

use qsys::opt::cluster::ClusterConfig;
use qsys::opt::cost::NoReuse;
use qsys::opt::{HeuristicConfig, Optimizer, OptimizerConfig};
use qsys::query::CandidateConfig;
use qsys::types::SimClock;
use qsys::{run_workload, Answers, EngineConfig, RunReport, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::pfam::{self, PfamConfig};
use qsys_workload::Workload;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale rows (full schema, reduced cardinalities).
    Small,
    /// The paper's cardinalities (20k–100k rows/relation) — slow.
    Paper,
}

/// Process-wide lane-thread override, set once by the `--lane-threads`
/// flag before any experiment runs; every engine the drivers build picks
/// it up (the config equivalent of `QSYS_LANE_THREADS`).
static LANE_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Install the `--lane-threads` override (first call wins).
pub fn set_lane_threads(n: usize) {
    let _ = LANE_THREADS.set(n.max(1));
}

/// The lane-thread count experiments run under: the `--lane-threads`
/// override if given, else the engine default (env var / parallelism).
pub fn lane_threads() -> usize {
    LANE_THREADS
        .get()
        .copied()
        .unwrap_or_else(|| EngineConfig::default().lane_threads)
}

/// The four configurations of Section 7.1, in the paper's order.
pub fn all_modes() -> Vec<SharingMode> {
    vec![
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig::default()),
    ]
}

/// GUS workload for one instance seed.
pub fn gus_workload(seed: u64, scale: Scale) -> Workload {
    let cfg = match scale {
        Scale::Small => GusConfig::small(seed),
        Scale::Paper => GusConfig::paper(seed),
    };
    gus::generate(&cfg)
}

/// Pfam workload for one seed.
pub fn pfam_workload(seed: u64, scale: Scale) -> Workload {
    let cfg = match scale {
        Scale::Small => PfamConfig::small(seed),
        Scale::Paper => PfamConfig::paper(seed),
    };
    pfam::generate(&cfg)
}

/// The engine configuration used by the synthetic experiments: k = 50,
/// batches of 5, ≤ 20 CQs per user query — Section 7's setup.
pub fn gus_engine(mode: SharingMode, batch_size: usize) -> EngineConfig {
    EngineConfig {
        k: 50,
        batch_size,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 20,
            max_atoms: 6,
            matches_per_keyword: 3,
            ..CandidateConfig::default()
        },
        lane_threads: lane_threads(),
        // Explicit, not inherited from the environment: the shard sweep
        // opts in per arm, every other experiment stays unsharded.
        sharding: qsys::ShardConfig::off(),
        ..EngineConfig::default()
    }
}

/// The engine configuration for the Pfam experiments: "each user query
/// here resulted in 4 conjunctive queries" (Section 7.5).
pub fn pfam_engine(mode: SharingMode) -> EngineConfig {
    EngineConfig {
        k: 50,
        batch_size: 5,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 4,
            max_atoms: 6,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        lane_threads: lane_threads(),
        sharding: qsys::ShardConfig::off(),
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Optimizer decision fingerprints and the ATC-CL reference workload.
// ---------------------------------------------------------------------------

/// One batch's decision fingerprint, as produced by
/// [`optimize_decision_stream`]: everything the optimizer decided plus the
/// diagnostic warm-hit count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRow {
    /// Full `PlanSpec` debug dump (pins plan shape and signatures).
    pub spec_debug: String,
    /// BestPlan states explored.
    pub explored: usize,
    /// BestPlan memo hits.
    pub memo_hits: usize,
    /// Multi-relation candidates entering the search.
    pub candidates: usize,
    /// Winning cost, bit-exact.
    pub best_cost_bits: u64,
    /// Warm-plan replays (diagnostic — excluded from identity compares).
    pub warm_hits: usize,
}

impl DecisionRow {
    /// The fingerprint of one optimize call's output.
    pub fn new(spec: &qsys::opt::PlanSpec, stats: &qsys::opt::OptStats) -> DecisionRow {
        DecisionRow {
            spec_debug: format!("{spec:?}"),
            explored: stats.explored,
            memo_hits: stats.memo_hits,
            candidates: stats.candidates,
            best_cost_bits: stats.best_cost.to_bits(),
            warm_hits: stats.warm_hits,
        }
    }

    /// The decision-relevant fields (everything except `warm_hits`).
    pub fn decisions(&self) -> (&str, usize, usize, usize, u64) {
        (
            &self.spec_debug,
            self.explored,
            self.memo_hits,
            self.candidates,
            self.best_cost_bits,
        )
    }
}

/// Optimize a stream of batches against one live QS manager — warm-started
/// or cold — and fingerprint every batch's decisions. `bench_warm_opt`
/// (the CI micro-bench smoke) compares its warm and cold outputs before
/// timing anything. The manager is returned so the restart sweep can
/// snapshot its warm state.
pub fn optimize_decision_stream(
    catalog: &qsys::catalog::Catalog,
    opt_config: &OptimizerConfig,
    batches: &[Batch<'_>],
    warm: bool,
) -> (qsys::state::QsManager, Vec<DecisionRow>) {
    let manager = qsys::state::QsManager::new(usize::MAX);
    let optimizer = Optimizer::new(catalog, opt_config.clone());
    let interner = manager.shared_interner();
    let warm_cell = warm.then(|| manager.warm_cell());
    let rows = batches
        .iter()
        .map(|batch| {
            let oracle = manager.reuse_oracle();
            let (spec, stats) =
                optimizer.optimize_warm(batch, &oracle, None, &interner, warm_cell.as_deref());
            DecisionRow::new(&spec, &stats)
        })
        .collect();
    (manager, rows)
}

/// One optimizer batch: every CQ of some user queries with its score
/// function.
pub type Batch<'a> = Vec<(&'a qsys::query::ConjunctiveQuery, &'a qsys::query::ScoreFn)>;

/// The optimizer input for a run of user queries.
pub fn batch_of(uqs: &[qsys::query::UserQuery]) -> Batch<'_> {
    uqs.iter()
        .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
        .collect()
}

/// The multi-cluster ATC-CL reference workload: the seed-41 GUS instance
/// with a longer script (40 UQs) and clustering thresholds that actually
/// split it (several plan graphs with real work in each) — the shape the
/// lane-threading tentpole exists for.
pub fn atc_cl_reference_engine(lane_threads_cap: usize) -> EngineConfig {
    let mut engine = gus_engine(SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 }), 5);
    engine.lane_threads = lane_threads_cap;
    engine
}

/// The workload for [`atc_cl_reference_engine`].
pub fn atc_cl_reference_workload() -> Workload {
    let mut cfg = GusConfig::small(41);
    cfg.user_queries = 40;
    gus::generate(&cfg)
}

// ---------------------------------------------------------------------------
// Table 4: average number of conjunctive queries executed per user query.
// ---------------------------------------------------------------------------

/// Average CQs executed to return top-50, per UQ, across instance seeds.
pub fn table4(seeds: &[u64], scale: Scale) -> Vec<f64> {
    let mut sums: Vec<f64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    for &seed in seeds {
        let w = gus_workload(seed, scale);
        let report = run_workload(&w, &gus_engine(SharingMode::AtcFull, 5), None).expect("runs");
        for u in &report.per_uq {
            let i = u.uq.index();
            if sums.len() <= i {
                sums.resize(i + 1, 0.0);
                counts.resize(i + 1, 0);
            }
            sums[i] += u.cqs_executed as f64;
            counts[i] += 1;
        }
    }
    sums.iter()
        .zip(counts.iter())
        .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
        .collect()
}

/// Pretty-print Table 4.
pub fn print_table4(avgs: &[f64]) {
    println!("Table 4: average # conjunctive queries executed per user query (top-50)");
    print!("UQ     ");
    for i in 0..avgs.len() {
        print!(" {:>6}", i + 1);
    }
    println!();
    print!("Queries");
    for v in avgs {
        print!(" {v:>6.2}");
    }
    println!();
}

// ---------------------------------------------------------------------------
// Figures 7 & 8: per-UQ running times and execution-time breakdown.
// ---------------------------------------------------------------------------

/// One configuration's outcome over the GUS workload, averaged over seeds.
pub struct ConfigRun {
    /// Configuration label.
    pub label: String,
    /// Per-UQ mean response times (seconds).
    pub per_uq_secs: Vec<f64>,
    /// Mean normalized (stream, probe, join) execution fractions.
    pub fractions: (f64, f64, f64),
    /// Total tuples consumed (summed over seeds).
    pub tuples_consumed: u64,
    /// Raw reports (one per seed).
    pub reports: Vec<RunReport>,
}

/// Run the GUS workload under every configuration.
pub fn fig7_runs(seeds: &[u64], scale: Scale, limit: Option<usize>) -> Vec<ConfigRun> {
    all_modes()
        .into_iter()
        .map(|mode| {
            let label = mode.label().to_string();
            let mut reports = Vec::new();
            for &seed in seeds {
                let w = gus_workload(seed, scale);
                reports.push(run_workload(&w, &gus_engine(mode.clone(), 5), limit).expect("runs"));
            }
            summarize(label, reports)
        })
        .collect()
}

fn summarize(label: String, reports: Vec<RunReport>) -> ConfigRun {
    let n_uq = reports.iter().map(|r| r.per_uq.len()).max().unwrap_or(0);
    let mut per_uq_secs = vec![0.0; n_uq];
    let mut counts = vec![0u32; n_uq];
    let mut fractions = (0.0, 0.0, 0.0);
    let mut tuples = 0;
    for r in &reports {
        for u in &r.per_uq {
            let i = u.uq.index();
            if i < n_uq {
                per_uq_secs[i] += u.response_us as f64 / 1e6;
                counts[i] += 1;
            }
        }
        let f = r.breakdown.exec_fractions();
        fractions.0 += f.0;
        fractions.1 += f.1;
        fractions.2 += f.2;
        tuples += r.tuples_consumed;
    }
    for (v, c) in per_uq_secs.iter_mut().zip(counts.iter()) {
        if *c > 0 {
            *v /= *c as f64;
        }
    }
    let n = reports.len().max(1) as f64;
    ConfigRun {
        label,
        per_uq_secs,
        fractions: (fractions.0 / n, fractions.1 / n, fractions.2 / n),
        tuples_consumed: tuples,
        reports,
    }
}

/// Print Figure 7 (running time per UQ, per configuration).
pub fn print_fig7(runs: &[ConfigRun]) {
    println!("Figure 7: running times (virtual s) to return top-50 per user query");
    print!("{:>4}", "UQ");
    for r in runs {
        print!(" {:>9}", r.label);
    }
    println!();
    let n = runs.iter().map(|r| r.per_uq_secs.len()).max().unwrap_or(0);
    for i in 0..n {
        print!("{:>4}", i + 1);
        for r in runs {
            match r.per_uq_secs.get(i) {
                Some(v) => print!(" {v:>9.3}"),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    print!("mean");
    for r in runs {
        let m: f64 = r.per_uq_secs.iter().sum::<f64>() / r.per_uq_secs.len().max(1) as f64;
        print!(" {m:>9.3}");
    }
    println!();
    // End-of-run source/optimizer accounting: network rounds spent on
    // stream reads (the quantity fetch-ahead amortizes) and batches the
    // optimizer served from its cross-batch warm memo.
    print!("rnds");
    for r in runs {
        let rounds: u64 = r.reports.iter().map(|rep| rep.stream_rounds).sum();
        print!(" {rounds:>9}");
    }
    println!();
    print!("warm");
    for r in runs {
        let hits: usize = r.reports.iter().map(|rep| rep.warm_hits()).sum();
        print!(" {hits:>9}");
    }
    println!();
    // Adaptive accounting, only when any run engaged the adaptive path —
    // the default (adaptive off) footer stays byte-identical.
    let engaged = runs
        .iter()
        .any(|r| r.reports.iter().any(|rep| rep.adaptive.any()));
    if engaged {
        print!("adpt");
        for r in runs {
            let (checks, replans, corrected) = r.reports.iter().fold((0, 0, 0), |acc, rep| {
                let a = &rep.adaptive;
                (
                    acc.0 + a.drift_checks,
                    acc.1 + a.replans,
                    acc.2 + a.cards_corrected,
                )
            });
            print!(" {:>9}", format!("{checks}/{replans}/{corrected}"));
        }
        println!("  (drift checks / replans / cards corrected)");
    }
}

/// Print Figure 8 (normalized execution-time breakdown).
pub fn print_fig8(runs: &[ConfigRun]) {
    println!("Figure 8: breakdown of execution time (fractions of total)");
    println!(
        "{:>10} {:>12} {:>14} {:>10}",
        "config", "stream read", "random access", "join"
    );
    for r in runs {
        println!(
            "{:>10} {:>12.3} {:>14.3} {:>10.3}",
            r.label, r.fractions.0, r.fractions.1, r.fractions.2
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 9: SINGLE-OPT (batch = 1) vs BATCH-OPT (batch = 5), ATC-CL.
// ---------------------------------------------------------------------------

/// One arm of the Figure 9 comparison.
pub struct Fig9Arm {
    /// Per-UQ response times (s).
    pub per_uq_secs: Vec<f64>,
    /// Total execution time for the whole workload (s, summed over lanes).
    pub total_exec_secs: f64,
    /// Total input tuples consumed.
    pub tuples_consumed: u64,
}

/// SINGLE-OPT (batch = 1) vs BATCH-OPT (batch = 5), both under ATC-CL.
pub fn fig9(seeds: &[u64], scale: Scale) -> (Fig9Arm, Fig9Arm) {
    let mode = || SharingMode::AtcCl(ClusterConfig::default());
    let run = |batch: usize| {
        let mut reports = Vec::new();
        for &seed in seeds {
            let w = gus_workload(seed, scale);
            reports.push(run_workload(&w, &gus_engine(mode(), batch), None).expect("runs"));
        }
        let total_exec_secs = reports
            .iter()
            .map(|r| r.breakdown.exec_us() as f64 / 1e6)
            .sum::<f64>()
            / reports.len().max(1) as f64;
        let summary = summarize(format!("batch={batch}"), reports);
        Fig9Arm {
            per_uq_secs: summary.per_uq_secs,
            total_exec_secs,
            tuples_consumed: summary.tuples_consumed,
        }
    };
    (run(1), run(5))
}

/// Print Figure 9.
pub fn print_fig9(single: &Fig9Arm, batch: &Fig9Arm) {
    println!("Figure 9: individually (SINGLE-OPT) vs batch-optimized (BATCH-OPT) queries");
    println!("{:>4} {:>12} {:>12}", "UQ", "SINGLE-OPT", "BATCH-OPT");
    let (s, b) = (&single.per_uq_secs, &batch.per_uq_secs);
    for i in 0..s.len().max(b.len()) {
        println!(
            "{:>4} {:>12.3} {:>12.3}",
            i + 1,
            s.get(i).copied().unwrap_or(f64::NAN),
            b.get(i).copied().unwrap_or(f64::NAN)
        );
    }
    let ms: f64 = s.iter().sum::<f64>() / s.len().max(1) as f64;
    let mb: f64 = b.iter().sum::<f64>() / b.len().max(1) as f64;
    println!("mean {ms:>11.3} {mb:>12.3}");
    println!(
        "workload total exec time (s): SINGLE-OPT {:.1} vs BATCH-OPT {:.1}",
        single.total_exec_secs, batch.total_exec_secs
    );
    println!(
        "tuples consumed:              SINGLE-OPT {} vs BATCH-OPT {}",
        single.tuples_consumed, batch.tuples_consumed
    );
    println!(
        "(per-UQ latency under batching includes co-batched queries' work — \
         the sharing gain shows in workload totals)"
    );
}

// ---------------------------------------------------------------------------
// Figure 10: total work (tuples consumed), 5 UQs vs 15 UQs.
// ---------------------------------------------------------------------------

/// Per configuration: `(label, tuples after 5 UQs, tuples after 15 UQs)`.
pub fn fig10(seeds: &[u64], scale: Scale) -> Vec<(String, u64, u64)> {
    all_modes()
        .into_iter()
        .map(|mode| {
            let label = mode.label().to_string();
            let mut five = 0;
            let mut fifteen = 0;
            for &seed in seeds {
                let w = gus_workload(seed, scale);
                five += run_workload(&w, &gus_engine(mode.clone(), 5), Some(5))
                    .expect("runs")
                    .tuples_consumed;
                fifteen += run_workload(&w, &gus_engine(mode.clone(), 5), None)
                    .expect("runs")
                    .tuples_consumed;
            }
            (label, five, fifteen)
        })
        .collect()
}

/// Print Figure 10.
pub fn print_fig10(rows: &[(String, u64, u64)]) {
    println!("Figure 10: total work done (input tuples consumed), 5 vs 15 UQs");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "config", "5-UQ", "15-UQ", "ratio"
    );
    for (label, five, fifteen) in rows {
        println!(
            "{:>10} {:>12} {:>12} {:>8.2}",
            label,
            five,
            fifteen,
            *fifteen as f64 / (*five).max(1) as f64
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 11: optimization time vs number of candidate inputs.
// ---------------------------------------------------------------------------

/// Sweep the candidate cap over one batch of 5 user queries; returns
/// `(candidates, explored states, virtual µs, wall µs)` per point.
pub fn fig11(seed: u64, scale: Scale) -> Vec<(usize, usize, u64, u128)> {
    let w = gus_workload(seed, scale);
    let engine = gus_engine(SharingMode::AtcFull, 5);
    let (uqs, _) = qsys::generate_user_queries(&w, &engine).expect("generates");
    let batch = batch_of(&uqs[..uqs.len().min(5)]);
    let mut out = Vec::new();
    for cap in 0..=14 {
        let config = OptimizerConfig {
            k: 50,
            heuristics: HeuristicConfig {
                max_candidates: cap,
                min_sharing: 1,
                low_cardinality: f64::MAX, // admit everything up to the cap
                ..HeuristicConfig::default()
            },
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(&w.catalog, config);
        let clock = SimClock::new();
        let wall = std::time::Instant::now();
        let interner = qsys::query::SigCell::new(qsys::query::SigInterner::new());
        let (_, stats) = optimizer.optimize(&batch, &NoReuse, Some(&clock), &interner);
        let wall_us = wall.elapsed().as_micros();
        out.push((
            stats.candidates,
            stats.explored,
            clock.breakdown().optimize_us,
            wall_us,
        ));
    }
    out.sort();
    out.dedup_by_key(|p| p.0);
    out
}

/// Print Figure 11.
pub fn print_fig11(points: &[(usize, usize, u64, u128)]) {
    println!("Figure 11: optimization times vs candidate inputs (one batch of 5 UQs)");
    println!(
        "{:>11} {:>10} {:>12} {:>10}",
        "candidates", "explored", "virtual(ms)", "wall(ms)"
    );
    for (cands, explored, virt, wall) in points {
        println!(
            "{:>11} {:>10} {:>12.2} {:>10.2}",
            cands,
            explored,
            *virt as f64 / 1e3,
            *wall as f64 / 1e3
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 12: the Pfam/InterPro workload.
// ---------------------------------------------------------------------------

/// Per-configuration runs over the Pfam workload. The clustering
/// thresholds are tightened (`T_m` = 2) so the denser per-UQ relation
/// references of the 9-relation schema can still split into multiple plan
/// graphs, as the paper's manual clustering did (3 graphs).
pub fn fig12(seeds: &[u64], scale: Scale) -> Vec<ConfigRun> {
    let modes = vec![
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig { t_m: 3, t_c: 0.4 }),
    ];
    modes
        .into_iter()
        .map(|mode| {
            let label = mode.label().to_string();
            let mut reports = Vec::new();
            for &seed in seeds {
                let w = pfam_workload(seed, scale);
                reports.push(run_workload(&w, &pfam_engine(mode.clone()), None).expect("runs"));
            }
            summarize(label, reports)
        })
        .collect()
}

/// Print Figure 12.
pub fn print_fig12(runs: &[ConfigRun]) {
    println!("Figure 12: execution times over the Pfam/InterPro dataset (virtual s)");
    print!("{:>4}", "UQ");
    for r in runs {
        print!(" {:>9}", r.label);
    }
    println!(
        "  (lanes used by ATC-CL: {})",
        runs.last().map(|r| r.reports[0].lanes).unwrap_or(1)
    );
    let n = runs.iter().map(|r| r.per_uq_secs.len()).max().unwrap_or(0);
    for i in 0..n {
        print!("{:>4}", i + 1);
        for r in runs {
            match r.per_uq_secs.get(i) {
                Some(v) => print!(" {v:>9.3}"),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    print!("mean");
    for r in runs {
        let m: f64 = r.per_uq_secs.iter().sum::<f64>() / r.per_uq_secs.len().max(1) as f64;
        print!(" {m:>9.3}");
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4).
// ---------------------------------------------------------------------------

/// ATC scheduling ablation: round-robin vs greedy-threshold mean response.
pub fn ablation_atc(seed: u64, scale: Scale) -> Vec<(String, f64)> {
    use qsys::exec::SchedulingPolicy;
    [
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::GreedyThreshold,
    ]
    .into_iter()
    .map(|policy| {
        let w = gus_workload(seed, scale);
        let mut engine = gus_engine(SharingMode::AtcFull, 5);
        engine.scheduling = policy;
        let r = run_workload(&w, &engine, Some(8)).expect("runs");
        (format!("{policy:?}"), r.mean_response_us() / 1e6)
    })
    .collect()
}

/// Recovery ablation: answering a repeated query warm (RecoverState) vs
/// cold (fresh engine). Returns (warm stream reads, cold stream reads).
pub fn ablation_recovery(seed: u64, scale: Scale) -> (u64, u64) {
    let w = gus_workload(seed, scale);
    let engine = gus_engine(SharingMode::AtcFull, 1);
    // Warm: run UQ0 twice by duplicating the first query.
    let mut twice = gus_workload(seed, scale);
    let first = twice.queries[0].clone();
    twice.queries = vec![first.clone(), first.clone()];
    let warm = run_workload(&twice, &engine, None).expect("runs");
    // Cold: the query once, fresh.
    let mut once = w;
    once.queries = vec![first];
    let cold = run_workload(&once, &engine, None).expect("runs");
    let warm_second = warm.tuples_streamed.saturating_sub(cold.tuples_streamed);
    (warm_second, cold.tuples_streamed)
}

/// Probe-cache-sharing ablation: total probes and mean response under
/// ATC-FULL with shared vs private probe caches. Sharing probe results is
/// the load-bearing half of "we cache tuples from random probes" (§7.1);
/// without it, a stream fanning out to N consumers re-probes every key N
/// times (see DESIGN.md decision 6).
pub fn ablation_probe_cache(seed: u64, scale: Scale) -> Vec<(String, u64, f64)> {
    [true, false]
        .into_iter()
        .map(|share| {
            let w = gus_workload(seed, scale);
            let mut engine = gus_engine(SharingMode::AtcFull, 5);
            engine.share_probe_caches = share;
            let r = run_workload(&w, &engine, Some(10)).expect("runs");
            let label = if share { "shared" } else { "private" };
            (label.to_string(), r.probes, r.mean_response_us() / 1e6)
        })
        .collect()
}

/// Eviction ablation: total stream reads for a 10-query session, first
/// across memory budgets (how much reuse a tight budget destroys), then
/// across replacement policies at the tightest budget — the policy is an
/// [`EngineConfig`] knob wired through to every lane's QS manager. (The
/// paper found LRU with size tie-break best; differences are modest,
/// Section 6.3.)
pub fn ablation_eviction(seed: u64, scale: Scale) -> Vec<(String, u64)> {
    use qsys::state::EvictionPolicy;
    let run = |budget: usize, policy: EvictionPolicy| {
        let w = gus_workload(seed, scale);
        let mut engine = gus_engine(SharingMode::AtcFull, 5);
        engine.memory_budget = budget;
        engine.eviction = policy;
        run_workload(&w, &engine, Some(10))
            .expect("runs")
            .tuples_streamed
    };
    let fmt_budget = |budget: usize| {
        if budget == usize::MAX {
            "unlimited".to_string()
        } else if budget >= 1 << 20 {
            format!("{} MiB", budget >> 20)
        } else {
            format!("{} KiB", budget >> 10)
        }
    };
    let mut out: Vec<(String, u64)> = [usize::MAX, 1 << 22, 1 << 16]
        .into_iter()
        .map(|budget| (fmt_budget(budget), run(budget, EvictionPolicy::default())))
        .collect();
    for policy in [EvictionPolicy::Lru, EvictionPolicy::SizeGreedy] {
        out.push((
            format!("{policy:?}@{}", fmt_budget(1 << 16)),
            run(1 << 16, policy),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Sweeps: named arms, one row type, one table printer and one JSON emitter.
// ---------------------------------------------------------------------------

/// One metric value of a sweep row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An exact count.
    Int(u64),
    /// A measured quantity, rendered with this many decimals.
    Float(f64, usize),
    /// A yes/no fact.
    Bool(bool),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v, _) if !v.is_finite() => f.write_str("null"),
            Value::Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One arm of a sweep: its label, ordered `(metric, value)` pairs, and the
/// gate violations it produced (empty when the arm passed).
#[derive(Clone, Debug)]
pub struct Row {
    pub arm: String,
    pub metrics: Vec<(&'static str, Value)>,
    pub gate_violations: Vec<String>,
}

impl Row {
    pub fn new(arm: impl Into<String>) -> Row {
        Row {
            arm: arm.into(),
            metrics: Vec::new(),
            gate_violations: Vec::new(),
        }
    }

    pub fn int(mut self, name: &'static str, value: impl TryInto<u64>) -> Row {
        let value = value.try_into().unwrap_or(u64::MAX);
        self.metrics.push((name, Value::Int(value)));
        self
    }

    pub fn float(mut self, name: &'static str, value: f64, decimals: usize) -> Row {
        self.metrics.push((name, Value::Float(value, decimals)));
        self
    }

    pub fn flag(mut self, name: &'static str, value: bool) -> Row {
        self.metrics.push((name, Value::Bool(value)));
        self
    }

    /// The value of metric `name`, if this arm reports it.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

/// A sweep's result: what it measures, the gate it enforces, sweep-wide
/// parameters and derived figures, and one row per arm. Every `reproduce`
/// sweep returns one; [`Sweep::table`] and [`Sweep::to_json`] render it.
#[derive(Clone, Debug)]
pub struct Sweep {
    pub bench: String,
    pub gate: &'static str,
    pub params: Vec<(&'static str, Value)>,
    pub arms: Vec<Row>,
}

impl Sweep {
    /// Whether every arm passed the gate.
    pub fn gate_ok(&self) -> bool {
        self.violations() == 0
    }

    /// Gate violations across all arms.
    pub fn violations(&self) -> usize {
        self.arms.iter().map(|a| a.gate_violations.len()).sum()
    }

    /// The stdout rendering: the title, one line per arm (every metric any
    /// arm reports, `-` where an arm has none, then the gate verdict), the
    /// parameters, and every violation.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut cols: Vec<&str> = Vec::new();
        for (name, _) in self.arms.iter().flat_map(|a| &a.metrics) {
            if !cols.contains(name) {
                cols.push(name);
            }
        }
        let cell = |row: &Row, col: &str| row.get(col).map_or("-".into(), ToString::to_string);
        let arm_w = self.arms.iter().map(|a| a.arm.len()).fold(3, usize::max);
        let widths: Vec<usize> = cols
            .iter()
            .map(|c| {
                self.arms
                    .iter()
                    .map(|a| cell(a, c).len())
                    .fold(c.len(), usize::max)
            })
            .collect();
        let mut out = format!("{}\n{:>arm_w$}", self.bench, "arm");
        for (col, w) in cols.iter().zip(&widths) {
            let _ = write!(out, " {col:>w$}");
        }
        out.push_str(" gate\n");
        for row in &self.arms {
            let _ = write!(out, "{:>arm_w$}", row.arm);
            for (col, w) in cols.iter().zip(&widths) {
                let _ = write!(out, " {:>w$}", cell(row, col));
            }
            let verdict = if row.gate_violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            let _ = writeln!(out, " {verdict:>4}");
        }
        for (name, value) in &self.params {
            let _ = writeln!(out, "{name}: {value}");
        }
        for row in &self.arms {
            for v in &row.gate_violations {
                let _ = writeln!(out, "  VIOLATION [{}] {v}", row.arm);
            }
        }
        out
    }

    /// The file rendering, one schema for every sweep:
    /// `{bench, gate, gate_ok, params, arms: [{arm, metrics, gate_violations}]}`.
    pub fn to_json(&self) -> String {
        let object = |pairs: &[(&str, Value)]| {
            let fields: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let arms: Vec<String> = self
            .arms
            .iter()
            .map(|row| {
                let violations: Vec<String> =
                    row.gate_violations.iter().map(|v| json_str(v)).collect();
                format!(
                    "    {{\"arm\": {}, \"metrics\": {}, \"gate_violations\": [{}]}}",
                    json_str(&row.arm),
                    object(&row.metrics),
                    violations.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": {},\n  \"gate\": {},\n  \"gate_ok\": {},\n  \"params\": {},\n  \"arms\": [\n{}\n  ]\n}}\n",
            json_str(&self.bench),
            json_str(self.gate),
            self.gate_ok(),
            object(&self.params),
            arms.join(",\n")
        )
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one arm runner: drive `w` through sessions under each named
/// config. Arm 0 is the baseline; each later arm's violations are
/// `gate(label, baseline answers, arm answers)`.
fn run_arms(
    w: &Workload,
    arms: Vec<(String, EngineConfig)>,
    gate: impl Fn(&str, &Answers, &Answers) -> Vec<String>,
) -> Vec<(Row, RunReport)> {
    let mut base: Option<Answers> = None;
    arms.into_iter()
        .map(|(label, cfg)| {
            let (engine, answers) = qsys::drive_session(w, cfg, false);
            let mut row = Row::new(label);
            if let Some(base) = &base {
                row.gate_violations = gate(&row.arm, base, &answers);
            }
            base.get_or_insert(answers);
            (row, engine.report())
        })
        .collect()
}

/// The tie-aware identity gate against the baseline arm.
fn drifted(_: &str, base: &Answers, arm: &Answers) -> Vec<String> {
    qsys::answer_drift(base, arm)
        .iter()
        .map(|uq| format!("{uq}: answers drifted from the baseline arm"))
        .collect()
}

/// Chaos sweep (BENCH_5): a fault-free baseline, 1% and 5% transient
/// error rates, and a hard outage of one relation from t = 0, all seeded.
/// The gate is "no tuple loss on unfaulted relations": a query reported
/// `Complete` answers exactly like the fault-free run, in returned order,
/// and under the outage every non-reader of the victim resolves
/// `Complete`.
pub fn chaos_sweep(seed: u64, scale: Scale) -> Sweep {
    use qsys_workload::faults::FaultPlan;
    let w = gus_workload(seed, scale);
    let cfg = |spec: Option<String>| {
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = spec.map(|s| qsys::source::FaultSpec::parse(&s).expect("valid fault spec"));
        cfg
    };
    let readers = qsys::relation_readers(&w, &cfg(None)).expect("workload generates");
    let (victim, victim_readers) =
        qsys::outage_victim(&readers).expect("some relation has a minority of readers");
    let arms = vec![
        ("fault-free".into(), cfg(None)),
        (
            "transient-1pct".into(),
            cfg(Some(FaultPlan::new(1009).transient(0.01).build())),
        ),
        (
            "transient-5pct".into(),
            cfg(Some(FaultPlan::new(1009).transient(0.05).build())),
        ),
        (
            "hard-outage".into(),
            cfg(Some(FaultPlan::new(1009).outage(victim, 0, None).build())),
        ),
    ];
    let rows = run_arms(&w, arms, |label, base, arm| {
        let scope = (label == "hard-outage").then_some(&victim_readers);
        qsys::fault_isolation_violations(base, arm, scope)
            .iter()
            .map(|uq| format!("{uq}: tuple loss outside the faulted relation"))
            .collect()
    });
    let arms = rows
        .into_iter()
        .map(|(row, r)| {
            let f = &r.faults;
            row.int(
                "complete",
                r.per_uq.len().saturating_sub(f.degraded + f.failed),
            )
            .int("degraded", f.degraded)
            .int("failed", f.failed)
            .int("retries", f.source.retries)
            .int("transient_errors", f.source.transient_errors)
            .int("outage_errors", f.source.outage_errors)
            .int("breaker_trips", f.source.breaker_trips)
            .int("exhausted_fetches", f.source.exhausted_fetches)
            .int("quarantined_streams", f.source.quarantined_streams)
            .int("p50_response_us", r.response_percentile_us(50.0))
            .int("p99_response_us", r.response_percentile_us(99.0))
        })
        .collect();
    Sweep {
        bench:
            "Chaos sweep: deterministic fault injection vs per-query degradation (GUS, ATC-FULL)"
                .into(),
        gate: "no tuple loss on unfaulted relations: Complete answers bit-identical to the \
               fault-free run, non-readers of the outaged relation Complete",
        params: vec![
            ("outage_victim_rel", Value::Int(victim.into())),
            (
                "outage_victim_readers",
                Value::Int(victim_readers.len() as u64),
            ),
        ],
        arms,
    }
}

/// A scratch directory for snapshot benches (under the system temp dir;
/// removed by the caller).
fn restart_tmp_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qsys-restart-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    dir
}

/// The restart row of a run with persistence on.
fn restart_row(label: &str, r: &RunReport) -> Row {
    Row::new(label)
        .flag("loaded", r.snapshot.loaded)
        .int("lanes_loaded", r.snapshot.lanes_loaded)
        .int("snapshot_writes", r.snapshot.writes)
        .int("first_batch_warm_hits", first_batch_warm_hits(r))
}

fn first_batch_warm_hits(r: &RunReport) -> usize {
    r.opt_events.first().map_or(0, |e| e.warm_hits)
}

/// The restart gate on a run that should have rehydrated from a snapshot:
/// it loaded, its first batch replayed the warm plan instead of searching,
/// and it is decision-identical to a persistence-off run.
fn restart_violations(restarted: &RunReport, cold: &RunReport) -> Vec<String> {
    let mut violations = Vec::new();
    if !restarted.snapshot.loaded {
        let why = restarted.snapshot.reason.as_deref();
        violations.push(format!(
            "did not rehydrate from the snapshot ({})",
            why.unwrap_or("no reason recorded")
        ));
    }
    if first_batch_warm_hits(restarted) == 0 {
        violations.push("the first post-restart batch did not replay the warm plan".into());
    }
    if let Some(diff) = restarted.identity_diff(cold) {
        violations.push(format!("diverged from a persistence-off run: {diff}"));
    }
    violations
}

/// Restart sweep (BENCH_6): cold vs warm-in-process vs warm-from-snapshot
/// optimize time for a recurring batch, plus a full-`Engine` restart. The
/// probe is a repeat of batch 0 after three primed 5-UQ batches of the
/// seed-`seed` GUS stream; each arm's probe optimize is re-measured
/// `iters` times (state-idempotent — replaying a warm plan records the
/// same plan) and the minimum is reported, since the comparison is about
/// the code path, not scheduler noise. Gate: every arm decides exactly
/// like the cold search, and the restarted engine rehydrates, replays its
/// first batch warm, and is decision-identical to a persistence-off run.
pub fn restart_sweep(seed: u64, scale: Scale, iters: usize) -> Sweep {
    use qsys::snapshot::{
        catalog_fingerprint, load_snapshot, write_snapshot, LaneImage, SnapshotImage,
    };

    let workload = gus_workload(seed, scale);
    let engine_cfg = gus_engine(SharingMode::AtcFull, 5);
    let (uqs, _) = qsys::generate_user_queries(&workload, &engine_cfg).expect("generates");
    let opt_config = engine_cfg.optimizer_config(true);
    let prime: Vec<Batch> = uqs.chunks(5).take(3).map(batch_of).collect();
    let probe = prime[0].clone();
    let iters = iters.max(1);

    // One arm's probe: optimize the probe batch `iters` times over the
    // primed manager and keep the fastest.
    let measure = |manager: &qsys::state::QsManager, warm: bool| -> (DecisionRow, u128) {
        let optimizer = Optimizer::new(&workload.catalog, opt_config.clone());
        let interner = manager.shared_interner();
        let warm_cell = warm.then(|| manager.warm_cell());
        let mut best_us = u128::MAX;
        let mut row = None;
        for _ in 0..iters {
            let oracle = manager.reuse_oracle();
            let t = std::time::Instant::now();
            let (spec, stats) =
                optimizer.optimize_warm(&probe, &oracle, None, &interner, warm_cell.as_deref());
            best_us = best_us.min(t.elapsed().as_micros());
            row = Some(DecisionRow::new(&spec, &stats));
        }
        (row.expect("iters >= 1"), best_us)
    };

    // Arm 1 — cold: primed interner, no warm store, full search each time.
    let (cold_mgr, _) = optimize_decision_stream(&workload.catalog, &opt_config, &prime, false);
    let cold = measure(&cold_mgr, false);

    // Arm 2 — warm in-process: the same lane keeps its warm memo.
    let (warm_mgr, _) = optimize_decision_stream(&workload.catalog, &opt_config, &prime, true);
    let warm = measure(&warm_mgr, true);

    // Arm 3 — warm from snapshot: persist arm 2's state, reload it into a
    // fresh manager (a restarted process), and optimize there.
    let fp = opt_config.warm_fingerprint();
    let image = SnapshotImage {
        engine_fingerprint: fp.clone(),
        catalog_fingerprint: catalog_fingerprint(&workload.catalog),
        lanes: vec![LaneImage {
            interner: warm_mgr.shared_interner().borrow().export_entries(),
            warm: warm_mgr.warm_cell().borrow().export(),
            observed: Vec::new(),
        }],
    };
    let dir = restart_tmp_dir("sweep");
    let t = std::time::Instant::now();
    let snapshot_bytes = write_snapshot(&dir, &image, None).expect("publish snapshot");
    let write_us = t.elapsed().as_micros();
    let (mut lanes, summary) = load_snapshot(&dir, &fp, &workload.catalog, None);
    assert!(
        summary.loaded && summary.reason.is_none(),
        "clean snapshot must load cleanly: {summary:?}"
    );
    let loaded = lanes
        .first_mut()
        .and_then(Option::take)
        .expect("one lane in the image");
    let snap_mgr = qsys::state::QsManager::new(usize::MAX);
    *snap_mgr.shared_interner().borrow_mut() = loaded.interner;
    *snap_mgr.warm_cell().borrow_mut() = loaded.warm;
    let snap = measure(&snap_mgr, true);
    let _ = std::fs::remove_dir_all(&dir);

    let probe_row = |label: &str, (row, us): &(DecisionRow, u128)| {
        let mut out = Row::new(label)
            .int("optimize_us", *us)
            .int("warm_plan_replays", row.warm_hits);
        if row.decisions() != cold.0.decisions() {
            out.gate_violations
                .push("probe decisions differ from the cold search".into());
        }
        out
    };
    let mut arms = vec![
        probe_row("cold", &cold),
        probe_row("warm", &warm),
        probe_row("snapshot", &snap),
    ];

    // The full-Engine leg: prime with persistence on, "restart" (second
    // engine over the same directory), compare against persistence off.
    let dir = restart_tmp_dir("engine");
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.snapshot_dir = Some(dir.clone());
    run_workload(&workload, &cfg, Some(15)).expect("priming run");
    let restarted = run_workload(&workload, &cfg, Some(15)).expect("restarted run");
    cfg.snapshot_dir = None;
    let baseline = run_workload(&workload, &cfg, Some(15)).expect("baseline run");
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine_row = restart_row("engine-restart", &restarted);
    engine_row.gate_violations = restart_violations(&restarted, &baseline);
    arms.push(engine_row);

    Sweep {
        bench: "Restart sweep: cold vs warm-in-process vs warm-from-snapshot optimize time \
                (probe = repeat of batch 0 after 3 primed 5-UQ batches; min of measured iters)"
            .into(),
        gate: "decisions bit-identical across all arms and across an engine restart; the first \
               post-restart batch replays the warm plan",
        params: vec![
            ("snapshot_bytes", Value::Int(snapshot_bytes)),
            ("snapshot_write_us", Value::Int(write_us as u64)),
            ("snapshot_load_us", Value::Int(summary.load_us)),
            (
                "sections_salvaged",
                Value::Int(summary.sections_salvaged as u64),
            ),
            (
                "snapshot_vs_warm_ratio",
                Value::Float(snap.1 as f64 / (warm.1 as f64).max(1.0), 2),
            ),
        ],
        arms,
    }
}

/// One half of the cross-process restart check: CI runs `--phase prime`
/// and `--phase reload` as *separate processes* over the same directory,
/// so the reload genuinely starts from nothing but the snapshot file.
/// Runs the seed-`seed` GUS workload with warm-state persistence rooted at
/// `dir`. Prime's gate: a snapshot was published. Reload's gate: the
/// [`restart_sweep`] engine-restart gate against a persistence-off run.
pub fn restart_phase(seed: u64, scale: Scale, dir: &std::path::Path, reload: bool) -> Sweep {
    let workload = gus_workload(seed, scale);
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.snapshot_dir = Some(dir.to_path_buf());
    let report = run_workload(&workload, &cfg, Some(15)).expect("persistence run");
    let bytes_on_disk = std::fs::metadata(dir.join("qsys.snapshot")).map_or(0, |m| m.len());
    let phase = if reload { "reload" } else { "prime" };
    let mut row = restart_row(phase, &report).int("bytes_on_disk", bytes_on_disk);
    let gate = if reload {
        cfg.snapshot_dir = None;
        let cold = run_workload(&workload, &cfg, Some(15)).expect("baseline run");
        row.gate_violations = restart_violations(&report, &cold);
        "the restarted process rehydrates warm, replays its first batch, and decides exactly \
         like a persistence-off run"
    } else {
        if report.snapshot.writes == 0 || bytes_on_disk == 0 {
            row.gate_violations
                .push("the priming run published no snapshot".into());
        }
        "the priming run publishes a snapshot for the reload phase"
    };
    Sweep {
        bench: format!("Restart phase {phase}: warm-state persistence across processes"),
        gate,
        params: Vec::new(),
        arms: vec![row],
    }
}

/// Shard sweep (BENCH_7) on the multi-cluster ATC-CL reference workload:
/// unsharded baseline, then shard caps 2 / 4 / 8 at threshold 1.0 (one
/// UQ-equivalent, so every multi-UQ cluster splits up to the cap). Lanes
/// run sequentially (`lane_threads = 1`) so per-lane walls attribute
/// cleanly and Σ/max is the achievable parallel speedup bound. Gate:
/// tie-aware answer identity with the unsharded run at every cap; with
/// `check`, also that sharding does not lower the speedup bound.
pub fn shard_sweep(check: bool) -> Sweep {
    let w = atc_cl_reference_workload();
    let caps = [0usize, 2, 4, 8];
    let arms = caps
        .iter()
        .map(|&cap| {
            let mut cfg = atc_cl_reference_engine(1);
            if cap == 0 {
                return ("unsharded".to_string(), cfg);
            }
            cfg.sharding = qsys::ShardConfig::at(1.0);
            cfg.sharding.max_shards = cap;
            (format!("shards<={cap}"), cfg)
        })
        .collect();
    let rows = run_arms(&w, arms, drifted);
    let bound_unsharded = rows[0].1.lane_balance();
    let bound_sharded = rows[1..]
        .iter()
        .map(|(_, r)| r.lane_balance())
        .fold(bound_unsharded, f64::max);
    let mut arms: Vec<Row> = rows
        .into_iter()
        .zip(caps)
        .map(|((row, r), cap)| {
            let walls = &r.lane_wall_us;
            let max = walls.iter().copied().max().unwrap_or(0);
            let sum: u64 = walls.iter().sum();
            let sharded = r.lane_summaries.iter().filter(|l| l.shard_of.is_some());
            row.int("max_shards", cap)
                .int("lanes", r.lanes)
                .int("sharded_lanes", sharded.count())
                .float("max_wall_ms", max as f64 / 1e3, 1)
                .float("sum_wall_ms", sum as f64 / 1e3, 1)
                .float("lane_balance", r.lane_balance(), 2)
                .int("tuples_consumed", r.tuples_consumed)
                .int("tuples_streamed", r.tuples_streamed)
        })
        .collect();
    if check && bound_sharded < bound_unsharded {
        arms[0].gate_violations.push(format!(
            "sharding worsened the speedup bound ({bound_unsharded:.2}x -> {bound_sharded:.2}x)"
        ));
    }
    Sweep {
        bench: "Shard sweep: oversized-cluster sharding vs lane balance \
                (ATC-CL reference workload, lane_threads = 1)"
            .into(),
        gate: "per-UQ answer multisets identical to the unsharded run at every shard cap (up to \
               ties at the k-th score); with --check, sharding must not lower the speedup bound",
        params: vec![
            ("shard_threshold", Value::Float(1.0, 1)),
            ("speedup_bound_unsharded", Value::Float(bound_unsharded, 2)),
            ("speedup_bound_sharded", Value::Float(bound_sharded, 2)),
        ],
        arms,
    }
}

/// How hard the adaptive bench's catalog lies: each relation's reported
/// cardinality is `×0.25` or `×4` the truth (deterministic per-relation
/// spread — see `GusConfig::stats_error`), so the optimizer's relative
/// cost ordering is wrong and the executor's observations contradict the
/// frozen facts early.
pub const ADAPTIVE_STATS_ERROR: f64 = 0.25;

/// The GUS instance the adaptive bench runs: chosen (by scanning seeds)
/// so the skewed priors genuinely mislead the plan search *and keep
/// misleading it in later batches* — the static arm reads ~2.5k more
/// tuples than truthful priors would, most of it in batches after the
/// first, which is exactly the part runtime corrections can recover
/// (the first batch's plan is decided before any observation exists).
/// Most small GUS instances are insensitive to the skew (any plan reads
/// roughly the same streams), which would leave re-optimization nothing
/// to recover.
pub const ADAPTIVE_SEED: u64 = 81;

/// The drift-heavy GUS workload: the figure-scale script over a catalog
/// whose priors are skewed to [`ADAPTIVE_STATS_ERROR`] × the truth. The
/// *data* is identical to a truthful-catalog run — only the optimizer's
/// starting beliefs are wrong, which is exactly the regime mid-flight
/// re-optimization exists for.
pub fn adaptive_workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    // Rows stay under the optimizer's probe threshold even at the ×4
    // over-report, so the skew misleads *cardinalities* (which runtime
    // observation can correct) without flipping stream-vs-probe
    // modality (which it cannot — a probed relation never exhausts a
    // stream, so its true count is unobservable).
    cfg.min_rows = 100;
    cfg.max_rows = 240;
    cfg.user_queries = 15;
    cfg.stats_error = ADAPTIVE_STATS_ERROR;
    gus::generate(&cfg)
}

/// Adaptive sweep (BENCH_8): static plans, then mid-flight re-planning at
/// drift thresholds 1.25 / 1.5 / 2.0 on the drift-heavy workload. Gate:
/// tie-aware answer identity with the static run at every threshold (a
/// replan is a physical decision; the top-k must not move); with `check`,
/// also at least one mid-batch replan and a best adaptive mean response
/// below the static one.
pub fn adaptive_sweep(seed: u64, check: bool) -> Sweep {
    let w = adaptive_workload(seed);
    let drifts = [0.0, 1.25, 1.5, 2.0];
    let arms = drifts
        .iter()
        .map(|&drift| {
            let mut cfg = gus_engine(SharingMode::AtcFull, 5);
            cfg.lane_threads = 1;
            if drift == 0.0 {
                cfg.adaptive = qsys::opt::AdaptiveConfig::off();
                return ("static".to_string(), cfg);
            }
            cfg.adaptive = qsys::opt::AdaptiveConfig::at(drift);
            (format!("drift>{drift}x"), cfg)
        })
        .collect();
    let rows = run_arms(&w, arms, drifted);
    let mean_static = rows[0].1.mean_response_us();
    let mean_best = rows[1..]
        .iter()
        .map(|(_, r)| r.mean_response_us())
        .fold(mean_static, f64::min);
    let total_replans: u64 = rows.iter().map(|(_, r)| r.adaptive.replans).sum();
    let mut arms: Vec<Row> = rows
        .into_iter()
        .zip(drifts)
        .map(|((row, r), drift)| {
            let a = &r.adaptive;
            row.float("drift_threshold", drift, 2)
                .float("mean_response_us", r.mean_response_us(), 1)
                .int("p99_response_us", r.response_percentile_us(99.0))
                .int("drift_checks", a.drift_checks)
                .int("replans", a.replans)
                .int("replan_us", a.replan_us)
                .int("cards_corrected", a.cards_corrected)
                .int("tuples_consumed", r.tuples_consumed)
                .int("tuples_streamed", r.tuples_streamed)
        })
        .collect();
    if check && total_replans == 0 {
        arms[0]
            .gate_violations
            .push("no adaptive arm re-planned mid-batch on the drift-heavy workload".into());
    }
    if check && mean_best >= mean_static {
        arms[0].gate_violations.push(format!(
            "re-planning did not improve mean response \
             ({mean_static:.1}us static vs {mean_best:.1}us best adaptive)"
        ));
    }
    Sweep {
        bench: format!(
            "Adaptive sweep: mid-flight re-optimization vs static plans \
             (GUS, catalog priors at {:.0}% of true cardinality)",
            ADAPTIVE_STATS_ERROR * 100.0
        ),
        gate: "per-UQ answer multisets identical to the static run at every drift threshold (up \
               to ties at the k-th score); with --check, at least one replan and a best adaptive \
               mean response below the static one",
        params: vec![
            ("stats_error", Value::Float(ADAPTIVE_STATS_ERROR, 2)),
            ("mean_static_us", Value::Float(mean_static, 1)),
            ("mean_best_adaptive_us", Value::Float(mean_best, 1)),
            (
                "mean_improvement_pct",
                Value::Float(100.0 * (1.0 - mean_best / mean_static.max(1e-9)), 1),
            ),
            ("total_replans", Value::Int(total_replans)),
        ],
        arms,
    }
}

/// Invariant audit (`reproduce verify`): the default ATC-CL configuration
/// on each seed at 1 and 4 lane threads, plus one sharded, one chaos (5%
/// transient faults), and one adaptive arm — the configurations whose
/// phase machinery (shard split, fault quarantine, mid-flight replans)
/// exercises every invariant family the verifier checks. Each drained
/// engine is audited twice: its live structures via
/// [`qsys::Engine::verify`], and its on-disk image via a snapshot publish
/// → reload → verify round trip rooted under `dir`. Gate: no violation.
pub fn verify_audit(seeds: &[u64], scale: Scale, dir: &std::path::Path) -> Sweep {
    let mut arms = Vec::new();
    let mut audit = |label: String, w: &Workload, mut cfg: EngineConfig| {
        let snap_dir = dir.join(label.replace([' ', '/'], "_"));
        let _ = std::fs::create_dir_all(&snap_dir);
        // Publish only when asked: the audit wants exactly one image,
        // written after the drain, not the auto-cadence mid-run partials.
        cfg.snapshot_dir = Some(snap_dir);
        cfg.snapshot_every = usize::MAX;
        let (mut engine, _) = qsys::drive_session(w, cfg, false);
        let live: Vec<String> = engine
            .verify()
            .violations
            .iter()
            .map(|v| format!("live: {v}"))
            .collect();
        let (disk, snapshot_bytes) = match engine.snapshot() {
            Ok(bytes) => match engine.audit_snapshot() {
                Ok(report) => {
                    let disk = report.violations.iter().map(|v| format!("disk: {v}"));
                    (disk.collect(), bytes)
                }
                Err(why) => (vec![format!("disk: snapshot reload failed: {why}")], bytes),
            },
            Err(why) => (vec![format!("disk: snapshot publish failed: {why}")], 0),
        };
        let mut row = Row::new(label)
            .int("lanes", engine.report().lane_summaries.len())
            .int("snapshot_bytes", snapshot_bytes)
            .int("live_violations", live.len())
            .int("disk_violations", disk.len());
        row.gate_violations = live.into_iter().chain(disk).collect();
        arms.push(row);
    };
    for &seed in seeds {
        let w = gus_workload(seed, scale);
        for threads in [1usize, 4] {
            let mut cfg = gus_engine(SharingMode::AtcCl(ClusterConfig::default()), 5);
            cfg.lane_threads = threads;
            audit(format!("seed {seed} / atc-cl / threads {threads}"), &w, cfg);
        }
        // Sharded arm: force clusters past the one-UQ-equivalent
        // threshold so the shard-partition invariants actually fire.
        let mut cfg = gus_engine(SharingMode::AtcCl(ClusterConfig::default()), 5);
        cfg.sharding = qsys::ShardConfig::at(1.0);
        cfg.sharding.max_shards = 4;
        audit(format!("seed {seed} / shard<=4"), &w, cfg);
        // Chaos arm: 5% transient faults — quarantine/degradation paths.
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = qsys::source::FaultSpec::parse(
            &qsys_workload::faults::FaultPlan::new(1009)
                .transient(0.05)
                .build(),
        )
        .ok();
        audit(format!("seed {seed} / chaos-5pct"), &w, cfg);
    }
    // Adaptive arm: the drift-regime instance where replans genuinely
    // fire, so post-replan verification runs on a re-grafted graph.
    let w = adaptive_workload(ADAPTIVE_SEED);
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.lane_threads = 1;
    cfg.adaptive = qsys::opt::AdaptiveConfig::at(1.25);
    audit("adaptive drift>1.25x".into(), &w, cfg);
    Sweep {
        bench: "Invariant audit: live engine state and reloaded snapshots, per arm".into(),
        gate: "every arm verifies clean, live and from its reloaded snapshot",
        params: Vec::new(),
        arms,
    }
}

/// Input tuples the full seed-41 `Scale::Small` GUS script consumes under
/// ATC-FULL at `fetch_batch = 1` with the default engine configuration.
/// Recorded as `tuples_consumed` in `BENCH_4.json`'s "after" snapshot and
/// unchanged since; [`fetch_batch_sweep`] pins it.
pub const REFERENCE_TUPLES_CONSUMED: u64 = 47956;

/// Simulated stream-read network rounds of the same run (`stream_rounds`
/// in `BENCH_4.json`'s "after" snapshot); [`fetch_batch_sweep`] pins it.
pub const REFERENCE_STREAM_ROUNDS: u64 = 32731;

/// Fetch-ahead sweep: the seed-`seed` GUS workload under ATC-FULL
/// (optionally truncated to its first `limit` script queries) at
/// `fetch_batch` 1 and each value of `batches`. Batching regroups stream
/// reads into fewer network rounds without changing the tuple sequence,
/// so the gate is that every arm answers exactly like `fetch_batch = 1`
/// (tie-aware) and consumes the same number of tuples. On the reference
/// instance (seed 41, `Scale::Small`, the full script) the
/// `fetch_batch = 1` arm must also consume exactly
/// [`REFERENCE_TUPLES_CONSUMED`] tuples in [`REFERENCE_STREAM_ROUNDS`]
/// stream rounds: the end-to-end work golden of the default engine
/// configuration.
pub fn fetch_batch_sweep(
    seed: u64,
    scale: Scale,
    batches: &[usize],
    limit: Option<usize>,
) -> Sweep {
    let mut w = gus_workload(seed, scale);
    if let Some(n) = limit {
        w.queries.truncate(n);
    }
    let batches: Vec<usize> = std::iter::once(1)
        .chain(batches.iter().copied().filter(|&b| b != 1))
        .collect();
    let arms = batches
        .iter()
        .map(|&fetch_batch| {
            let mut cfg = gus_engine(SharingMode::AtcFull, 5);
            cfg.cost_profile.fetch_batch = fetch_batch;
            (format!("fetch_batch={fetch_batch}"), cfg)
        })
        .collect();
    let mut rows = run_arms(&w, arms, drifted);
    let base_tuples = rows[0].1.tuples_consumed;
    let base_us = rows[0].1.mean_response_us();
    if seed == 41 && scale == Scale::Small && limit.is_none() {
        let golden = [
            ("tuples", base_tuples, REFERENCE_TUPLES_CONSUMED),
            (
                "stream rounds",
                rows[0].1.stream_rounds,
                REFERENCE_STREAM_ROUNDS,
            ),
        ];
        for (what, got, want) in golden {
            if got != want {
                rows[0].0.gate_violations.push(format!(
                    "reference instance: {got} {what} at fetch_batch=1, golden is {want}"
                ));
            }
        }
    }
    let arms = rows
        .into_iter()
        .zip(batches)
        .map(|((mut row, r), fetch_batch)| {
            if r.tuples_consumed != base_tuples {
                row.gate_violations.push(format!(
                    "consumed {} tuples vs {base_tuples} at fetch_batch=1",
                    r.tuples_consumed
                ));
            }
            let mean_us = r.mean_response_us();
            row.int("fetch_batch", fetch_batch)
                .float("mean_response_us", mean_us, 1)
                .int("stream_rounds", r.stream_rounds)
                .int("tuples_consumed", r.tuples_consumed)
                .float(
                    "resp_delta_pct",
                    100.0 * (mean_us - base_us) / base_us.max(1e-9),
                    1,
                )
        })
        .collect();
    Sweep {
        bench: "Fetch-ahead sweep: response-time shift from stream fetch batching (GUS, ATC-FULL)"
            .into(),
        gate: "every fetch_batch answers like fetch_batch = 1 (up to ties at the k-th score) \
               and consumes the same tuples; on the reference instance fetch_batch = 1 \
               consumes the golden tuples in the golden stream rounds",
        params: Vec::new(),
        arms,
    }
}
