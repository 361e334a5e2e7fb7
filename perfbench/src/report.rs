//! The two run modes, their checks, and the result line.

use crate::digest::{Digest, References};
use crate::drive::{run_pass, Pass};
use crate::fixture::{
    build_engine, build_fixture, engine_config, workloads, Drive, SetupTimes, WorkloadDef,
};
use crate::mem;
use crate::replica::{run_traced, TracedPass};
use qsys::SharingMode;
use qsys_workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

pub struct RunArgs {
    pub seed: u64,
    pub instance_seed: u64,
    pub seconds: f64,
}

/// How many times a run sets the fixture up; `setup_s` is the median.
const SETUPS: usize = 3;

/// `mem_peak_mb` is the peak over this many passes (fewer if fewer fit).
/// With lanes on two threads one pass's peak depends on which lanes'
/// batches overlap; the second pass reaches the high mark that later ones
/// only creep past, so a fixed count keeps runs comparable whatever
/// number of passes fits in `--seconds`.
const MEM_PASSES: usize = 2;

/// The traced pass must account for all but this share of its wall.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// A metric as printed: name, value, unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// A readable table followed by the one-line JSON result.
fn render(
    title: &str,
    notes: &[String],
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> String {
    let mut out = format!("{title}\n");
    for m in &metrics.0 {
        let _ = writeln!(out, "  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in notes {
        let _ = writeln!(out, "  {n}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank median of sorted samples.
fn nearest_rank_median(sorted: &[f64]) -> f64 {
    sorted[sorted.len().div_ceil(2).max(1) - 1]
}

/// The sample at the highest percentile with at least ten samples beyond
/// it (the largest sample when there are ten or fewer), and that
/// percentile.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let rank = sorted.len().saturating_sub(10).max(1);
    (sorted[rank - 1], 100.0 * rank as f64 / sorted.len() as f64)
}

/// Set the fixture up `SETUPS` times — generate the instance, materialize
/// every relation, stand up the engine — and keep the last fixture. All
/// but the last set-up run in child processes: a set-up in a process that
/// just freed a fixture would also pay the allocator for that teardown.
fn setup(def: &WorkloadDef, args: &RunArgs) -> Result<(Workload, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    for _ in 1..SETUPS {
        times.push(child_setup(def, args)?);
    }
    let mut t = SetupTimes::default();
    let fx = build_fixture(args.instance_seed, &mut t);
    drop(build_engine(
        &fx,
        engine_config(def, def.sharing.clone(), args.seed),
        &mut t,
    ));
    times.push(t);
    Ok((fx, times))
}

/// One set-up in a fresh process (`--setup-probe`).
fn child_setup(def: &WorkloadDef, args: &RunArgs) -> Result<SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--setup-probe", "--workload", def.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--instance-seed", &args.instance_seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe did not run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    match (out.status.success(), fields.as_slice()) {
        (true, [generate_s, materialize_s, engine_s]) => Ok(SetupTimes {
            generate_s: *generate_s,
            materialize_s: *materialize_s,
            engine_s: *engine_s,
        }),
        _ => Err(format!("set-up probe failed ({}): {text}", out.status)),
    }
}

/// The child side of [`child_setup`]: set up once, print the times.
pub fn setup_probe(def: &WorkloadDef, args: &RunArgs) -> String {
    let mut t = SetupTimes::default();
    let fx = build_fixture(args.instance_seed, &mut t);
    drop(build_engine(
        &fx,
        engine_config(def, def.sharing.clone(), args.seed),
        &mut t,
    ));
    format!("{} {} {}", t.generate_s, t.materialize_s, t.engine_s)
}

/// Refuse to report from a misconfigured engine.
fn check_config(def: &WorkloadDef, args: &RunArgs, pass: &Pass) -> Result<(), String> {
    let config = engine_config(def, def.sharing.clone(), args.seed);
    let errors: Vec<String> = config
        .validate_all()
        .iter()
        .map(ToString::to_string)
        .chain(pass.report.config_errors.iter().cloned())
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "engine configuration errors: {}",
            errors.join("; ")
        ))
    }
}

/// Write the effective configuration (and, for traced runs, the spans)
/// under `.bench_out/` in the working directory.
fn write_artifact(name: &str, body: &str) {
    let dir = std::path::Path::new(".bench_out");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), body);
    }
}

fn effective_config(def: &WorkloadDef, args: &RunArgs) -> String {
    format!(
        "workload: {def:#?}\ninstance_seed: {}\nnet_seed: {}\nengine: {:#?}\n",
        args.instance_seed,
        args.seed,
        engine_config(def, def.sharing.clone(), args.seed)
    )
}

/// Count the queries of a pass that did not complete or whose answers
/// differ from the reference.
fn failures(k: usize, digests: &[(usize, bool, Digest)], refs: &References) -> u64 {
    digests
        .iter()
        .filter(|(pos, complete, d)| !complete || refs.get(k, *pos) != Some(*d))
        .count() as u64
}

fn pass_failures(def: &WorkloadDef, pass: &Pass, refs: &References) -> u64 {
    let digests: Vec<(usize, bool, Digest)> = pass
        .queries
        .iter()
        .map(|q| (q.pos, q.complete, q.digest))
        .collect();
    failures(def.k, &digests, refs) + (def.queries - pass.queries.len()) as u64
}

/// `--trace 0`: the end-to-end run.
pub fn run_end_to_end(
    def: &WorkloadDef,
    args: &RunArgs,
    refs: &References,
) -> Result<String, String> {
    let (fx, setups) = setup(def, args)?;
    write_artifact(
        &format!("{}-seed{}-config.txt", def.name, args.seed),
        &effective_config(def, args),
    );
    let n = def.queries;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut qps = Vec::new();
    let mut sim_mean = 0.0;
    // Latency of each script position, one sample per pass.
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut latency_log = String::from("pass\tpos\tlatency_ns\n");
    let base = mem::reset_peak()?;
    let mut peak_mb = None;
    let start = Instant::now();
    while qps.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&fx, def, args.seed, false);
        if qps.is_empty() {
            check_config(def, args, &pass)?;
            sim_mean = pass.report.mean_response_us() / 1e3;
        }
        if qps.len() == MEM_PASSES - 1 {
            peak_mb = Some(mem::peak_growth(base)? as f64 / 1e6);
        }
        let mean = pass.report.mean_response_us() / 1e3;
        if mean != sim_mean {
            return Err(format!(
                "simulated mean response changed between passes: {sim_mean} vs {mean}"
            ));
        }
        attempted += n as u64;
        failed += pass_failures(def, &pass, refs);
        qps.push(pass.queries.len() as f64 / (pass.wall_ns as f64 / 1e9));
        for q in &pass.queries {
            per_query[q.pos].push(q.latency_ns as f64 / 1e6);
            let _ = writeln!(latency_log, "{}\t{}\t{}", qps.len(), q.pos, q.latency_ns);
        }
        eprintln!(
            "{} pass {}: wall {:.3}s",
            def.name,
            qps.len(),
            pass.wall_ns as f64 / 1e9
        );
    }
    let peak_mb = match peak_mb {
        Some(mb) => mb,
        None => mem::peak_growth(base)? as f64 / 1e6,
    };
    write_artifact(
        &format!("{}-seed{}-latency.tsv", def.name, args.seed),
        &latency_log,
    );
    // Each query's mean over the passes, then percentiles over the
    // queries: the tail percentile stays fixed however many passes fit
    // in the run, and per-query noise averages out across passes.
    let mut lat: Vec<f64> = per_query
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    lat.sort_by(f64::total_cmp);
    let (tail_ms, tail_p) = tail(&lat);
    let passes = qps.len();
    let mut m = Metrics::default();
    m.put("throughput_qps", median(qps), "1/s");
    m.put("latency_p50_ms", nearest_rank_median(&lat), "ms");
    m.put("latency_tail_ms", tail_ms, "ms");
    m.put("sim_response_mean_ms", sim_mean, "ms");
    m.put(
        "setup_s",
        median(setups.iter().map(SetupTimes::total).collect()),
        "s",
    );
    m.put("mem_peak_mb", peak_mb, "MB");
    let notes = vec![
        format!(
            "latencies are each query's mean over the passes; latency_tail_ms is \
             their p{tail_p:.2} (nearest rank): {} samples, 10 beyond it",
            lat.len()
        ),
        format!(
            "failed_ratio {} ({failed} of {attempted} queries incomplete or differing from the ATC-CQ reference)",
            failed as f64 / attempted as f64
        ),
        format!(
            "setup_s is the median of {SETUPS} set-ups (generate + materialize + engine); \
             materialize took {:.3}s of the last; mem_peak_mb is the peak over the first {MEM_PASSES} passes",
            setups[SETUPS - 1].materialize_s
        ),
    ];
    let title = format!(
        "{}: end to end, seed {}, instance {}, {passes} pass(es) of {n} queries",
        def.name, args.seed, args.instance_seed
    );
    Ok(render(&title, &notes, failed == 0, attempted, failed, &m))
}

/// `--trace 1`: alternate engine-driven passes (spans around `submit`,
/// `step`, `flush`) with traced replica passes; gate the replica on
/// identity with the engine and on its layer sums; report per-layer
/// metrics.
pub fn run_traced_mode(
    def: &WorkloadDef,
    args: &RunArgs,
    refs: &References,
) -> Result<String, String> {
    let (fx, setups) = setup(def, args)?;
    write_artifact(
        &format!("{}-seed{}-config.txt", def.name, args.seed),
        &effective_config(def, args),
    );
    let mut engine_passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&fx, def, args.seed, true);
        check_config(def, args, &pass)?;
        attempted += def.queries as u64;
        failed += pass_failures(def, &pass, refs);
        let t = run_traced(&fx, def, args.seed);
        attempted += def.queries as u64;
        let digests: Vec<(usize, bool, Digest)> =
            t.finished.iter().map(|(p, d, _)| (*p, true, *d)).collect();
        failed += failures(def.k, &digests, refs) + (def.queries - t.finished.len()) as u64;
        problems.extend(identity_problems(&pass, &t));
        if let Some(first) = traced.first() {
            problems.extend(count_problems(first, &t));
        }
        eprintln!(
            "{} traced round {}: engine {:.3}s, replica {:.3}s",
            def.name,
            traced.len() + 1,
            pass.wall_ns as f64 / 1e9,
            t.wall_ns as f64 / 1e9
        );
        engine_passes.push(pass);
        traced.push(t);
    }
    let layers: Vec<Layers> = traced.iter().map(Layers::of).collect();
    let unattributed = median(layers.iter().map(|l| l.unattributed_pct).collect());
    if unattributed > MAX_UNATTRIBUTED_PCT {
        problems.push(format!(
            "layers leave {unattributed:.2}% of the traced wall unattributed (limit {MAX_UNATTRIBUTED_PCT}%)"
        ));
    }
    let mut spans = String::new();
    traced[0].main.write_jsonl(&mut spans, None);
    for (i, lane) in traced[0].lanes.iter().enumerate() {
        lane.write_jsonl(&mut spans, Some(i));
    }
    write_artifact(
        &format!("{}-seed{}-spans.jsonl", def.name, args.seed),
        &spans,
    );
    if !problems.is_empty() || failed > 0 {
        // No layer numbers from a run that failed a check.
        let title = format!(
            "{}: traced run failed its checks ({failed} of {attempted} queries wrong)",
            def.name
        );
        return Err(render(
            &title,
            &problems,
            false,
            attempted,
            failed,
            &Metrics::default(),
        ));
    }

    let engine_wall = median(engine_passes.iter().map(|p| p.wall_ns as f64).collect());
    let replica_wall = median(traced.iter().map(|t| t.wall_ns as f64).collect());
    let ms = |f: &dyn Fn(&Layers) -> f64| median(layers.iter().map(f).collect());
    let first = &layers[0];
    let t0 = &traced[0];
    let report = &engine_passes[0].report;
    let mut m = Metrics::default();
    let read = first.hot("exec.read");
    m.put("exec.read_ms", ms(&|l| l.hot_ms("exec.read")), "ms");
    m.put("exec.reads", read.calls as f64, "count");
    m.put(
        "exec.ns_per_read",
        ms(&|l| l.hot_ms("exec.read")) * 1e6 / read.calls.max(1) as f64,
        "ns",
    );
    let delivered: u64 = t0.lane_counts.iter().map(|c| c.reads_delivered).sum();
    m.put(
        "exec.delivered_ratio",
        delivered as f64 / read.calls.max(1) as f64,
        "ratio",
    );
    m.put("exec.bounds_ms", ms(&|l| l.hot_ms("exec.bounds")), "ms");
    m.put(
        "exec.bounds_calls",
        first.hot("exec.bounds").calls as f64,
        "count",
    );
    m.put("exec.atc_ms", ms(&|l| l.total_ms("exec.atc")), "ms");
    let rounds: u64 = t0.lane_counts.iter().map(|c| c.rounds).sum();
    m.put("exec.rounds", rounds as f64, "count");
    m.put("exec.maintain_ms", ms(&|l| l.hot_ms("exec.maintain")), "ms");
    m.put("exec.choose_ms", ms(&|l| l.hot_ms("exec.choose")), "ms");
    m.put("exec.sched_ms", ms(&|l| l.self_ms("exec.atc")), "ms");
    let sum = |f: fn(&crate::replica::LaneCounts) -> u64| -> f64 {
        t0.lane_counts.iter().map(f).sum::<u64>() as f64
    };
    let max = |f: fn(&crate::replica::LaneCounts) -> u64| -> f64 {
        t0.lane_counts.iter().map(f).max().unwrap_or(0) as f64
    };
    m.put("state.graft_ms", ms(&|l| l.self_ms("state.graft")), "ms");
    m.put("state.grafts", sum(|c| c.grafts), "count");
    m.put("state.reused_nodes", sum(|c| c.reused_nodes), "count");
    m.put("state.recovered_cqs", sum(|c| c.recovered_cqs), "count");
    m.put(
        "state.unlink_ms",
        ms(&|l| l.self_ms("state.unlink") + l.self_ms("state.evict")),
        "ms",
    );
    m.put("state.graph_nodes_max", max(|c| c.graph_nodes_max), "count");
    m.put("state.graph_bytes_max", max(|c| c.graph_bytes_max), "bytes");
    m.put("opt.optimize_ms", ms(&|l| l.self_ms("opt.optimize")), "ms");
    let calls = sum(|c| c.opt_calls);
    m.put("opt.calls", calls, "count");
    m.put("opt.explored", sum(|c| c.opt_explored), "count");
    m.put("opt.warm_hits", sum(|c| c.opt_warm_hits), "count");
    m.put(
        "opt.warm_hit_ratio",
        sum(|c| c.opt_warm_hits) / calls.max(1.0),
        "ratio",
    );
    m.put("opt.cluster_ms", ms(&|l| l.self_ms("opt.cluster")), "ms");
    let walls = |p: &Pass| -> Vec<f64> {
        p.report
            .lane_wall_us
            .iter()
            .map(|w| *w as f64 / 1e3)
            .collect()
    };
    m.put("lanes.count", report.lanes as f64, "count");
    m.put(
        "lanes.wall_ms_max",
        median(
            engine_passes
                .iter()
                .map(|p| walls(p).into_iter().fold(0.0, f64::max))
                .collect(),
        ),
        "ms",
    );
    m.put(
        "lanes.wall_ms_sum",
        median(
            engine_passes
                .iter()
                .map(|p| walls(p).iter().sum())
                .collect(),
        ),
        "ms",
    );
    m.put(
        "lanes.balance",
        median(
            engine_passes
                .iter()
                .map(|p| p.report.lane_balance())
                .collect(),
        ),
        "ratio",
    );
    m.put(
        "lanes.dispatch_ms",
        ms(&|l| l.self_ms("lanes.dispatch")),
        "ms",
    );
    m.put(
        "query.generate_ms",
        ms(&|l| l.self_ms("query.generate")),
        "ms",
    );
    m.put("query.cqs_generated", t0.cqs_generated as f64, "count");
    let session = |name: &'static str| -> f64 {
        median(
            engine_passes
                .iter()
                .map(|p| p.tracer.as_ref().map_or(0, |t| t.total_ns(name)) as f64 / 1e6)
                .collect(),
        )
    };
    m.put("session.submit_ms", session("session.submit"), "ms");
    m.put("session.step_ms", session("session.step"), "ms");
    m.put(
        "session.publish_ms",
        ms(&|l| l.self_ms("lane.publish")),
        "ms",
    );
    m.put(
        "source.tuples_consumed",
        report.tuples_consumed as f64,
        "count",
    );
    m.put(
        "source.tuples_streamed",
        report.tuples_streamed as f64,
        "count",
    );
    m.put("source.probes", report.probes as f64, "count");
    m.put("source.stream_rounds", report.stream_rounds as f64, "count");
    let answers: usize = report.per_uq.iter().map(|u| u.results).sum();
    m.put(
        "source.answers_per_ktuple",
        answers as f64 * 1e3 / report.tuples_consumed.max(1) as f64,
        "ratio",
    );
    let b = &report.breakdown;
    m.put("sim.stream_read_ms", b.stream_read_us as f64 / 1e3, "ms");
    m.put(
        "sim.random_access_ms",
        b.random_access_us as f64 / 1e3,
        "ms",
    );
    m.put("sim.join_ms", b.join_us as f64 / 1e3, "ms");
    m.put("sim.optimize_ms", b.optimize_us as f64 / 1e3, "ms");
    m.put(
        "setup.generate_ms",
        median(setups.iter().map(|s| s.generate_s * 1e3).collect()),
        "ms",
    );
    m.put(
        "setup.materialize_ms",
        median(setups.iter().map(|s| s.materialize_s * 1e3).collect()),
        "ms",
    );
    m.put(
        "setup.engine_ms",
        median(setups.iter().map(|s| s.engine_s * 1e3).collect()),
        "ms",
    );
    m.put(
        "trace.overhead_pct",
        (replica_wall - engine_wall) / engine_wall * 100.0,
        "%",
    );
    m.put("trace.unattributed_pct", unattributed, "%");
    let notes = vec![
        format!(
            "layer shares of traced time: {}",
            first.shares()
        ),
        format!(
            "identity: {} replica pass(es) matched the engine's per-query simulated responses, tuples and probes",
            traced.len()
        ),
        format!("slowest batches: {}", slowest_batches(t0, 3)),
    ];
    let title = format!(
        "{}: traced, seed {}, instance {}, {} engine + {} replica passes",
        def.name,
        args.seed,
        args.instance_seed,
        engine_passes.len(),
        traced.len()
    );
    Ok(render(&title, &notes, true, attempted, 0, &m))
}

/// The `n` longest batches of a traced pass with the share of their wall
/// spent in each hot exec call. A batch is named by its first query's
/// script position.
fn slowest_batches(t: &TracedPass, n: usize) -> String {
    // (wall ns, lane, batch id, hot-call ns by name)
    type Batch = (u64, usize, u64, Vec<(&'static str, u64)>);
    let mut batches: Vec<Batch> = Vec::new();
    for (lane, tracer) in t.lanes.iter().enumerate() {
        for b in tracer.spans.iter().filter(|s| s.name == "lane.batch") {
            let hot = tracer
                .spans
                .iter()
                .find(|s| s.name == "exec.atc" && s.id == b.id)
                .map(|atc| atc.hot.iter().map(|(name, h)| (*name, h.ns)).collect())
                .unwrap_or_default();
            batches.push((b.dur_ns(), lane, b.id, hot));
        }
    }
    batches.sort_by_key(|b| std::cmp::Reverse(b.0));
    batches
        .iter()
        .take(n)
        .map(|(dur, lane, id, hot)| {
            let mut hot = hot.clone();
            hot.sort_by_key(|h| std::cmp::Reverse(h.1));
            let parts: Vec<String> = hot
                .iter()
                .take(2)
                .map(|(name, ns)| {
                    format!("{name} {:.1}%", *ns as f64 * 100.0 / (*dur).max(1) as f64)
                })
                .collect();
            format!(
                "batch@{id} (lane {lane}) {:.1} ms [{}]",
                *dur as f64 / 1e6,
                parts.join(", ")
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Replica vs engine: per-query simulated response, total tuples and
/// probes must be identical.
fn identity_problems(pass: &Pass, t: &TracedPass) -> Vec<String> {
    let mut out = Vec::new();
    let engine: Vec<(usize, u64)> = pass
        .queries
        .iter()
        .map(|q| (q.pos, q.response_us))
        .collect();
    let replica: Vec<(usize, u64)> = t.finished.iter().map(|(p, _, r)| (*p, *r)).collect();
    if engine != replica {
        let first = engine
            .iter()
            .zip(&replica)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first difference: engine {a:?} vs replica {b:?}"))
            .unwrap_or_else(|| format!("{} vs {} queries", engine.len(), replica.len()));
        out.push(format!("per-query simulated responses differ ({first})"));
    }
    let r = &pass.report;
    for (what, e, x) in [
        ("tuples_consumed", r.tuples_consumed, t.tuples_consumed),
        ("probes", r.probes, t.probes),
        ("tuples_streamed", r.tuples_streamed, t.tuples_streamed),
        ("stream_rounds", r.stream_rounds, t.stream_rounds),
    ] {
        if e != x {
            out.push(format!("{what}: engine {e} vs replica {x}"));
        }
    }
    out
}

/// Counts must repeat exactly across traced passes.
fn count_problems(first: &TracedPass, t: &TracedPass) -> Vec<String> {
    let key = |t: &TracedPass| -> Vec<u64> {
        let mut v: Vec<u64> = t
            .lane_counts
            .iter()
            .flat_map(|c| {
                [
                    c.rounds,
                    c.reads_delivered,
                    c.grafts,
                    c.reused_nodes,
                    c.recovered_cqs,
                    c.opt_calls,
                    c.opt_explored,
                    c.opt_warm_hits,
                    c.graph_nodes_max,
                    c.graph_bytes_max,
                ]
            })
            .collect();
        for lane in &t.lanes {
            v.extend(lane.hot_totals().values().map(|h| h.calls));
        }
        v
    };
    if key(first) == key(t) {
        Vec::new()
    } else {
        vec!["layer counts differ between traced passes".into()]
    }
}

/// One traced pass folded into per-layer times.
struct Layers {
    /// Self time per span or hot-call name, ns, over every lane and the
    /// pass's own thread.
    self_ns: BTreeMap<&'static str, u64>,
    /// Inclusive time per span name, ns.
    total_ns: BTreeMap<&'static str, u64>,
    hot: BTreeMap<&'static str, crate::trace::Hot>,
    /// Share of each thread's traced wall outside every named layer, the
    /// larger of the pass thread's and the lanes' (percent).
    unattributed_pct: f64,
}

/// Length of `[from, to)` covered by the union of sorted intervals.
fn covered(intervals: &[(u64, u64)], from: u64, to: u64) -> u64 {
    let (mut total, mut reach) = (0, from);
    for &(start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(to));
        if start < end {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Container spans: their self time is bookkeeping, not a layer.
const CONTAINERS: [&str; 2] = ["pass", "lane.batch"];

impl Layers {
    fn of(t: &TracedPass) -> Layers {
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut total_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut hot: BTreeMap<&'static str, crate::trace::Hot> = BTreeMap::new();
        for tracer in std::iter::once(&t.main).chain(&t.lanes) {
            for (name, ns) in tracer.self_ns_by_name() {
                *self_ns.entry(name).or_default() += ns;
            }
            for s in &tracer.spans {
                *total_ns.entry(s.name).or_default() += s.dur_ns();
            }
            for (name, h) in tracer.hot_totals() {
                let e = hot.entry(name).or_default();
                e.ns += h.ns;
                e.calls += h.calls;
            }
        }
        // Lane batches run inside the pass thread's dispatch spans, on it
        // or on worker threads. Their time is the lanes'; dispatch keeps
        // only the part of its wall no batch covers.
        let lane_wall: u64 = t.lane_wall_ns.iter().sum();
        let mut batches: Vec<(u64, u64)> = t
            .lanes
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.name == "lane.batch")
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        batches.sort_unstable();
        let dispatch_uncovered: u64 = t
            .main
            .spans
            .iter()
            .filter(|s| s.name == "lanes.dispatch")
            .map(|d| {
                d.dur_ns()
                    .saturating_sub(covered(&batches, d.start_ns, d.end_ns))
            })
            .sum();
        self_ns.insert("lanes.dispatch", dispatch_uncovered);
        let main_unattr = t.main.self_ns_by_name().get("pass").copied().unwrap_or(0);
        let lane_unattr: u64 = t
            .lanes
            .iter()
            .map(|l| l.self_ns_by_name().get("lane.batch").copied().unwrap_or(0))
            .sum();
        let pct = |part: u64, whole: u64| part as f64 * 100.0 / whole.max(1) as f64;
        Layers {
            unattributed_pct: pct(main_unattr, t.wall_ns).max(pct(lane_unattr, lane_wall)),
            self_ns,
            total_ns,
            hot,
        }
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    fn hot(&self, name: &str) -> crate::trace::Hot {
        self.hot.get(name).copied().unwrap_or_default()
    }

    fn hot_ms(&self, name: &str) -> f64 {
        self.hot(name).ns as f64 / 1e6
    }

    /// Each layer's self time as a share of all traced time: the lanes'
    /// plus the pass thread's outside lane batches.
    fn shares(&self) -> String {
        let total: u64 = self.self_ns.values().sum();
        let mut parts: Vec<(&str, u64)> = self
            .self_ns
            .iter()
            .filter(|(name, _)| !CONTAINERS.contains(name))
            .map(|(n, ns)| (*n, *ns))
            .collect();
        parts.sort_by_key(|p| std::cmp::Reverse(p.1));
        parts
            .iter()
            .map(|(n, ns)| format!("{n} {:.1}%", *ns as f64 * 100.0 / total.max(1) as f64))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// ATC-CQ (share-nothing) answer digests for every distinct `(k, script
/// length, batch size)` among the workloads.
pub fn compute_references(fx: &Workload, net_seed: u64) -> References {
    let mut refs = References::default();
    for def in workloads() {
        if refs.by_k.contains_key(&def.k) {
            continue;
        }
        let cq = WorkloadDef {
            sharing: SharingMode::AtcCq,
            lane_threads: 1,
            drive: Drive::ClosedLoop {
                clients: def.batch_size,
            },
            ..def.clone()
        };
        let t = Instant::now();
        let pass = run_pass(fx, &cq, net_seed, false);
        eprintln!(
            "reference k={} ({} queries, ATC-CQ): {:.1}s",
            def.k,
            def.queries,
            t.elapsed().as_secs_f64()
        );
        let mut list = vec![None; def.queries];
        for q in &pass.queries {
            assert!(q.complete, "reference query {} did not complete", q.pos);
            list[q.pos] = Some(q.digest);
        }
        refs.by_k.insert(
            def.k,
            list.into_iter()
                .map(|d| d.expect("every reference query finished"))
                .collect(),
        );
    }
    refs
}
