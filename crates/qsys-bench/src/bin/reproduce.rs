//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p qsys-bench --bin reproduce -- all
//! cargo run --release -p qsys-bench --bin reproduce -- fig7 --seeds 4
//! cargo run --release -p qsys-bench --bin reproduce -- table4 --scale paper
//! ```
//!
//! Experiments: `table4 fig7 fig8 fig9 fig10 fig11 fig12`
//! Ablations:   `ablation-atc ablation-recovery ablation-eviction ablation-probe-cache`
//!
//! Sweeps: `chaos`, `shard`, `adaptive`, `restart`, `verify` and
//! `fetch-batch` each run a list of named arms and gate them. The
//! session-driven arms share one runner (`qsys::drive_session` under each
//! arm's config, arm 0 the baseline), and every sweep returns the same
//! `Sweep` of rows — label, ordered `(metric, value)` pairs, gate
//! violations. One printer renders it as the stdout table and one
//! emitter writes it to `--out FILE` in the one schema
//! `{bench, gate, gate_ok, params, arms: [{arm, metrics, gate_violations}]}`.
//! A sweep exits 1 when any arm violates its gate.
//!
//! - `chaos` — fault-free vs 1% / 5% transient errors vs a hard outage of
//!   one relation. Gate: `Complete` answers equal the fault-free run in
//!   returned order, and non-readers of the outaged relation stay
//!   `Complete`.
//! - `shard [--check]` — unsharded vs shard caps 2 / 4 / 8 on the ATC-CL
//!   reference workload. Gate: tie-aware answer identity at every cap;
//!   `--check` also requires that sharding does not lower the Σ/max
//!   speedup bound.
//! - `adaptive [--check]` — static vs drift thresholds 1.25 / 1.5 / 2.0 on
//!   a drift-heavy catalog. Gate: tie-aware answer identity; `--check`
//!   also requires at least one replan and a best mean response below the
//!   static one.
//! - `restart [--iters N]` — cold vs warm-in-process vs warm-from-snapshot
//!   optimize time for a recurring batch, plus a full engine restart.
//!   Gate: identical decisions; the restarted engine rehydrates, replays
//!   its first batch warm, and is decision-identical to a persistence-off
//!   run. `restart --phase prime --dir D` then `--phase reload --dir D`
//!   split the restart across two OS processes: prime must publish a
//!   snapshot, reload must pass the engine-restart gate.
//! - `verify [--dir D]` — drive the standard GUS seeds through ATC-CL at 1
//!   and 4 lane threads plus one sharded, one chaos and one adaptive arm,
//!   and audit every live engine and its reloaded snapshot. Gate: no
//!   violation.
//! - `fetch-batch [--batches 4,8,32] [--limit N]` — stream fetch-ahead at
//!   each `fetch_batch` against `fetch_batch = 1`. Gate: identical answers
//!   (tie-aware) and tuples consumed; on the reference instance (seed 41,
//!   small scale, no `--limit`) `fetch_batch = 1` must also consume the
//!   golden tuple count in the golden number of stream rounds.
//!
//! All of the above report virtual-clock results. Host time is measured
//! by the repo benchmark in `perfbench/` (see its README), and
//! `scripts/ab.sh` runs it as a same-machine A/B against a base revision.
//!
//! Every subcommand accepts `--lane-threads N` to cap how many ATC-CL
//! lanes execute concurrently (default: the machine's parallelism; the
//! env equivalent is `QSYS_LANE_THREADS`).

use qsys_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scale = match flag_value(&args, "--scale").as_deref() {
        Some("paper") => Scale::Paper,
        _ => Scale::Small,
    };
    let n_seeds: usize = flag_value(&args, "--seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    // The paper used 4 synthetic instances; seeds play that role.
    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| 41 + i * 7).collect();
    // `--lane-threads N`: cap on concurrently executing ATC-CL lanes for
    // every experiment (the flag equivalent of `QSYS_LANE_THREADS`).
    if let Some(s) = flag_value(&args, "--lane-threads") {
        set_lane_threads(s.parse().unwrap_or_else(|_| {
            eprintln!("--lane-threads wants a positive integer");
            std::process::exit(2);
        }));
    }

    let check = args.iter().any(|a| a == "--check");

    println!("# scale: {scale:?} | instance seeds: {seeds:?} | virtual-clock results\n");
    let t0 = std::time::Instant::now();
    match what {
        // The sweeps: each returns one `Sweep` (named arms, one row type),
        // printed as a table, optionally written as JSON with `--out FILE`,
        // and exit 1 when any arm violates the sweep's gate.
        "chaos" => finish(&chaos_sweep(seeds[0], scale), &args),
        "shard" => finish(&shard_sweep(check), &args),
        // Runs the fixed drift-regime instance (`ADAPTIVE_SEED`) rather
        // than `--seeds`: the sweep needs an instance where the skewed
        // priors genuinely mislead the plan search, and most small
        // instances are insensitive.
        "adaptive" => finish(&adaptive_sweep(ADAPTIVE_SEED, check), &args),
        "restart" => match flag_value(&args, "--phase").as_deref() {
            // `--phase prime --dir D` / `--phase reload --dir D` split the
            // restart across two *processes*: prime runs with persistence
            // rooted at D and exits; reload starts from nothing but D's
            // snapshot file.
            Some(phase @ ("prime" | "reload")) => {
                let Some(dir) = flag_value(&args, "--dir") else {
                    eprintln!("--phase requires --dir DIR (shared across both phases)");
                    std::process::exit(2);
                };
                let dir = std::path::PathBuf::from(dir);
                std::fs::create_dir_all(&dir).expect("create snapshot dir");
                finish(
                    &restart_phase(seeds[0], scale, &dir, phase == "reload"),
                    &args,
                );
            }
            Some(other) => {
                eprintln!("unknown --phase '{other}' (choose: prime reload)");
                std::process::exit(2);
            }
            None => {
                let iters: usize = flag_value(&args, "--iters")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(10);
                finish(&restart_sweep(seeds[0], scale, iters), &args);
            }
        },
        "verify" => {
            // `--dir D` roots the snapshot scratch space (default: a
            // per-process directory under the system temp dir).
            let dir = flag_value(&args, "--dir")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("qsys-verify-{}", std::process::id()))
                });
            std::fs::create_dir_all(&dir).expect("create verify scratch dir");
            finish(&verify_audit(&seeds, scale, &dir), &args);
        }
        "table4" => print_table4(&table4(&seeds, scale)),
        "fig7" => print_fig7(&fig7_runs(&seeds, scale, None)),
        "fig8" => print_fig8(&fig7_runs(&seeds, scale, None)),
        "fig9" => {
            let (s, b) = fig9(&seeds, scale);
            print_fig9(&s, &b);
        }
        "fig10" => print_fig10(&fig10(&seeds, scale)),
        "fig11" => print_fig11(&fig11(seeds[0], scale)),
        "fig12" => print_fig12(&fig12(&seeds, scale)),
        "ablation-atc" => {
            println!("Ablation: ATC scheduling policy (mean response, virtual s)");
            for (label, mean) in ablation_atc(seeds[0], scale) {
                println!("{label:>16}: {mean:.3}");
            }
        }
        "ablation-recovery" => {
            let (warm, cold) = ablation_recovery(seeds[0], scale);
            println!("Ablation: RecoverState vs re-execution (stream reads for a repeated query)");
            println!("  warm (recovered): {warm}");
            println!("  cold (fresh)    : {cold}");
        }
        "ablation-eviction" => {
            println!("Ablation: memory budget / eviction pressure (stream reads, 10 UQs)");
            for (label, reads) in ablation_eviction(seeds[0], scale) {
                println!("{label:>12}: {reads}");
            }
        }
        "ablation-probe-cache" => {
            println!("Ablation: probe-cache sharing (ATC-FULL, 10 UQs)");
            for (label, probes, mean) in ablation_probe_cache(seeds[0], scale) {
                println!("{label:>8}: {probes} remote probes, mean response {mean:.3}s");
            }
        }
        "fetch-batch" | "sweep-fetch-batch" => {
            // `--batches 4,8,32` selects the fetch_batch values besides the
            // baseline 1; `--limit N` truncates the script (default: the
            // full 15-UQ script).
            let batches: Vec<usize> = flag_value(&args, "--batches")
                .map(|s| {
                    s.split(',')
                        .map(|v| {
                            v.trim().parse().unwrap_or_else(|_| {
                                eprintln!("--batches wants comma-separated positive integers");
                                std::process::exit(2);
                            })
                        })
                        .collect()
                })
                .unwrap_or_else(|| vec![1, 4, 8, 16, 32]);
            let limit: Option<usize> = flag_value(&args, "--limit").map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("--limit wants a positive integer");
                    std::process::exit(2);
                })
            });
            finish(&fetch_batch_sweep(seeds[0], scale, &batches, limit), &args);
        }
        "all" => {
            print_table4(&table4(&seeds, scale));
            println!();
            let runs = fig7_runs(&seeds, scale, None);
            print_fig7(&runs);
            println!();
            print_fig8(&runs);
            println!();
            let (s, b) = fig9(&seeds, scale);
            print_fig9(&s, &b);
            println!();
            print_fig10(&fig10(&seeds, scale));
            println!();
            print_fig11(&fig11(seeds[0], scale));
            println!();
            print_fig12(&fig12(&seeds, scale));
            println!();
            println!("Ablation: ATC scheduling policy (mean response, virtual s)");
            for (label, mean) in ablation_atc(seeds[0], scale) {
                println!("{label:>16}: {mean:.3}");
            }
            println!();
            let (warm, cold) = ablation_recovery(seeds[0], scale);
            println!(
                "Ablation: RecoverState — repeated query stream reads: warm {warm} vs cold {cold}"
            );
            println!();
            println!("Ablation: memory budget (stream reads, 10 UQs)");
            for (label, reads) in ablation_eviction(seeds[0], scale) {
                println!("{label:>12}: {reads}");
            }
            println!();
            println!("Ablation: probe-cache sharing (ATC-FULL, 10 UQs)");
            for (label, probes, mean) in ablation_probe_cache(seeds[0], scale) {
                println!("{label:>8}: {probes} remote probes, mean response {mean:.3}s");
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("choose: all chaos shard adaptive restart verify fetch-batch table4 fig7 fig8 fig9 fig10 fig11 fig12 ablation-atc ablation-recovery ablation-eviction ablation-probe-cache");
            std::process::exit(2);
        }
    }
    eprintln!("\n[done in {:.1}s wall time]", t0.elapsed().as_secs_f64());
}

/// Render a sweep: the table to stdout, the JSON to `--out FILE` if
/// given, and exit 1 when any arm violated the gate.
fn finish(sweep: &Sweep, args: &[String]) {
    print!("{}", sweep.table());
    if let Some(path) = flag_value(args, "--out") {
        std::fs::write(&path, sweep.to_json()).expect("write sweep output");
        eprintln!("wrote {path}");
    }
    if !sweep.gate_ok() {
        eprintln!(
            "CHECK FAILED: {} violation(s) of the gate: {}",
            sweep.violations(),
            sweep.gate
        );
        std::process::exit(1);
    }
    eprintln!("gate ok: {}", sweep.gate);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}
