//! qsys benchmark: end-to-end host latency, throughput and memory on the
//! GUS workloads, plus a traced run attributing host time to layers.
//!
//! ```text
//! qsys-perfbench --workload <gus-full|gus-cl|gus-interactive> --seed <n>
//!                --seconds <s> --trace <0|1> [--instance-seed <n>]
//! qsys-perfbench --write-refs <file>
//! ```
//!
//! `--seed` seeds the simulated network delays of the sources (the
//! engine's `EngineConfig::seed`): it changes every virtual response time
//! but neither the answers nor the work done. `--instance-seed` (default
//! 41) picks the GUS instance and its query script; answers are checked
//! against the stored ATC-CQ references for instance 41 and against
//! references computed on the spot for any other instance.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod digest;
mod drive;
mod fixture;
mod mem;
mod replica;
mod report;
mod trace;

use digest::References;
use fixture::{build_fixture, SetupTimes};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    instance_seed: u64,
    seconds: f64,
    trace: bool,
    write_refs: Option<String>,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 41,
        instance_seed: fixture::GUS_SEED,
        seconds: 10.0,
        trace: false,
        write_refs: None,
        setup_probe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(value()?)?,
            "--instance-seed" => args.instance_seed = num(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--write-refs" => args.write_refs = Some(value()?),
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.write_refs.is_none() && fixture::workload(&args.workload).is_none() {
        let names: Vec<&str> = fixture::workloads().iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qsys-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        // Debug builds run the verifier at every phase boundary.
        eprintln!("qsys-perfbench: refusing to measure a debug build (build with --release)");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.write_refs {
        let mut times = SetupTimes::default();
        let fx = build_fixture(args.instance_seed, &mut times);
        let refs = report::compute_references(&fx, args.seed);
        let header = format!(
            "# ATC-CQ (share-nothing) answer digests, GUS instance {} at Scale::Small.\n\
             # k <k> <script position> <results> <score-multiset digest> <above-boundary digest>\n",
            args.instance_seed
        );
        if let Err(e) = std::fs::write(path, refs.render(&header)) {
            eprintln!("qsys-perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let def = fixture::workload(&args.workload).expect("validated above");
    if args.setup_probe {
        println!("{}", report::setup_probe(&def, &args_config(&args)));
        return ExitCode::SUCCESS;
    }
    let refs = if args.instance_seed == fixture::GUS_SEED {
        References::stored()
    } else {
        eprintln!(
            "computing ATC-CQ references for GUS instance {} (untimed)",
            args.instance_seed
        );
        let mut times = SetupTimes::default();
        report::compute_references(&build_fixture(args.instance_seed, &mut times), args.seed)
    };
    let outcome = if args.trace {
        report::run_traced_mode(&def, &args_config(&args), &refs)
    } else {
        report::run_end_to_end(&def, &args_config(&args), &refs)
    };
    match outcome {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qsys-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn args_config(args: &Args) -> report::RunArgs {
    report::RunArgs {
        seed: args.seed,
        instance_seed: args.instance_seed,
        seconds: args.seconds,
    }
}
