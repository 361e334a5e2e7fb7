//! Lane-sharding identity: splitting an oversized ATC-CL cluster into
//! sub-lanes is a *physical* routing decision and must be invisible in
//! results.
//!
//! The contract, pinned across GUS instance seeds 41 / 48 / 55:
//!
//! - every user query resolves with the same outcome and the same answer
//!   multiset whether its cluster ran on one lane or was sharded — up to
//!   ties at the k-th score, where the top-k set is inherently non-unique
//!   (a different lane composition may surface a different, equally
//!   ranked, tied boundary subset);
//! - under a deterministic fault schedule the same holds for the
//!   surviving queries, and a query degraded by a hard outage blames
//!   exactly the same missing relations sharded as unsharded.
//!
//! The partition invariants themselves (disjoint, total, capped) are
//! property-tested in `proptest_invariants.rs`; this file pins the
//! end-to-end engine behaviour the partition feeds.

use qsys::opt::cluster::ClusterConfig;
use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys::{answer_drift, answers_equivalent, outage_victim, relation_readers};
use qsys_workload::faults::FaultPlan;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;
use std::collections::BTreeSet;

fn workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 12;
    gus::generate(&cfg)
}

/// Clustering tight enough that clusters form and hold several UQs each —
/// the shape sharding exists for.
fn engine_cfg(sharding: ShardConfig, faults: Option<&str>) -> EngineConfig {
    EngineConfig {
        k: 10,
        batch_size: 3,
        sharing: SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.9 }),
        candidate: CandidateConfig {
            max_cqs: 6,
            max_atoms: 5,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        lane_threads: 1,
        sharding,
        // Explicit, not inherited from the environment: these tests pin
        // their own schedules even under the CI chaos/shard legs.
        faults: faults.map(|s| FaultSpec::parse(s).expect("valid fault spec")),
        ..EngineConfig::default()
    }
}

/// An aggressive shard config: every multi-UQ cluster splits up to `cap`.
fn sharded(cap: usize) -> ShardConfig {
    let mut cfg = ShardConfig::at(1.0);
    cfg.max_shards = cap;
    cfg
}

fn run(w: &Workload, cfg: EngineConfig) -> (RunReport, Answers) {
    let (engine, answers) = drive_session(w, cfg, false);
    (engine.report(), answers)
}

fn assert_equivalent(base: &Answers, arm: &Answers, context: &str) {
    let drift = answer_drift(base, arm);
    assert!(
        drift.is_empty(),
        "{context}: outcome or answer multiset diverged for {drift:?}"
    );
}

/// Sharding must actually engage for the identity claim to mean anything.
fn assert_sharded(report: &RunReport, context: &str) {
    assert!(
        report
            .lane_summaries
            .iter()
            .any(|lane| lane.shard_of.is_some()),
        "{context}: no cluster split — the workload no longer exercises sharding"
    );
}

/// Per-UQ result multisets are identical sharded vs unsharded, across
/// three GUS instance seeds and two shard caps.
#[test]
fn sharded_results_identical_across_seeds() {
    for seed in [41, 48, 55] {
        let w = workload(seed);
        let (base_report, base) = run(&w, engine_cfg(ShardConfig::off(), None));
        assert!(
            base.values().all(|(o, _)| o.is_complete()),
            "seed {seed}: fault-free baseline must be all-Complete"
        );
        for cap in [2, 4] {
            let context = format!("seed {seed}, max_shards {cap}");
            let (report, arm) = run(&w, engine_cfg(sharded(cap), None));
            assert_sharded(&report, &context);
            assert!(
                report.lanes > base_report.lanes,
                "{context}: sharding must add lanes ({} vs {})",
                report.lanes,
                base_report.lanes
            );
            assert_equivalent(&base, &arm, &context);
        }
    }
}

/// Under a deterministic hard outage, sharding keeps degradation
/// strictly per-query: a query that never reads the outaged relation is
/// untouched (Complete, equivalent answers), a degraded query blames
/// exactly the outaged relation in both runs, and a query Complete in
/// both runs answers equivalently. Whether a *reader* degrades at all is
/// legitimately schedule-dependent — the source-layer contract lets a
/// reader complete untouched when the ATC never needed the lost source,
/// and sharding changes lane schedules.
#[test]
fn sharded_chaos_blames_same_relations() {
    let w = workload(41);
    let readers =
        relation_readers(&w, &engine_cfg(ShardConfig::off(), None)).expect("workload generates");
    let (victim, victim_readers) =
        outage_victim(&readers).expect("a relation read by some but not all queries");
    let spec = FaultPlan::new(7).outage(victim, 0, None).build();

    let (_, base) = run(&w, engine_cfg(ShardConfig::off(), Some(&spec)));
    let (report, arm) = run(&w, engine_cfg(sharded(4), Some(&spec)));
    assert_sharded(&report, "chaos arm");
    for outcomes in [&base, &arm] {
        assert!(
            outcomes
                .values()
                .any(|(o, _)| matches!(o, QueryOutcome::Degraded { .. })),
            "outage must degrade at least one query in each run"
        );
    }
    let blames =
        |rels: &[qsys::types::RelId]| -> BTreeSet<u32> { rels.iter().map(|r| r.0).collect() };
    for (uq, (want_outcome, want_answers)) in &base {
        let (got_outcome, got_answers) = &arm[uq];
        // Degradation blames exactly the outaged relation, in either run.
        for outcome in [want_outcome, got_outcome] {
            if let QueryOutcome::Degraded { missing_rels } = outcome {
                assert_eq!(
                    blames(missing_rels),
                    BTreeSet::from([victim]),
                    "degraded {uq:?} must blame exactly the outaged relation"
                );
            }
        }
        if !victim_readers.contains(uq) {
            // Non-readers are untouched — sharded or not.
            assert_eq!(want_outcome, got_outcome, "non-reader {uq:?} outcome");
            assert!(
                want_outcome.is_complete(),
                "non-reader {uq:?} must complete"
            );
        }
        if want_outcome.is_complete() && got_outcome.is_complete() {
            assert!(
                answers_equivalent(want_answers, got_answers),
                "chaos: answer multiset of {uq:?} diverged"
            );
        }
    }
}
