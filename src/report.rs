//! Experiment reporting, and the scripted workload driver.
//!
//! [`RunReport`] carries the quantities the paper's evaluation section
//! plots: per-user-query response times (Figures 7, 9, 12), time
//! breakdowns (Figure 8), conjunctive queries executed (Table 4), total
//! tuples consumed (Figure 10), and optimizer statistics (Figure 11).
//!
//! [`run_workload`] is the reproduction/bench driver: a thin compatibility
//! shim that admits a whole scripted [`Workload`] into a sessionized
//! [`Engine`] and drains it. Interactive service callers
//! should use the [`Engine`]/[`Session`](crate::Session)
//! API directly; this driver exists so that every experiment, bench, and
//! golden keeps one canonical run-to-completion entry point — and it is
//! bit-identical to the historical scripted runner by construction, since
//! admission forms exactly the batches the old per-lane loop formed.
//!
//! The answer-identity contract — physical choices (threads, shards,
//! replans, faults, restarts) never change answers — is checked with one
//! set of pieces, shared by the `reproduce` sweeps and the identity
//! suites: [`drive_session`] submits a script through per-user sessions
//! and collects every ticket's [`Answers`]; [`answers_equivalent`] and
//! [`answer_drift`] compare answers up to ties at the k-th score;
//! [`fault_isolation_violations`] is the fault-isolation gate; and
//! [`RunReport::identity_diff`] compares two runs' decisions.

use crate::engine::EngineConfig;
use crate::session::{Engine, QueryTicket};
use qsys_exec::FaultStats;
use qsys_opt::AdaptiveSummary;
use qsys_query::{CandidateGenerator, UserQuery};
use qsys_types::{QsysError, QsysResult, RelId, TimeBreakdown, UqId, UserId};
use qsys_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};

/// How one user query's execution ended. Every outcome other than
/// [`QueryOutcome::Complete`] exists only when the caller used the
/// cancel/deadline API or a fault schedule was active — a clean run is
/// all-`Complete` by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Full-fidelity top-k.
    #[default]
    Complete,
    /// The top-k is correct over what the surviving sources delivered, but
    /// the listed relations failed mid-batch, so answers needing them may
    /// be missing.
    Degraded {
        /// Relations this query reads that were lost to faults.
        missing_rels: Vec<RelId>,
    },
    /// The query produced nothing — its lane panicked (or was already
    /// poisoned by an earlier panic) before results could be published.
    Failed {
        /// Human-readable cause (the panic payload, or "lane poisoned").
        reason: String,
    },
    /// Cancelled by the caller before its batch ran.
    Cancelled,
    /// Its deadline passed: either before its batch started (no results)
    /// or during execution (results are retained — late, not wrong).
    DeadlineExceeded,
}

impl QueryOutcome {
    /// Whether the query delivered its full-fidelity top-k on time.
    pub fn is_complete(&self) -> bool {
        *self == QueryOutcome::Complete
    }
}

/// Per-user-query report line.
#[derive(Debug, Clone)]
pub struct UqReport {
    /// The user query.
    pub uq: UqId,
    /// The submitting user.
    pub user: UserId,
    /// The keyword text.
    pub keywords: String,
    /// Virtual arrival time the query was admitted with, µs.
    pub arrival_us: u64,
    /// Virtual response time in µs (graft → top-k complete).
    pub response_us: u64,
    /// Results returned.
    pub results: usize,
    /// Conjunctive queries generated.
    pub cqs_generated: usize,
    /// Conjunctive queries executed (Table 4).
    pub cqs_executed: usize,
    /// Which lane (plan graph) served it.
    pub lane: usize,
    /// Plan-graph nodes its batch reused from earlier state (batch-level:
    /// every member of a multi-query batch reports the batch's total).
    pub reused_nodes: usize,
    /// How many of this query's CQs ran a `RecoverState` recovery query
    /// over pre-existing stream state (Section 6.2).
    pub recovered_cqs: usize,
    /// How execution ended (`Complete` on every clean run).
    pub outcome: QueryOutcome,
}

/// Per-lane execution summary: how work actually spread across plan
/// graphs, including shard ancestry when lane sharding split an
/// oversized ATC-CL cluster. This is how lane imbalance is observed in
/// production runs, not just in the bench harness's `lane_wall_us`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneSummary {
    /// Lane index (matches `UqReport::lane`).
    pub lane: usize,
    /// The logical ATC-CL cluster this lane serves; shards of one split
    /// cluster share the id. Always 0 for single-graph modes.
    pub cluster: usize,
    /// `(shard index, shard count)` when this lane was born by splitting
    /// an oversized cluster; `None` for unsharded lanes.
    pub shard_of: Option<(usize, usize)>,
    /// Host wall-clock µs spent executing on this lane.
    pub wall_us: u64,
    /// Input tuples this lane's sources consumed.
    pub tuples_consumed: u64,
    /// Stream tuples this lane read.
    pub tuples_streamed: u64,
    /// User queries served by this lane.
    pub uqs: usize,
    /// Whether a panicking batch poisoned the lane.
    pub poisoned: bool,
    /// This lane's adaptive-execution counters (all zero with the
    /// adaptive path disabled).
    pub adaptive: AdaptiveSummary,
}

/// One optimizer invocation (Figure 11's data points).
#[derive(Debug, Clone, Copy)]
pub struct OptEvent {
    /// Conjunctive queries in the batch.
    pub batch_cqs: usize,
    /// Push-down candidates entering BestPlan.
    pub candidates: usize,
    /// Search states explored.
    pub explored: usize,
    /// Simulated optimization time, µs.
    pub opt_us: u64,
    /// Whether this batch replayed a recorded warm plan instead of
    /// searching (host-time only; `explored`/`opt_us` are the recorded
    /// cold values either way).
    pub warm_hits: usize,
}

/// The full outcome of one workload run (or of everything an
/// [`Engine`] has executed so far — see
/// [`Engine::report`](crate::Engine::report)).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Configuration label ("ATC-CQ" …).
    pub config: String,
    /// Per-UQ lines, in UQ order.
    pub per_uq: Vec<UqReport>,
    /// Number of plan graphs (lanes) used.
    pub lanes: usize,
    /// Lane-thread cap the run executed under.
    pub lane_threads: usize,
    /// Host wall-clock µs each lane spent executing, by lane index.
    pub lane_wall_us: Vec<u64>,
    /// Per-lane wall/tuple/shard-ancestry summaries, by lane index.
    pub lane_summaries: Vec<LaneSummary>,
    /// Summed simulated time across lanes.
    pub breakdown: TimeBreakdown,
    /// Total input tuples consumed (Figure 10).
    pub tuples_consumed: u64,
    /// Stream tuples read.
    pub tuples_streamed: u64,
    /// Simulated network rounds spent on stream reads, summed over lanes
    /// (equals `tuples_streamed` at `fetch_batch` 1; fetch-ahead divides
    /// it by roughly the batch size).
    pub stream_rounds: u64,
    /// Remote probes issued.
    pub probes: u64,
    /// Optimizer invocations.
    pub opt_events: Vec<OptEvent>,
    /// Keyword queries that matched no candidate network (skipped).
    pub skipped: Vec<String>,
    /// Fault/resilience accounting (all zero on a clean run).
    pub faults: FaultSummary,
    /// Adaptive-execution accounting summed across lanes (all zero with
    /// `EngineConfig::adaptive` off — the default).
    pub adaptive: AdaptiveSummary,
    /// Warm-state snapshot recovery/publication accounting (default when
    /// `EngineConfig::snapshot_dir` is unset).
    pub snapshot: qsys_snapshot::SnapshotSummary,
    /// Environment/config errors the engine ran with — a malformed
    /// `QSYS_FAULTS` or `QSYS_SNAPSHOT_EVERY` disables that knob and is
    /// reported here instead of panicking (see `EngineConfig::validate`).
    pub config_errors: Vec<String>,
}

/// Run-level fault accounting: the source governors' counters summed over
/// lanes, plus how many queries ended in each non-`Complete` outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Retry/timeout/breaker counters summed across lane governors.
    pub source: FaultStats,
    /// Queries that completed with a degraded (partial) top-k.
    pub degraded: usize,
    /// Queries that failed outright (lane panic).
    pub failed: usize,
    /// Queries cancelled before execution.
    pub cancelled: usize,
    /// Queries whose deadline passed.
    pub deadline_exceeded: usize,
}

impl FaultSummary {
    /// Whether anything at all deviated from a clean run.
    pub fn any(&self) -> bool {
        *self != FaultSummary::default()
    }
}

impl RunReport {
    /// Mean response time across UQs, µs.
    pub fn mean_response_us(&self) -> f64 {
        if self.per_uq.is_empty() {
            return 0.0;
        }
        self.per_uq
            .iter()
            .map(|u| u.response_us as f64)
            .sum::<f64>()
            / self.per_uq.len() as f64
    }

    /// Response-time percentile across UQs in µs, nearest-rank: `p` in
    /// (0, 100]; `response_percentile_us(50.0)` is the median,
    /// `response_percentile_us(99.0)` the tail the degradation curves
    /// plot. 0 when no query has run.
    pub fn response_percentile_us(&self, p: f64) -> u64 {
        if self.per_uq.is_empty() {
            return 0;
        }
        let mut times: Vec<u64> = self.per_uq.iter().map(|u| u.response_us).collect();
        times.sort_unstable();
        let rank = ((p / 100.0) * times.len() as f64).ceil() as usize;
        times[rank.clamp(1, times.len()) - 1]
    }

    /// Total simulated optimization time, µs.
    pub fn opt_us(&self) -> u64 {
        self.opt_events.iter().map(|e| e.opt_us).sum()
    }

    /// Batches served by the optimizer's cross-batch warm memo.
    pub fn warm_hits(&self) -> usize {
        self.opt_events.iter().map(|e| e.warm_hits).sum()
    }

    /// This user's report lines, in UQ order — the per-session view a
    /// service caller would otherwise re-aggregate by hand.
    pub fn per_user(&self, user: UserId) -> Vec<&UqReport> {
        self.per_uq.iter().filter(|u| u.user == user).collect()
    }

    /// The report line behind one [`QueryTicket`].
    pub fn per_ticket(&self, ticket: &QueryTicket) -> Option<&UqReport> {
        self.per_uq_id(ticket.id())
    }

    /// The report line for one user-query id.
    pub fn per_uq_id(&self, uq: UqId) -> Option<&UqReport> {
        self.per_uq.iter().find(|u| u.uq == uq)
    }

    /// The first decision-relevant quantity on which two runs differ,
    /// named with both values, or `None` when they are identical. It
    /// compares lanes, tuples consumed and streamed, stream rounds,
    /// probes and the virtual-time breakdown; per UQ the id, user, lane,
    /// response time, result count, CQs executed and reused nodes; and per
    /// optimizer event the batch CQs, candidates, explored states and
    /// simulated optimize time. Host-time fields (`lane_wall_us`, lane
    /// walls, snapshot and replan timings) never feed a decision and are
    /// left out.
    pub fn identity_diff(&self, other: &RunReport) -> Option<String> {
        macro_rules! same {
            ($at:expr, $a:expr, $b:expr; $($field:ident),+) => {$(
                if $a.$field != $b.$field {
                    let (at, a, b) = ($at, &$a.$field, &$b.$field);
                    return Some(format!("{at}{}: {a:?} vs {b:?}", stringify!($field)));
                }
            )+};
        }
        same!("", self, other;
            lanes, tuples_consumed, tuples_streamed, stream_rounds, probes, breakdown);
        let lens = [
            ("per_uq", self.per_uq.len(), other.per_uq.len()),
            ("opt_events", self.opt_events.len(), other.opt_events.len()),
        ];
        if let Some((name, a, b)) = lens.into_iter().find(|(_, a, b)| a != b) {
            return Some(format!("{name}.len: {a} vs {b}"));
        }
        for (i, (a, b)) in self.per_uq.iter().zip(&other.per_uq).enumerate() {
            same!(format!("per_uq[{i}]."), a, b;
                uq, user, lane, response_us, results, cqs_executed, reused_nodes);
        }
        for (i, (a, b)) in self.opt_events.iter().zip(&other.opt_events).enumerate() {
            same!(format!("opt_events[{i}]."), a, b; batch_cqs, candidates, explored, opt_us);
        }
        None
    }

    /// Σ/max lane-wall balance: 1.0 when one lane does all the work,
    /// approaching the lane count as walls even out — the quantity that
    /// bounds parallel lane speedup (and the lane-sharding target
    /// metric). 1.0 when nothing has executed.
    pub fn lane_balance(&self) -> f64 {
        let max = self.lane_wall_us.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        self.lane_wall_us.iter().sum::<u64>() as f64 / max as f64
    }
}

/// Generate the user queries of a workload (shared by the runner, the
/// benches, and the examples). Queries whose keywords cannot be connected
/// into any candidate network are skipped (returned second) — a real system
/// reports "no results" for them rather than failing the batch.
pub fn generate_user_queries(
    workload: &Workload,
    config: &EngineConfig,
) -> QsysResult<(Vec<UserQuery>, Vec<String>)> {
    let generator =
        CandidateGenerator::new(&workload.catalog, &workload.index, config.candidate.clone());
    let mut next_cq = 0u32;
    let mut uqs = Vec::new();
    let mut skipped = Vec::new();
    for (i, q) in workload.queries.iter().enumerate() {
        match generator.generate(
            &q.keywords,
            UqId::new(i as u32),
            q.user,
            &mut next_cq,
            q.edge_costs.as_ref(),
        ) {
            Ok(uq) => uqs.push(uq),
            Err(_) => skipped.push(q.keywords.clone()),
        }
    }
    Ok((uqs, skipped))
}

/// Run `workload` (optionally truncated to its first `limit` user queries)
/// under `config`, returning the experiment report.
///
/// This is the scripted compatibility driver over the sessionized
/// [`Engine`]: pre-generate the script's candidate networks
/// (preserving the historical UQ/CQ id assignment, including ids consumed
/// by skipped queries), admit everything, drain the engine, and read its
/// report. Admission seals batches exactly where the old per-lane loop
/// chunked them, so every reported quantity is bit-identical to the
/// pre-sessionized runner.
pub fn run_workload(
    workload: &Workload,
    config: &EngineConfig,
    limit: Option<usize>,
) -> QsysResult<RunReport> {
    let (mut uqs, skipped) = generate_user_queries(workload, config)?;
    if let Some(n) = limit {
        uqs.truncate(n);
    }
    let mut engine = Engine::for_workload(workload, config.clone());
    // The report reads counts, not payloads — skip the per-ticket clones.
    engine.discard_results();
    for kw in &skipped {
        engine.note_skipped(kw);
    }
    for uq in uqs {
        // generate_user_queries assigns UqId = script index (skipped
        // queries consume ids too); resolve the arrival through that
        // invariant and fail loudly if it ever drifts — a silent arrival
        // of 0 would re-shape batches under a configured arrival window.
        let script = workload.queries.get(uq.id.index()).ok_or_else(|| {
            QsysError::Internal(format!(
                "UqId {} does not index the workload script ({} entries)",
                uq.id.index(),
                workload.queries.len()
            ))
        })?;
        if script.keywords != uq.keywords {
            return Err(QsysError::Internal(format!(
                "UqId/script alignment drifted in generate_user_queries: \
                 script '{}' vs generated '{}' at id {}",
                script.keywords,
                uq.keywords,
                uq.id.index()
            )));
        }
        engine.admit(uq, script.arrival_us);
    }
    engine.run_until_idle();
    Ok(engine.report())
}

/// Which user queries read each relation (streamed or probed), from the
/// workload's generated candidate networks: the ground truth for "reader
/// of" in the fault-isolation checks.
pub fn relation_readers(
    workload: &Workload,
    config: &EngineConfig,
) -> QsysResult<BTreeMap<u32, BTreeSet<UqId>>> {
    let (uqs, _) = generate_user_queries(workload, config)?;
    let mut readers: BTreeMap<u32, BTreeSet<UqId>> = BTreeMap::new();
    for uq in &uqs {
        for (cq, _) in &uq.cqs {
            for rel in cq.rels() {
                readers.entry(rel.0).or_default().insert(uq.id);
            }
        }
    }
    Ok(readers)
}

/// The relation a hard-outage check takes dark, with its readers: the
/// most-read relation that some queries still avoid (ties go to the
/// lowest id), so the outage both bites and leaves bystanders to check.
pub fn outage_victim(readers: &BTreeMap<u32, BTreeSet<UqId>>) -> Option<(u32, BTreeSet<UqId>)> {
    let queries = readers.values().flatten().collect::<BTreeSet<_>>().len();
    readers
        .iter()
        .filter(|(_, r)| r.len() < queries)
        .max_by_key(|(rel, r)| (r.len(), std::cmp::Reverse(**rel)))
        .map(|(rel, r)| (*rel, r.clone()))
}

/// Per ticket: how the query ended, plus its answers as `(score bits,
/// tuple text)` in the order the engine returned them. Gates that compare
/// multisets sort for themselves.
pub type Answers = BTreeMap<UqId, (QueryOutcome, Vec<(u64, String)>)>;

/// The session driver: submit every script query through its user's
/// [`Session`](crate::Session) with the query's edge costs, drain the
/// engine, and collect every ticket's outcome and answers. With
/// `step_each` the engine steps after every submission, so batches run
/// the moment their admission window seals, interleaved with later
/// arrivals. Script queries that match no candidate network get no
/// ticket. The engine is returned for its report and audits.
pub fn drive_session(
    workload: &Workload,
    config: EngineConfig,
    step_each: bool,
) -> (Engine, Answers) {
    let mut engine = Engine::for_workload(workload, config);
    let mut tickets = Vec::new();
    for q in &workload.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        if let Ok(ticket) = session.submit(&q.keywords, q.arrival_us) {
            tickets.push(ticket);
        }
        if step_each {
            engine.step();
        }
    }
    engine.run_until_idle();
    let answers = tickets
        .iter()
        .map(|t| {
            // A drained engine resolves every ticket; one it did not is
            // reported as failed, so every gate sees it.
            let outcome = t.outcome().unwrap_or_else(|| QueryOutcome::Failed {
                reason: "unresolved after the engine drained".into(),
            });
            let tuples = t
                .take_results()
                .unwrap_or_default()
                .into_iter()
                .map(|(score, tuple)| (score.get().to_bits(), format!("{tuple:?}")))
                .collect();
            (t.id(), (outcome, tuples))
        })
        .collect();
    (engine, answers)
}

/// Tie-aware answer equivalence, in any order: score multisets match
/// bit for bit, and every tuple scored strictly above the k-th (minimum
/// returned) score matches exactly. Tuples *at* the boundary score only
/// need matching counts: when more candidates tie at the cut than fit,
/// the top-k set is inherently non-unique, and a different lane
/// composition or read order may surface a different, equally ranked,
/// tied subset.
pub fn answers_equivalent(want: &[(u64, String)], got: &[(u64, String)]) -> bool {
    if want.len() != got.len() {
        return false;
    }
    let scores = |v: &[(u64, String)]| {
        let mut s: Vec<u64> = v.iter().map(|(b, _)| *b).collect();
        s.sort_unstable();
        s
    };
    if scores(want) != scores(got) {
        return false;
    }
    let boundary = want
        .iter()
        .map(|(b, _)| f64::from_bits(*b))
        .fold(f64::INFINITY, f64::min);
    fn above(v: &[(u64, String)], boundary: f64) -> Vec<&(u64, String)> {
        let mut s: Vec<&(u64, String)> = v
            .iter()
            .filter(|(b, _)| f64::from_bits(*b) > boundary)
            .collect();
        s.sort();
        s
    }
    above(want, boundary) == above(got, boundary)
}

/// The queries whose answers drifted between two runs: a different
/// outcome, answers that are not [`answers_equivalent`], or a ticket only
/// one run has.
pub fn answer_drift(base: &Answers, arm: &Answers) -> Vec<UqId> {
    let ids: BTreeSet<UqId> = base.keys().chain(arm.keys()).copied().collect();
    ids.into_iter()
        .filter(|uq| match (base.get(uq), arm.get(uq)) {
            (Some(want), Some(got)) => want.0 != got.0 || !answers_equivalent(&want.1, &got.1),
            _ => true,
        })
        .collect()
}

/// The fault-isolation gate, "no tuple loss on unfaulted relations": the
/// queries of a faulted run that resolved `Complete` with answers not
/// exactly equal, in returned order, to the fault-free `base`; and, when
/// `faulted_readers` names the readers of a relation-scoped fault, every
/// non-reader that did not resolve `Complete`.
pub fn fault_isolation_violations(
    base: &Answers,
    arm: &Answers,
    faulted_readers: Option<&BTreeSet<UqId>>,
) -> Vec<UqId> {
    arm.iter()
        .filter(|(uq, (outcome, tuples))| {
            if outcome.is_complete() {
                base.get(uq).is_none_or(|(_, want)| want != tuples)
            } else {
                faulted_readers.is_some_and(|r| !r.contains(uq))
            }
        })
        .map(|(uq, _)| *uq)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(uq: u32, user: u32, us: u64) -> UqReport {
        UqReport {
            uq: UqId::new(uq),
            user: UserId::new(user),
            keywords: String::new(),
            arrival_us: 0,
            response_us: us,
            results: 1,
            cqs_generated: 1,
            cqs_executed: 1,
            lane: 0,
            reused_nodes: 0,
            recovered_cqs: 0,
            outcome: QueryOutcome::Complete,
        }
    }

    #[test]
    fn mean_response_handles_empty() {
        let r = RunReport::default();
        assert_eq!(r.mean_response_us(), 0.0);
        assert_eq!(r.opt_us(), 0);
    }

    #[test]
    fn mean_response_averages() {
        let mut r = RunReport::default();
        r.per_uq.push(line(0, 0, 100));
        r.per_uq.push(line(1, 0, 300));
        assert_eq!(r.mean_response_us(), 200.0);
    }

    #[test]
    fn per_user_filters_and_per_uq_id_finds() {
        let mut r = RunReport::default();
        r.per_uq.push(line(0, 7, 100));
        r.per_uq.push(line(1, 3, 200));
        r.per_uq.push(line(2, 7, 300));
        let u7 = r.per_user(UserId::new(7));
        assert_eq!(u7.len(), 2);
        assert!(u7.iter().all(|l| l.user == UserId::new(7)));
        assert_eq!(r.per_user(UserId::new(9)).len(), 0);
        assert_eq!(r.per_uq_id(UqId::new(1)).unwrap().response_us, 200);
        assert!(r.per_uq_id(UqId::new(42)).is_none());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = RunReport::default();
        assert_eq!(r.response_percentile_us(50.0), 0);
        for (i, us) in [100u64, 200, 300, 400].iter().enumerate() {
            r.per_uq.push(line(i as u32, 0, *us));
        }
        assert_eq!(r.response_percentile_us(50.0), 200);
        assert_eq!(r.response_percentile_us(99.0), 400);
        assert_eq!(r.response_percentile_us(25.0), 100);
        assert!(!r.faults.any());
    }

    #[test]
    fn opt_events_sum() {
        let mut r = RunReport::default();
        r.opt_events.push(OptEvent {
            batch_cqs: 3,
            candidates: 1,
            explored: 10,
            opt_us: 150,
            warm_hits: 0,
        });
        r.opt_events.push(OptEvent {
            batch_cqs: 2,
            candidates: 0,
            explored: 1,
            opt_us: 15,
            warm_hits: 1,
        });
        assert_eq!(r.opt_us(), 165);
        assert_eq!(r.warm_hits(), 1);
    }

    fn answer(score: f64, text: &str) -> (u64, String) {
        (score.to_bits(), text.to_string())
    }

    #[test]
    fn answers_equivalent_allows_only_boundary_ties() {
        let base = vec![answer(3.0, "a"), answer(2.0, "b"), answer(1.0, "c")];
        // A different tuple at the boundary score, in another order.
        let tie = vec![answer(1.0, "d"), answer(3.0, "a"), answer(2.0, "b")];
        assert!(answers_equivalent(&base, &tie));
        // A different tuple above the boundary, same scores.
        let above = vec![answer(3.0, "a"), answer(2.0, "x"), answer(1.0, "c")];
        assert!(!answers_equivalent(&base, &above));
        let scores = vec![answer(3.0, "a"), answer(2.5, "b"), answer(1.0, "c")];
        assert!(!answers_equivalent(&base, &scores));
        assert!(!answers_equivalent(&base, &base[..2]));
        assert!(answers_equivalent(&[], &[]));
    }

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            lanes: 2,
            tuples_consumed: 10,
            tuples_streamed: 8,
            stream_rounds: 8,
            probes: 3,
            lane_wall_us: vec![5, 7],
            lane_summaries: vec![LaneSummary::default(); 2],
            ..RunReport::default()
        };
        r.per_uq.push(line(0, 1, 100));
        r.opt_events.push(OptEvent {
            batch_cqs: 3,
            candidates: 1,
            explored: 10,
            opt_us: 150,
            warm_hits: 0,
        });
        r
    }

    #[test]
    fn identity_diff_names_each_compared_field_and_ignores_host_time() {
        let base = sample_report();
        assert_eq!(base.identity_diff(&base.clone()), None);
        type Perturb = fn(&mut RunReport);
        let compared: [(&str, Perturb); 16] = [
            ("lanes", |r| r.lanes += 1),
            ("tuples_consumed", |r| r.tuples_consumed += 1),
            ("tuples_streamed", |r| r.tuples_streamed += 1),
            ("stream_rounds", |r| r.stream_rounds += 1),
            ("probes", |r| r.probes += 1),
            ("breakdown", |r| r.breakdown.join_us += 1),
            ("per_uq[0].uq", |r| r.per_uq[0].uq = UqId::new(9)),
            ("per_uq[0].user", |r| r.per_uq[0].user = UserId::new(9)),
            ("per_uq[0].lane", |r| r.per_uq[0].lane = 1),
            ("per_uq[0].response_us", |r| r.per_uq[0].response_us += 1),
            ("per_uq[0].results", |r| r.per_uq[0].results += 1),
            ("per_uq[0].cqs_executed", |r| r.per_uq[0].cqs_executed += 1),
            ("per_uq[0].reused_nodes", |r| r.per_uq[0].reused_nodes += 1),
            ("opt_events[0].batch_cqs", |r| {
                r.opt_events[0].batch_cqs += 1
            }),
            ("opt_events[0].candidates", |r| {
                r.opt_events[0].candidates += 1
            }),
            ("opt_events[0].explored", |r| r.opt_events[0].explored += 1),
        ];
        for (field, perturb) in compared {
            let mut other = base.clone();
            perturb(&mut other);
            let diff = base.identity_diff(&other).unwrap_or_default();
            assert!(
                diff.starts_with(&format!("{field}:")),
                "{field}: got {diff:?}"
            );
        }
        let mut other = base.clone();
        other.opt_events[0].opt_us += 15;
        let diff = base.identity_diff(&other).unwrap_or_default();
        assert!(diff.starts_with("opt_events[0].opt_us:"), "{diff:?}");

        let mut host = base.clone();
        host.lane_wall_us = vec![50, 70];
        host.lane_threads = 4;
        host.lane_summaries[0].wall_us = 99;
        host.adaptive.replan_us = 12;
        host.snapshot.load_us = 34;
        host.opt_events[0].warm_hits = 1;
        assert_eq!(base.identity_diff(&host), None);
    }

    #[test]
    fn fault_isolation_flags_reordered_answers_and_collateral_degradation() {
        let clean: Answers = [
            (
                UqId::new(0),
                (
                    QueryOutcome::Complete,
                    vec![answer(2.0, "a"), answer(2.0, "b")],
                ),
            ),
            (
                UqId::new(1),
                (QueryOutcome::Complete, vec![answer(1.0, "c")]),
            ),
        ]
        .into_iter()
        .collect();
        let readers = BTreeSet::from([UqId::new(0)]);
        assert!(fault_isolation_violations(&clean, &clean, Some(&readers)).is_empty());

        let mut reordered = clean.clone();
        if let Some((_, tuples)) = reordered.get_mut(&UqId::new(0)) {
            tuples.reverse();
        }
        assert_eq!(
            fault_isolation_violations(&clean, &reordered, None),
            vec![UqId::new(0)]
        );

        let mut collateral = clean.clone();
        if let Some((outcome, _)) = collateral.get_mut(&UqId::new(1)) {
            *outcome = QueryOutcome::Degraded {
                missing_rels: vec![RelId::new(3)],
            };
        }
        assert_eq!(
            fault_isolation_violations(&clean, &collateral, Some(&readers)),
            vec![UqId::new(1)]
        );
    }
}
