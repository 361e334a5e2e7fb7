//! The traced pass: the engine's admission and batch pipeline rebuilt from
//! each crate's public functions, with every call into a layer timed.
//!
//! It follows `qsys::Engine` step for step — candidate generation
//! (`CandidateGenerator`, query), ATC-CL clustering (`cluster_user_queries`,
//! opt), `Optimizer::optimize_warm` (opt), `QsManager::graft` (state), the
//! ATC's round-robin rounds through `stream_bounds`,
//! `read_stream_governed`, `RankMerge::{maintain, choose_read}` (exec),
//! then `unlink_completed` and `evict_to_budget` (state) — with the same
//! lane seeds, batch boundaries and lane dispatch. `main` checks that it
//! reproduces the engine's per-query simulated responses and source
//! counters exactly before any layer number is reported.

use crate::digest::{digest_answers, Digest};
use crate::fixture::{candidate_config, engine_config, Drive, WorkloadDef};
use crate::trace::{Tracer, NO_ID};
use qsys::exec::{ExecStats, NodeId, SourceGovernor, StreamRead};
use qsys::opt::{cluster_user_queries, Optimizer, OptimizerConfig};
use qsys::query::{CandidateGenerator, UserQuery};
use qsys::source::Sources;
use qsys::state::QsManager;
use qsys::types::{RelId, Score, SimClock, Tuple, UqId};
use qsys::{EngineConfig, SharingMode};
use qsys_workload::Workload;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-lane totals the trace reports besides times.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneCounts {
    pub rounds: u64,
    pub reads_delivered: u64,
    pub grafts: u64,
    pub reused_nodes: u64,
    pub recovered_cqs: u64,
    pub opt_calls: u64,
    pub opt_explored: u64,
    pub opt_warm_hits: u64,
    pub graph_nodes_max: u64,
    pub graph_bytes_max: u64,
}

/// One replica lane: the engine's `Lane` (plan graph, sources, stats,
/// governor, round-robin cursor) plus its own tracer.
struct RLane {
    manager: QsManager,
    sources: Sources,
    stats: ExecStats,
    governor: SourceGovernor,
    rr_offset: usize,
    open: Vec<UserQuery>,
    ready: VecDeque<Vec<UserQuery>>,
    tracer: Tracer,
    counts: LaneCounts,
    /// `(script position, digest, virtual response µs)` per finished query.
    finished: Vec<(usize, Digest, u64)>,
}

impl RLane {
    fn new(fx: &Workload, config: &EngineConfig, lane_idx: u64, origin: Instant) -> RLane {
        let manager = QsManager::new(config.memory_budget).with_policy(config.eviction);
        let sources = Sources::with_provider(
            SimClock::new(),
            config.cost_profile,
            config.seed ^ (lane_idx.wrapping_mul(0x517c_c1b7_2722_0a95)),
            fx.tables.provider(),
        );
        RLane {
            manager,
            sources,
            stats: ExecStats::new(),
            governor: SourceGovernor::new(config.retry),
            rr_offset: 0,
            open: Vec::new(),
            ready: VecDeque::new(),
            tracer: Tracer::new(origin),
            counts: LaneCounts::default(),
            finished: Vec::new(),
        }
    }

    fn enqueue(&mut self, uq: UserQuery, batch_size: usize) {
        self.open.push(uq);
        if self.open.len() >= batch_size {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if !self.open.is_empty() {
            self.ready.push_back(std::mem::take(&mut self.open));
        }
    }

    /// The engine's `run_batch` for ATC-FULL / ATC-CL: optimize the batch
    /// as one, graft, run the ATC to completion, publish, release.
    fn run_batch(&mut self, fx: &Workload, config: &EngineConfig, batch: Vec<UserQuery>) {
        let first = batch.first().map_or(NO_ID, |uq| uq.id.index() as u64);
        self.tracer.enter("lane.batch", first);
        let submit = self.sources.clock().now_us();
        for uq in &batch {
            self.stats.submit(uq.id, submit);
        }
        let cqs: Vec<_> = batch
            .iter()
            .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
            .collect();
        let optimizer = Optimizer::new(
            &fx.catalog,
            OptimizerConfig {
                k: config.k,
                heuristics: config.heuristics.clone(),
                cost_profile: config.cost_profile,
                share_subexpressions: true,
                ..OptimizerConfig::default()
            },
        );
        let (spec, opt) = {
            let interner = self.manager.shared_interner();
            let warm = self.manager.warm_cell();
            let oracle = self.manager.reuse_oracle();
            let clock = self.sources.clock();
            self.tracer.span("opt.optimize", first, || {
                optimizer.optimize_warm(&cqs, &oracle, Some(clock), &interner, Some(&*warm))
            })
        };
        self.counts.opt_calls += 1;
        self.counts.opt_explored += opt.explored as u64;
        self.counts.opt_warm_hits += opt.warm_hits as u64;
        let (manager, sources) = (&mut self.manager, &self.sources);
        let outcome = self.tracer.span("state.graft", first, || {
            manager.graft(&spec, sources, config.k)
        });
        self.counts.grafts += 1;
        self.counts.reused_nodes += outcome.reused_nodes as u64;
        self.counts.recovered_cqs += outcome.recovered_uqs.len() as u64;
        self.tracer.enter("trace.sample", first);
        let graph = self.manager.graph();
        self.counts.graph_nodes_max = self.counts.graph_nodes_max.max(graph.len() as u64);
        self.counts.graph_bytes_max = self.counts.graph_bytes_max.max(graph.approx_bytes() as u64);
        self.tracer.exit();

        self.tracer.enter("exec.atc", first);
        self.governor.begin_batch();
        while self.round() {
            self.counts.rounds += 1;
        }
        self.tracer.exit();
        self.manager.unpin_all();

        self.tracer.enter("lane.publish", first);
        for uq in &batch {
            let answers: Vec<(Score, Tuple)> = self
                .manager
                .rank_merge_of(uq.id)
                .map(|rm| {
                    self.manager
                        .graph()
                        .rank_merge(rm)
                        .results()
                        .iter()
                        .map(|r| (r.score, r.tuple.clone()))
                        .collect()
                })
                .unwrap_or_default();
            let response = self
                .stats
                .uq(uq.id)
                .and_then(|s| s.response_us())
                .unwrap_or(0);
            self.finished
                .push((uq.id.index(), digest_answers(&answers), response));
        }
        self.tracer.exit();
        let manager = &mut self.manager;
        self.tracer
            .span("state.unlink", first, || manager.unlink_completed());
        self.tracer
            .span("state.evict", first, || manager.evict_to_budget());
        self.tracer.exit();
    }

    /// `Atc::round` under round-robin scheduling.
    fn round(&mut self) -> bool {
        let mut rms = self.manager.graph().rank_merge_ids();
        if rms.is_empty() {
            return false;
        }
        let n = rms.len();
        rms.rotate_left(self.rr_offset % n);
        self.rr_offset = (self.rr_offset + 1) % n.max(1);
        let mut progress = false;
        for rm in rms {
            progress |= self.service(rm);
        }
        progress
    }

    /// `Atc::service`: maintain, read the preferred stream, re-maintain.
    fn service(&mut self, rm_id: NodeId) -> bool {
        if self.manager.graph().rank_merge(rm_id).is_done() {
            return false;
        }
        let bounds = self.bounds();
        let now = self.sources.clock().now_us();
        if self.maintain(rm_id, &bounds, now) {
            return true;
        }
        let graph = self.manager.graph();
        let choice = self.tracer.hot("exec.choose", || {
            graph.rank_merge(rm_id).choose_read(&bounds)
        });
        let Some(stream) = choice else {
            let bounds = self.bounds();
            return self.maintain(rm_id, &bounds, now);
        };
        let (graph, sources, governor) = (self.manager.graph_mut(), &self.sources, &self.governor);
        let read = self.tracer.hot("exec.read", || {
            graph.read_stream_governed(stream, sources, governor)
        });
        if matches!(read, StreamRead::Delivered) {
            self.counts.reads_delivered += 1;
        }
        let bounds = self.bounds();
        let now = self.sources.clock().now_us();
        self.maintain(rm_id, &bounds, now);
        true
    }

    fn bounds(&mut self) -> HashMap<NodeId, f64> {
        let graph = self.manager.graph();
        self.tracer.hot("exec.bounds", || graph.stream_bounds())
    }

    /// Maintain one rank-merge; on completion record it like
    /// `Atc::record_completion`. Returns whether it is done.
    fn maintain(&mut self, rm_id: NodeId, bounds: &HashMap<NodeId, f64>, now: u64) -> bool {
        let graph = self.manager.graph_mut();
        let done = self.tracer.hot("exec.maintain", || {
            let rm = graph.rank_merge_mut(rm_id);
            rm.maintain(bounds, now);
            rm.is_done()
        });
        if done {
            let rm = self.manager.graph().rank_merge(rm_id);
            let missing: Vec<RelId> = if self.governor.any_batch_failures() {
                self.governor.failed_among(&rm.rels())
            } else {
                Vec::new()
            };
            self.stats.complete(
                rm.uq(),
                self.sources.clock().now_us(),
                rm.results().len(),
                rm.activated(),
                missing,
            );
        }
        done
    }
}

/// What one traced pass produced.
pub struct TracedPass {
    pub wall_ns: u64,
    /// The pass's own thread: generation, clustering, dispatch.
    pub main: Tracer,
    /// One tracer per lane, by lane index.
    pub lanes: Vec<Tracer>,
    pub lane_counts: Vec<LaneCounts>,
    pub lane_wall_ns: Vec<u64>,
    /// `(script position, digest, virtual response µs)`, by position.
    pub finished: Vec<(usize, Digest, u64)>,
    pub cqs_generated: u64,
    pub tuples_consumed: u64,
    pub tuples_streamed: u64,
    pub probes: u64,
    pub stream_rounds: u64,
}

/// Run one traced pass of `def` on fresh lanes.
pub fn run_traced(fx: &Workload, def: &WorkloadDef, net_seed: u64) -> TracedPass {
    let config = engine_config(def, def.sharing.clone(), net_seed);
    let script = &fx.queries[..def.queries];
    let start = Instant::now();
    let mut main = Tracer::new(start);
    main.enter("pass", NO_ID);
    let generator = CandidateGenerator::new(&fx.catalog, &fx.index, candidate_config());
    let mut next_cq = 0u32;
    let mut generate = |main: &mut Tracer, pos: usize| -> UserQuery {
        let q = &script[pos];
        main.span("query.generate", pos as u64, || {
            generator.generate(
                &q.keywords,
                UqId::new(pos as u32),
                q.user,
                &mut next_cq,
                q.edge_costs.as_ref(),
            )
        })
        .unwrap_or_else(|e| panic!("script query {pos} was refused: {e}"))
    };
    let batch_size = def.batch_size.max(1);
    let mut lanes: Vec<RLane> = Vec::new();
    let mut cqs_generated = 0u64;
    match def.drive {
        Drive::ClosedLoop { clients } => {
            // Non-clustered modes run one lane, created with the engine.
            assert!(!matches!(def.sharing, SharingMode::AtcCl(_)));
            lanes.push(RLane::new(fx, &config, 0, start));
            let mut pos = 0;
            while pos < script.len() {
                let round_end = (pos + clients).min(script.len());
                for p in pos..round_end {
                    let uq = generate(&mut main, p);
                    cqs_generated += uq.cqs.len() as u64;
                    lanes[0].enqueue(uq, batch_size);
                }
                pos = round_end;
                if lanes[0].ready.is_empty() {
                    lanes[0].seal();
                }
                while !lanes[0].ready.is_empty() {
                    dispatch(&mut main, &mut lanes, fx, &config);
                }
            }
        }
        Drive::Burst => {
            let uqs: Vec<UserQuery> = (0..script.len()).map(|p| generate(&mut main, p)).collect();
            cqs_generated = uqs.iter().map(|uq| uq.cqs.len() as u64).sum();
            let SharingMode::AtcCl(cluster_cfg) = def.sharing else {
                panic!("burst replica expects ATC-CL");
            };
            let clusters = main.span("opt.cluster", NO_ID, || {
                let refs: BTreeMap<UqId, Vec<RelId>> = uqs
                    .iter()
                    .map(|uq| (uq.id, uq.cqs.iter().flat_map(|(cq, _)| cq.rels()).collect()))
                    .collect();
                cluster_user_queries(&refs, cluster_cfg)
            });
            let mut assignment: HashMap<UqId, usize> = HashMap::new();
            for (idx, cluster) in clusters.iter().enumerate() {
                lanes.push(RLane::new(fx, &config, idx as u64, start));
                for uq in cluster {
                    assignment.insert(*uq, idx);
                }
            }
            for uq in uqs {
                let lane = assignment[&uq.id];
                lanes[lane].enqueue(uq, batch_size);
            }
            loop {
                if lanes.iter().all(|l| l.ready.is_empty()) {
                    if lanes.iter().all(|l| l.open.is_empty()) {
                        break;
                    }
                    main.span("session.flush", NO_ID, || {
                        lanes.iter_mut().for_each(RLane::seal)
                    });
                }
                dispatch(&mut main, &mut lanes, fx, &config);
            }
        }
    }
    main.exit();
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut finished: Vec<(usize, Digest, u64)> = lanes
        .iter_mut()
        .flat_map(|l| l.finished.drain(..))
        .collect();
    finished.sort_by_key(|f| f.0);
    let sum = |f: fn(&Sources) -> u64| lanes.iter().map(|l| f(&l.sources)).sum::<u64>();
    TracedPass {
        wall_ns,
        finished,
        cqs_generated,
        tuples_consumed: sum(Sources::tuples_consumed),
        tuples_streamed: sum(Sources::tuples_streamed),
        probes: sum(Sources::probes),
        stream_rounds: sum(Sources::stream_rounds),
        lane_wall_ns: lanes
            .iter()
            .map(|l| l.tracer.total_ns("lane.batch"))
            .collect(),
        lane_counts: lanes.iter().map(|l| l.counts).collect(),
        lanes: lanes.into_iter().map(|l| l.tracer).collect(),
        main,
    }
}

/// One lane with the batch it is to run next.
type Job<'a> = (&'a mut RLane, Vec<UserQuery>);

/// `Engine::step`'s dispatch: run one sealed batch on every lane that has
/// one, lanes in parallel up to `lane_threads`.
fn dispatch(main: &mut Tracer, lanes: &mut [RLane], fx: &Workload, config: &EngineConfig) {
    main.enter("lanes.dispatch", NO_ID);
    let jobs: Vec<Job> = lanes
        .iter_mut()
        .filter_map(|l| l.ready.pop_front().map(|b| (l, b)))
        .collect();
    let threads = config.lane_threads.max(1).min(jobs.len().max(1));
    if threads <= 1 {
        for (lane, batch) in jobs {
            lane.run_batch(fx, config, batch);
        }
    } else {
        let queue: Vec<Mutex<Option<Job>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queue.len() {
                        break;
                    }
                    let job = queue[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                    if let Some((lane, batch)) = job {
                        lane.run_batch(fx, config, batch);
                    }
                });
            }
        });
    }
    main.exit();
}
