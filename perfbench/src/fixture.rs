//! The shared fixture: the GUS instance, the three workload definitions,
//! and the pinned engine configuration each one runs under.

use qsys::exec::{RetryPolicy, SchedulingPolicy};
use qsys::opt::adaptive::AdaptiveConfig;
use qsys::opt::cluster::ClusterConfig;
use qsys::opt::HeuristicConfig;
use qsys::query::CandidateConfig;
use qsys::state::EvictionPolicy;
use qsys::types::CostProfile;
use qsys::{Engine, EngineConfig, ShardConfig, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;
use std::time::Instant;

/// The GUS instance every workload runs on by default: the seed-41
/// script at `Scale::Small` (1k–5k rows per relation), long enough for the
/// longest workload. Queries are generated after the schema, so the first
/// 40 queries of this script are the 40-query script.
pub const GUS_SEED: u64 = 41;
pub const SCRIPT_LEN: usize = 60;

/// How clients feed queries to the engine.
#[derive(Clone, Copy, Debug)]
pub enum Drive {
    /// `clients` clients with zero think time: each submits its next
    /// scripted query the moment its previous one completes. With
    /// `clients == batch_size` every admission window seals full, so the
    /// batches are the script cut into consecutive chunks.
    ClosedLoop { clients: usize },
    /// Every query is submitted at once, then the engine is stepped until
    /// idle (flushing the last partial windows).
    Burst,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Leading queries of the script this workload runs.
    pub queries: usize,
    pub k: usize,
    pub batch_size: usize,
    pub sharing: SharingMode,
    pub lane_threads: usize,
    pub drive: Drive,
}

/// The ATC-CL clustering the repository's multi-cluster reference uses.
pub const CL_CLUSTERS: ClusterConfig = ClusterConfig { t_m: 2, t_c: 0.9 };

/// All workloads, by name. Why each was chosen, and its layer shares,
/// are recorded in `perfbench/WORKLOADS.md`.
pub fn workloads() -> Vec<WorkloadDef> {
    vec![
        WorkloadDef {
            name: "gus-full",
            queries: 40,
            k: 50,
            batch_size: 5,
            sharing: SharingMode::AtcFull,
            lane_threads: 1,
            drive: Drive::ClosedLoop { clients: 5 },
        },
        WorkloadDef {
            name: "gus-cl",
            queries: 40,
            k: 50,
            batch_size: 5,
            sharing: SharingMode::AtcCl(CL_CLUSTERS),
            lane_threads: 2,
            drive: Drive::Burst,
        },
        WorkloadDef {
            name: "gus-interactive",
            queries: 60,
            k: 10,
            batch_size: 1,
            sharing: SharingMode::AtcFull,
            lane_threads: 1,
            drive: Drive::ClosedLoop { clients: 1 },
        },
    ]
}

pub fn workload(name: &str) -> Option<WorkloadDef> {
    workloads().into_iter().find(|w| w.name == name)
}

/// The engine configuration for a workload. Every field is written out —
/// no `..EngineConfig::default()` — so nothing is inherited from the
/// `QSYS_*` environment, and a field added to `EngineConfig` later fails
/// to compile here until the benchmark pins it.
pub fn engine_config(def: &WorkloadDef, sharing: SharingMode, net_seed: u64) -> EngineConfig {
    EngineConfig {
        k: def.k,
        batch_size: def.batch_size,
        arrival_window_us: None,
        sharing,
        memory_budget: usize::MAX,
        eviction: EvictionPolicy::LruSizeTieBreak,
        candidate: candidate_config(),
        heuristics: HeuristicConfig::default(),
        cost_profile: CostProfile::default(),
        scheduling: SchedulingPolicy::RoundRobin,
        share_probe_caches: true,
        seed: net_seed,
        lane_threads: def.lane_threads,
        warm_opt: true,
        faults: None,
        retry: RetryPolicy::default(),
        snapshot_dir: None,
        sharding: ShardConfig::off(),
        adaptive: AdaptiveConfig::off(),
        snapshot_every: 1,
        verify: false,
        shard_debug: false,
        env_errors: Vec::new(),
    }
}

/// Candidate-network generation as in the repository's GUS experiments:
/// at most 20 CQs of at most 6 atoms per user query.
pub fn candidate_config() -> CandidateConfig {
    CandidateConfig {
        max_cqs: 20,
        max_atoms: 6,
        matches_per_keyword: 3,
        ..CandidateConfig::default()
    }
}

/// How long each set-up step took, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub materialize_s: f64,
    pub engine_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.materialize_s + self.engine_s
    }
}

/// Generate the GUS instance and materialize every relation, so no table
/// is generated inside a timed query.
pub fn build_fixture(instance_seed: u64, times: &mut SetupTimes) -> Workload {
    let t = Instant::now();
    let mut cfg = GusConfig::small(instance_seed);
    cfg.user_queries = SCRIPT_LEN;
    let workload = gus::generate(&cfg);
    times.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for rel in workload.catalog.relations() {
        std::hint::black_box(workload.tables.table(rel.id));
    }
    times.materialize_s = t.elapsed().as_secs_f64();
    workload
}

/// Stand up an engine over the fixture, timing construction.
pub fn build_engine(fx: &Workload, config: EngineConfig, times: &mut SetupTimes) -> Engine {
    let t = Instant::now();
    let engine = Engine::for_workload(fx, config);
    times.engine_s = t.elapsed().as_secs_f64();
    engine
}
