//! The m-way pipelined join (STeM eddy).
//!
//! "A much more flexible scheme ... is to generalize the pipelined hash join
//! to support m-way joins. Here, each input has an associated access module
//! — against which other tuples may be probed to compute join results. As
//! tuples are read from a streaming input, they are inserted into the access
//! module, then probed against the other access modules according to a probe
//! sequence. We also exploit the fact that this probe sequence can be
//! adjusted at runtime based on monitored values for the various join
//! selectivities" (Section 4.1).
//!
//! Access modules live in the lane-owned [`AccessModuleArena`] and are
//! named by dense, `Copy` [`ModuleId`]s; an input holds an id, never the
//! module itself. Sharing a hash table — the state-recovery machinery of
//! Section 6.2 builds *recovery* m-joins over the same tables, restricted
//! to pre-epoch partitions via an epoch cap, and the QS manager shares one
//! probe cache per remote relation — means two inputs holding the same id.
//! The ownership rule: graph-resident inputs hold one arena reference each
//! (taken at graft, dropped when the plan graph removes the node);
//! transient recovery joins borrow ids without retaining. This keeps the
//! whole executor `Send`: the arena moves with its lane onto a lane
//! thread, and no `Rc` ties operators to the spawning thread.
//!
//! An insert keeps its partial matches as per-level `(parent, match)`
//! entries and builds a joined [`Tuple`] only at the last probe step. A
//! finished query's m-join stays in the graph, detached but retained, so
//! later queries can reuse its state (Section 6.3). While it has no
//! consumer, an arrival is still stored and every probe still runs, with
//! the same clock charges, remote probes, probe-cache fills and
//! selectivity counts, but no join result is built: nothing would read it.

use crate::access::{AccessModule, AccessModuleArena, ModuleId};
use crate::govern::SourceGovernor;
use qsys_source::Sources;
use qsys_types::{Epoch, FxHashMap, RelId, Selection, Tuple};

/// One join predicate between two relations handled by this m-join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPred {
    /// One side.
    pub left_rel: RelId,
    /// Column on the left side.
    pub left_col: usize,
    /// Other side.
    pub right_rel: RelId,
    /// Column on the right side.
    pub right_col: usize,
}

/// One input of an m-join.
#[derive(Debug)]
pub struct MJoinInput {
    /// Relations covered by tuples arriving on (or probed from) this input.
    pub rels: Vec<RelId>,
    /// Arena id of the access module (the same id appearing in several
    /// inputs is how recovery joins and shared probe caches reference one
    /// module; [`ModuleId::DETACHED`] marks a stateless replay input).
    pub module: ModuleId,
    /// Only consider stored tuples from epochs strictly before this when
    /// probing (RecoverState's pre-epoch view); `None` = all.
    pub epoch_cap: Option<Epoch>,
    /// Whether arriving tuples are inserted into the module. Recovery
    /// replay inputs set this to `false`: their tuples are already stored.
    pub store_arrivals: bool,
    /// Residual selection applied to probe results (a keyword content match
    /// on a probe-only relation; streamed inputs arrive pre-filtered).
    pub selection: Option<Selection>,
}

/// Runtime selectivity monitor for one input.
#[derive(Clone, Copy, Debug, Default)]
struct InputStats {
    probes: u64,
    matches: u64,
}

impl InputStats {
    /// Observed matches per probe; `None` until enough evidence.
    fn selectivity(&self) -> Option<f64> {
        (self.probes >= 8).then(|| self.matches as f64 / self.probes as f64)
    }
}

/// A join predicate oriented for one probe step: it links a relation the
/// partial match already covers — matched at `level` of its chain — to
/// the probed input.
#[derive(Clone, Copy, Debug)]
struct Cond {
    level: usize,
    covered_rel: RelId,
    covered_col: usize,
    target_rel: RelId,
    target_col: usize,
}

/// The partial matches after one probe step: entry `(parent, m)` extends
/// entry `parent` of the previous level with the tuple `m` matched at this
/// step. A partial match is the chain of its entries back to the arrival;
/// it is never materialized as a joined [`Tuple`].
type Level = Vec<(u32, Tuple)>;

/// Where a probe step's matches go.
enum Sink<'a> {
    /// An intermediate step: keep `(parent, match)` for the next step.
    Level(&'a mut Level),
    /// The last step of an m-join with a consumer: build joined results.
    Emit(&'a mut Vec<Tuple>),
    /// The last step of an m-join without one: matches are only counted.
    Discard,
}

/// An m-way pipelined hash join.
#[derive(Debug)]
pub struct MJoin {
    inputs: Vec<MJoinInput>,
    preds: Vec<JoinPred>,
    /// Per predicate, the inputs owning its left and right relation
    /// (parallel to `preds`), so orienting a predicate is two bit tests.
    pred_inputs: Vec<(Option<usize>, Option<usize>)>,
    stats: Vec<InputStats>,
    output_rels: Vec<RelId>,
    /// Relation → index of the input covering it. Inputs of one m-join
    /// cover disjoint relation sets (a CQ references each relation once),
    /// so probe routing reduces to bitmask tests over input indices — no
    /// per-insert relation-set clones.
    owner: FxHashMap<RelId, usize>,
}

impl MJoin {
    /// Build an m-join; registers probe keys on all stored modules so every
    /// predicate can be evaluated by hash lookup.
    pub fn new(
        inputs: Vec<MJoinInput>,
        preds: Vec<JoinPred>,
        modules: &AccessModuleArena,
    ) -> MJoin {
        // Hard limit: probe routing uses a u64 input bitmask; silently
        // wrapping shifts in release builds would mis-route joins.
        assert!(inputs.len() <= 64, "m-join supports at most 64 inputs");
        let mut output_rels: Vec<RelId> =
            inputs.iter().flat_map(|i| i.rels.iter().copied()).collect();
        output_rels.sort_unstable();
        output_rels.dedup();
        let mut owner = FxHashMap::default();
        owner.reserve(output_rels.len());
        for (idx, input) in inputs.iter().enumerate() {
            for rel in &input.rels {
                let prev = owner.insert(*rel, idx);
                debug_assert!(prev.is_none(), "inputs cover disjoint relations");
            }
        }
        let mut mj = MJoin {
            stats: vec![InputStats::default(); inputs.len()],
            inputs,
            preds: Vec::new(),
            pred_inputs: Vec::new(),
            output_rels,
            owner,
        };
        for pred in preds {
            mj.push_pred(pred);
        }
        mj.register_probe_keys(modules);
        mj
    }

    fn push_pred(&mut self, pred: JoinPred) {
        let ends = (
            self.owner.get(&pred.left_rel).copied(),
            self.owner.get(&pred.right_rel).copied(),
        );
        self.preds.push(pred);
        self.pred_inputs.push(ends);
    }

    /// If predicate `p` connects an input in `mask` (a bitmask of input
    /// indices) to the `target` input, return
    /// `(covered_input, covered_rel, covered_col, target_rel, target_col)`.
    fn oriented(
        &self,
        p: usize,
        mask: u64,
        target: usize,
    ) -> Option<(usize, RelId, usize, RelId, usize)> {
        let pred = &self.preds[p];
        let in_mask = |i: usize| mask & (1 << i) != 0;
        match self.pred_inputs[p] {
            (Some(l), Some(r)) if in_mask(l) && r == target => Some((
                l,
                pred.left_rel,
                pred.left_col,
                pred.right_rel,
                pred.right_col,
            )),
            (Some(l), Some(r)) if in_mask(r) && l == target => Some((
                r,
                pred.right_rel,
                pred.right_col,
                pred.left_rel,
                pred.left_col,
            )),
            _ => None,
        }
    }

    fn register_probe_keys(&self, modules: &AccessModuleArena) {
        for pred in &self.preds {
            for (rel, col) in [
                (pred.left_rel, pred.left_col),
                (pred.right_rel, pred.right_col),
            ] {
                for input in &self.inputs {
                    if input.rels.contains(&rel) {
                        let Some(module) = modules.module(input.module) else {
                            continue;
                        };
                        if let AccessModule::Stored(s) = &mut *module.borrow_mut() {
                            s.add_probe_key((rel, col));
                        }
                    }
                }
            }
        }
    }

    /// The relations a full output tuple covers.
    pub fn output_rels(&self) -> &[RelId] {
        &self.output_rels
    }

    /// The inputs.
    pub fn inputs(&self) -> &[MJoinInput] {
        &self.inputs
    }

    /// The join predicates.
    pub fn preds(&self) -> &[JoinPred] {
        &self.preds
    }

    /// Add a predicate (grafting may extend a component).
    pub fn add_pred(&mut self, pred: JoinPred, modules: &AccessModuleArena) {
        if !self.preds.contains(&pred) {
            self.push_pred(pred);
            self.register_probe_keys(modules);
        }
        self.stats.resize(self.inputs.len(), InputStats::default());
    }

    /// Handle a tuple arriving on `input_idx`: store it (unless the input is
    /// a replay), then probe the other access modules following the
    /// adaptive probe sequence. Returns complete join results covering
    /// [`Self::output_rels`]. Infallible: remote probes bypass fault
    /// injection (see [`MJoin::insert_governed`] for the fault-aware path).
    pub fn insert(
        &mut self,
        input_idx: usize,
        tuple: Tuple,
        epoch: Epoch,
        sources: &Sources,
        modules: &AccessModuleArena,
    ) -> Vec<Tuple> {
        self.insert_governed(input_idx, tuple, epoch, sources, None, modules, true)
    }

    /// Like [`MJoin::insert`], but remote probes go through `governor`'s
    /// retry/breaker loop when one is supplied: a probe that gives up
    /// contributes no matches (the loss is recorded against the batch so
    /// affected queries resolve as degraded) instead of panicking the lane.
    ///
    /// With `emit` false — the m-join has no consumer — the arrival is
    /// still stored and every probe still runs, with the same charges,
    /// remote probes, probe-cache fills and selectivity counts, but no
    /// joined result is built and the returned vector is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_governed(
        &mut self,
        input_idx: usize,
        tuple: Tuple,
        epoch: Epoch,
        sources: &Sources,
        governor: Option<&SourceGovernor>,
        modules: &AccessModuleArena,
        emit: bool,
    ) -> Vec<Tuple> {
        debug_assert!(input_idx < self.inputs.len());
        if self.inputs[input_idx].store_arrivals {
            if let Some(module) = modules.module(self.inputs[input_idx].module) {
                if let AccessModule::Stored(s) = &mut *module.borrow_mut() {
                    s.insert(tuple.clone(), epoch, sources.clock());
                }
            }
        }
        let n = self.inputs.len();
        if n == 1 {
            return if emit { vec![tuple] } else { Vec::new() };
        }

        let mut covered: u64 = 1 << input_idx;
        let mut remaining: u64 = (u64::MAX >> (64 - n)) & !covered;
        // `levels[l]` = (input matched at step l, the partial matches after
        // it); level 0 is the arrival.
        let mut levels: Vec<(usize, Level)> = vec![(input_idx, vec![(u32::MAX, tuple)])];
        let mut out = Vec::new();
        while remaining != 0 {
            if levels.last().is_some_and(|(_, level)| level.is_empty()) {
                return Vec::new();
            }
            // Probe sequence: among inputs connected to the covered set,
            // pick the most selective (fewest matches per probe) first —
            // the runtime adaptivity of [24].
            let Some(pick) = self.pick_next(covered, remaining) else {
                // Disconnected component: cannot complete the join.
                return Vec::new();
            };
            remaining &= !(1 << pick);
            let mut next = Level::new();
            let sink = match (remaining != 0, emit) {
                (true, _) => Sink::Level(&mut next),
                (false, true) => Sink::Emit(&mut out),
                (false, false) => Sink::Discard,
            };
            self.probe_step(pick, covered, &levels, sink, sources, governor, modules);
            covered |= 1 << pick;
            if remaining != 0 {
                levels.push((pick, next));
            }
        }
        out
    }

    /// Choose the next input to probe: connected to the `covered` input
    /// mask, lowest observed selectivity (unknowns use a neutral prior of
    /// 1.0); ties go to the lowest input index.
    fn pick_next(&self, covered: u64, remaining: u64) -> Option<usize> {
        (0..self.inputs.len())
            .filter(|&i| remaining & (1 << i) != 0)
            .filter(|&i| (0..self.preds.len()).any(|p| self.oriented(p, covered, i).is_some()))
            .min_by(|&a, &b| {
                let sa = self.stats[a].selectivity().unwrap_or(1.0);
                let sb = self.stats[b].selectivity().unwrap_or(1.0);
                sa.total_cmp(&sb)
            })
    }

    /// Probe `target` with every partial match of the last level, keeping
    /// the matches that also satisfy any additional predicates linking
    /// `target` to the covered set, and hand them to `sink`.
    #[allow(clippy::too_many_arguments)]
    fn probe_step(
        &mut self,
        target: usize,
        covered: u64,
        levels: &[(usize, Level)],
        mut sink: Sink<'_>,
        sources: &Sources,
        governor: Option<&SourceGovernor>,
        modules: &AccessModuleArena,
    ) {
        let conds: Vec<Cond> = (0..self.preds.len())
            .filter_map(|p| {
                let (input, covered_rel, covered_col, target_rel, target_col) =
                    self.oriented(p, covered, target)?;
                Some(Cond {
                    level: levels.iter().position(|(i, _)| *i == input)?,
                    covered_rel,
                    covered_col,
                    target_rel,
                    target_col,
                })
            })
            .collect();
        debug_assert!(
            !conds.is_empty(),
            "join graphs are connected by construction"
        );
        let Some((probe, extra)) = conds.split_first() else {
            return;
        };
        let input = &self.inputs[target];
        let Some(module) = modules.module(input.module) else {
            // A detached (stateless) input can never contribute matches.
            return;
        };
        let residual = input.selection.as_ref().zip(input.rels.first().copied());
        // Disjoint field borrows: the residual selection is read through
        // `self.inputs` while the counters are bumped through `self.stats`.
        let stats = &mut self.stats[target];
        let Some(((_, frontier), earlier)) = levels.split_last() else {
            return;
        };
        let mut row: Vec<&Tuple> = Vec::with_capacity(levels.len());
        for (idx, (parent, last)) in frontier.iter().enumerate() {
            // The partial match's tuples, one per level, arrival first.
            row.clear();
            row.resize(levels.len(), last);
            let mut up = *parent;
            for (l, (_, level)) in earlier.iter().enumerate().rev() {
                let (grand, t) = &level[up as usize];
                row[l] = t;
                up = *grand;
            }
            let Some(key) = row[probe.level].value_of(probe.covered_rel, probe.covered_col) else {
                continue;
            };
            stats.probes += 1;
            let parent = idx as u32;
            match &mut *module.borrow_mut() {
                AccessModule::Stored(s) => {
                    let hits = s.probe(
                        (probe.target_rel, probe.target_col),
                        key,
                        input.epoch_cap,
                        sources.clock(),
                    );
                    keep_matches(hits, residual, extra, &row, parent, stats, &mut sink);
                }
                AccessModule::Remote(r) => {
                    let hits = r.probe_governed(probe.target_col, key, sources, governor);
                    keep_matches(hits.iter(), residual, extra, &row, parent, stats, &mut sink);
                }
            }
        }
    }

    /// Observed selectivity per input (for tests and the optimizer's
    /// runtime statistics refresh).
    pub fn observed_selectivities(&self) -> Vec<Option<f64>> {
        self.stats.iter().map(|s| s.selectivity()).collect()
    }

    /// Probes issued against each input so far.
    pub fn probe_counts(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.probes).collect()
    }

    /// Approximate resident bytes across this join's modules (shared
    /// modules count once per referencing join, as before).
    pub fn approx_bytes(&self, modules: &AccessModuleArena) -> usize {
        self.inputs
            .iter()
            .filter_map(|i| modules.module(i.module))
            .map(|m| m.borrow().approx_bytes())
            .sum()
    }
}

/// Filter one probe's `hits` for the partial match `row` (its tuples by
/// level; entry `parent` of the last level): apply the probed input's
/// residual selection and the step's extra predicates, count each
/// survivor, and hand it to `sink`.
fn keep_matches<'t>(
    hits: impl Iterator<Item = &'t Tuple>,
    residual: Option<(&Selection, RelId)>,
    extra: &[Cond],
    row: &[&Tuple],
    parent: u32,
    stats: &mut InputStats,
    sink: &mut Sink<'_>,
) {
    for m in hits {
        if let Some((sel, rel)) = residual {
            if !m.part(rel).is_some_and(|p| sel.matches(&p.values)) {
                continue;
            }
        }
        let ok = extra.iter().all(|c| {
            match (
                row[c.level].value_of(c.covered_rel, c.covered_col),
                m.value_of(c.target_rel, c.target_col),
            ) {
                (Some(a), Some(b)) => a.joins_with(b),
                _ => false,
            }
        });
        if !ok {
            continue;
        }
        stats.matches += 1;
        match sink {
            Sink::Level(level) => level.push((parent, m.clone())),
            Sink::Emit(out) => out.push(joined(row, m)),
            Sink::Discard => {}
        }
    }
}

/// The joined result of a partial match `row` extended by `last`.
fn joined(row: &[&Tuple], last: &Tuple) -> Tuple {
    let arity = row.iter().map(|t| t.arity()).sum::<usize>() + last.arity();
    let mut parts = Vec::with_capacity(arity);
    for t in row.iter().copied().chain(std::iter::once(last)) {
        parts.extend(t.parts().iter().cloned());
    }
    Tuple::from_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{RemoteModule, StoredModule};
    use qsys_source::Table;
    use qsys_types::{BaseTuple, CostProfile, SimClock, Value};
    use std::sync::Arc;

    fn tup(rel: u32, id: u64, keys: &[i64], score: f64) -> Tuple {
        Tuple::single(Arc::new(BaseTuple::new(
            RelId::new(rel),
            id,
            keys.iter().map(|&k| Value::Int(k)).collect(),
            score,
        )))
    }

    fn stored_input(rel: u32, modules: &mut AccessModuleArena) -> MJoinInput {
        MJoinInput {
            rels: vec![RelId::new(rel)],
            module: modules.alloc(AccessModule::Stored(StoredModule::new([]))),
            epoch_cap: None,
            store_arrivals: true,
            selection: None,
        }
    }

    fn pred(l: u32, lc: usize, r: u32, rc: usize) -> JoinPred {
        JoinPred {
            left_rel: RelId::new(l),
            left_col: lc,
            right_rel: RelId::new(r),
            right_col: rc,
        }
    }

    fn sources() -> Sources {
        Sources::new(SimClock::new(), CostProfile::default(), 5)
    }

    /// Symmetric pipelined join: results appear exactly once, whichever
    /// side arrives first.
    #[test]
    fn two_way_symmetric_join() {
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(
            vec![stored_input(0, &mut modules), stored_input(1, &mut modules)],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let s = sources();
        let r1 = mj.insert(0, tup(0, 1, &[5], 0.9), Epoch(0), &s, &modules);
        assert!(r1.is_empty());
        let r2 = mj.insert(1, tup(1, 10, &[5], 0.8), Epoch(0), &s, &modules);
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].arity(), 2);
        let r3 = mj.insert(0, tup(0, 2, &[5], 0.7), Epoch(0), &s, &modules);
        assert_eq!(r3.len(), 1);
        let r4 = mj.insert(1, tup(1, 11, &[6], 0.6), Epoch(0), &s, &modules);
        assert!(r4.is_empty());
    }

    /// Three-way join over a path R0 -0- R1 -1- R2.
    #[test]
    fn three_way_join_produces_full_results() {
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(
            vec![
                stored_input(0, &mut modules),
                stored_input(1, &mut modules),
                stored_input(2, &mut modules),
            ],
            vec![pred(0, 0, 1, 0), pred(1, 1, 2, 0)],
            &modules,
        );
        let s = sources();
        assert!(mj
            .insert(0, tup(0, 1, &[5], 1.0), Epoch(0), &s, &modules)
            .is_empty());
        assert!(mj
            .insert(2, tup(2, 30, &[7], 1.0), Epoch(0), &s, &modules)
            .is_empty());
        // R1 row joins both sides: key 5 to R0, key 7 to R2.
        let r = mj.insert(1, tup(1, 20, &[5, 7], 1.0), Epoch(0), &s, &modules);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].arity(), 3);
        assert_eq!(
            r[0].parts().iter().map(|p| p.rel.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    /// Full m-join output equals the batch join, regardless of arrival
    /// order (exercised more heavily by the property tests).
    #[test]
    fn arrival_order_does_not_change_result_set() {
        let tuples0: Vec<Tuple> = (0..6).map(|i| tup(0, i, &[(i % 3) as i64], 1.0)).collect();
        let tuples1: Vec<Tuple> = (0..6)
            .map(|i| tup(1, 100 + i, &[(i % 3) as i64], 1.0))
            .collect();
        let run = |order: &[(usize, &Tuple)]| {
            let mut modules = AccessModuleArena::new();
            let mut mj = MJoin::new(
                vec![stored_input(0, &mut modules), stored_input(1, &mut modules)],
                vec![pred(0, 0, 1, 0)],
                &modules,
            );
            let s = sources();
            let mut results = Vec::new();
            for (idx, t) in order {
                results.extend(mj.insert(*idx, (*t).clone(), Epoch(0), &s, &modules));
            }
            let mut prov: Vec<_> = results.iter().map(|t| t.provenance()).collect();
            prov.sort();
            prov
        };
        let mut interleaved: Vec<(usize, &Tuple)> = Vec::new();
        for i in 0..6 {
            interleaved.push((0, &tuples0[i]));
            interleaved.push((1, &tuples1[i]));
        }
        let mut sequential: Vec<(usize, &Tuple)> = Vec::new();
        for t in &tuples0 {
            sequential.push((0, t));
        }
        for t in &tuples1 {
            sequential.push((1, t));
        }
        let a = run(&interleaved);
        let b = run(&sequential);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12); // 6 per key-group: 2*2*3 keys = 12
    }

    /// A remote (random access) input is probed, not streamed.
    #[test]
    fn remote_input_is_probed_with_cache() {
        let s = sources();
        let rel = RelId::new(1);
        let rows = (0..4)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    rel,
                    i,
                    vec![Value::Int((i % 2) as i64)],
                    1.0,
                ))
            })
            .collect();
        s.register(Table::new(rel, rows));
        let mut modules = AccessModuleArena::new();
        let remote = MJoinInput {
            rels: vec![rel],
            module: modules.alloc(AccessModule::Remote(RemoteModule::new(rel))),
            epoch_cap: None,
            store_arrivals: false,
            selection: None,
        };
        let mut mj = MJoin::new(
            vec![stored_input(0, &mut modules), remote],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let r = mj.insert(0, tup(0, 1, &[0], 1.0), Epoch(0), &s, &modules);
        assert_eq!(r.len(), 2); // two remote rows with key 0
        assert_eq!(s.probes(), 1);
        // Another arrival with the same key: served from the probe cache.
        let r = mj.insert(0, tup(0, 2, &[0], 1.0), Epoch(0), &s, &modules);
        assert_eq!(r.len(), 2);
        assert_eq!(s.probes(), 1);
    }

    /// Epoch caps restrict probes to pre-epoch state (RecoverState).
    #[test]
    fn epoch_cap_limits_matches() {
        let mut modules = AccessModuleArena::new();
        let capped = MJoinInput {
            rels: vec![RelId::new(1)],
            module: modules.alloc(AccessModule::Stored(StoredModule::new([]))),
            epoch_cap: Some(Epoch(1)),
            store_arrivals: true,
            selection: None,
        };
        let mut mj = MJoin::new(
            vec![stored_input(0, &mut modules), capped],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let s = sources();
        // One R1 tuple in epoch 0, one in epoch 1 — only the former visible.
        mj.insert(1, tup(1, 10, &[5], 1.0), Epoch(0), &s, &modules);
        mj.insert(1, tup(1, 11, &[5], 1.0), Epoch(1), &s, &modules);
        let r = mj.insert(0, tup(0, 1, &[5], 1.0), Epoch(1), &s, &modules);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].part(RelId::new(1)).unwrap().row_id, 10);
    }

    /// Selectivity monitoring kicks in after enough probes and reorders the
    /// probe sequence (most selective first).
    #[test]
    fn adaptive_probe_sequence_prefers_selective_input() {
        // R0 joins R1 (col 0, high fanout) and R2 (col 1, zero matches).
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(
            vec![
                stored_input(0, &mut modules),
                stored_input(1, &mut modules),
                stored_input(2, &mut modules),
            ],
            vec![pred(0, 0, 1, 0), pred(0, 1, 2, 0)],
            &modules,
        );
        let s = sources();
        for i in 0..10 {
            mj.insert(1, tup(1, 100 + i, &[1], 1.0), Epoch(0), &s, &modules);
        }
        // No R2 tuples at all: selectivity of input 2 is 0. The very first
        // R0 insert fans out to 10 partials, giving input 2 instant
        // evidence of zero selectivity.
        for i in 0..10 {
            mj.insert(0, tup(0, i, &[1, 9], 1.0), Epoch(0), &s, &modules);
        }
        let sel = mj.observed_selectivities();
        assert_eq!(sel[2], Some(0.0), "input 2 observed as fully selective");
        // Adaptation: once input 2 looks most selective it is probed first,
        // pruning every partial — so input 1 stops being probed. Only the
        // first insert (before evidence) ever touched it.
        let probes = mj.probe_counts();
        assert_eq!(probes[1], 1, "R1 probed only before adaptation kicked in");
        let before = mj.probe_counts()[1];
        mj.insert(0, tup(0, 99, &[1, 9], 1.0), Epoch(0), &s, &modules);
        assert_eq!(mj.probe_counts()[1], before, "R1 probe was skipped");
    }

    /// A consumer-less m-join does all the work of one with a consumer —
    /// the same charges, probes, probe-cache fills, selectivity counts and
    /// stored state — but builds no results.
    #[test]
    fn consumerless_twin_does_the_same_work() {
        let rel2 = RelId::new(2);
        let build = || {
            let s = sources();
            let rows = (0..12)
                .map(|i| {
                    let values = vec![Value::Int(i % 4), Value::Int(i % 3), Value::Int(i % 2)];
                    Arc::new(BaseTuple::new(rel2, i as u64, values, 1.0))
                })
                .collect();
            s.register(Table::new(rel2, rows));
            let mut modules = AccessModuleArena::new();
            let remote = MJoinInput {
                rels: vec![rel2],
                module: modules.alloc(AccessModule::Remote(RemoteModule::new(rel2))),
                epoch_cap: None,
                store_arrivals: false,
                selection: Some(Selection::eq(2, Value::Int(1))),
            };
            // A triangle, so the last step checks an extra predicate.
            let mj = MJoin::new(
                vec![
                    stored_input(0, &mut modules),
                    stored_input(1, &mut modules),
                    remote,
                ],
                vec![pred(0, 0, 1, 0), pred(1, 1, 2, 0), pred(0, 1, 2, 1)],
                &modules,
            );
            (s, modules, mj)
        };
        let (s_emit, m_emit, mut emitting) = build();
        let (s_quiet, m_quiet, mut quiet) = build();
        let mut state = 7u64;
        let mut emitted = 0;
        for i in 0..120 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let input = (state >> 33) as usize % 2;
            let keys = [((state >> 40) % 4) as i64, ((state >> 50) % 3) as i64];
            let t = tup(input as u32, i, &keys, 1.0);
            let out =
                emitting.insert_governed(input, t.clone(), Epoch(0), &s_emit, None, &m_emit, true);
            emitted += out.len();
            let none = quiet.insert_governed(input, t, Epoch(0), &s_quiet, None, &m_quiet, false);
            assert!(none.is_empty());
        }
        assert!(emitted > 0, "the workload must produce results");
        assert_eq!(s_emit.clock().breakdown(), s_quiet.clock().breakdown());
        assert_eq!(s_emit.probes(), s_quiet.probes());
        assert_eq!(s_emit.probe_result_tuples(), s_quiet.probe_result_tuples());
        assert_eq!(emitting.probe_counts(), quiet.probe_counts());
        assert_eq!(
            emitting.observed_selectivities(),
            quiet.observed_selectivities()
        );
        for (a, b) in emitting.inputs().iter().zip(quiet.inputs()) {
            match (
                &*m_emit.module(a.module).unwrap().borrow(),
                &*m_quiet.module(b.module).unwrap().borrow(),
            ) {
                (AccessModule::Stored(x), AccessModule::Stored(y)) => {
                    let prov = |m: &StoredModule| -> Vec<_> {
                        m.entries_before(Epoch(1))
                            .iter()
                            .map(Tuple::provenance)
                            .collect()
                    };
                    assert!(!x.is_empty());
                    assert_eq!(prov(x), prov(y));
                }
                (AccessModule::Remote(x), AccessModule::Remote(y)) => {
                    assert!(x.remote_probes() > 0 && x.cache_hits() > 0);
                    assert_eq!(x.cache_hits(), y.cache_hits());
                    assert_eq!(x.remote_probes(), y.remote_probes());
                }
                _ => panic!("twins differ in module kinds"),
            }
        }
    }

    #[test]
    fn single_input_passes_through() {
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(vec![stored_input(0, &mut modules)], vec![], &modules);
        let s = sources();
        let r = mj.insert(0, tup(0, 1, &[5], 0.5), Epoch(0), &s, &modules);
        assert_eq!(r.len(), 1);
    }
}
