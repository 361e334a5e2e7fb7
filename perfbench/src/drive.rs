//! The end-to-end pass: drive `qsys::Engine` through `Session`s from the
//! outside, as a client would, and time every query from submission to
//! its ticket reading `Completed`.

use crate::digest::{digest_answers, Digest};
use crate::fixture::{build_engine, engine_config, Drive, SetupTimes, WorkloadDef};
use crate::trace::Tracer;
use qsys::{QueryOutcome, QueryTicket, RunReport, TicketStatus};
use qsys_workload::Workload;
use std::time::Instant;

/// One query as the client saw it.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Script position.
    pub pos: usize,
    pub latency_ns: u64,
    pub complete: bool,
    pub digest: Digest,
    /// Virtual response time, µs.
    pub response_us: u64,
}

/// Everything one pass measured.
pub struct Pass {
    pub wall_ns: u64,
    pub queries: Vec<QueryRecord>,
    pub report: RunReport,
    /// Spans around `Session::submit`, `Engine::step`, `Engine::flush`
    /// (traced passes only).
    pub tracer: Option<Tracer>,
}

struct Outstanding {
    pos: usize,
    ticket: QueryTicket,
    submitted: Instant,
}

/// Run one workload pass on a fresh engine.
pub fn run_pass(fx: &Workload, def: &WorkloadDef, net_seed: u64, traced: bool) -> Pass {
    let mut setup = SetupTimes::default();
    let config = engine_config(def, def.sharing.clone(), net_seed);
    let mut engine = build_engine(fx, config, &mut setup);
    let script = &fx.queries[..def.queries];
    let start = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(start));
    let mut done: Vec<QueryRecord> = Vec::with_capacity(script.len());
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut next = 0usize;

    let clients = match def.drive {
        Drive::ClosedLoop { clients } => clients,
        Drive::Burst => script.len(),
    };
    while done.len() < script.len() {
        // Every idle client sends its next scripted query.
        while outstanding.len() < clients && next < script.len() {
            let q = &script[next];
            let mut submit = || {
                let mut session = engine.session(q.user);
                if let Some(costs) = &q.edge_costs {
                    session = session.with_edge_costs(costs.clone());
                }
                session.submit(&q.keywords, q.arrival_us)
            };
            let submitted = Instant::now();
            let ticket = match tracer.as_mut() {
                Some(t) => t.span("session.submit", next as u64, submit),
                None => submit(),
            };
            let ticket = ticket.unwrap_or_else(|e| {
                panic!("script query {next} ({:?}) was refused: {e}", q.keywords)
            });
            outstanding.push(Outstanding {
                pos: next,
                ticket,
                submitted,
            });
            next += 1;
        }
        let ran = match tracer.as_mut() {
            Some(t) => t.span("session.step", crate::trace::NO_ID, || engine.step()),
            None => engine.step(),
        };
        let now = Instant::now();
        collect_completed(&mut outstanding, &mut done, now);
        if ran == 0 && !outstanding.is_empty() && engine.is_idle() {
            panic!("engine idle with {} queries outstanding", outstanding.len());
        }
        if ran == 0 && !engine.is_idle() {
            // Only partial admission windows are left: no further arrival
            // will fill them, so seal them.
            match tracer.as_mut() {
                Some(t) => t.span("session.flush", crate::trace::NO_ID, || engine.flush()),
                None => engine.flush(),
            }
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    done.sort_by_key(|r| r.pos);
    let report = engine.report();
    for r in &mut done {
        r.response_us = report
            .per_uq_id(qsys::types::UqId::new(r.pos as u32))
            .map_or(0, |u| u.response_us);
    }
    Pass {
        wall_ns,
        queries: done,
        report,
        tracer,
    }
}

fn collect_completed(
    outstanding: &mut Vec<Outstanding>,
    done: &mut Vec<QueryRecord>,
    now: Instant,
) {
    outstanding.retain(|o| {
        if o.ticket.poll() != TicketStatus::Completed {
            return true;
        }
        let latency_ns = now.duration_since(o.submitted).as_nanos() as u64;
        let complete = matches!(o.ticket.outcome(), Some(QueryOutcome::Complete));
        let answers = o.ticket.take_results().unwrap_or_default();
        done.push(QueryRecord {
            pos: o.pos,
            latency_ns,
            complete,
            digest: digest_answers(&answers),
            response_us: 0,
        });
        false
    });
}
