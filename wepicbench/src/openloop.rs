//! The open-loop driver: one thread steps every node round-robin and
//! injects each scheduled operation into its peer once it is due.

use crate::calib::{self, Calibration};
use crate::net::Net;
use crate::trace::{self, Layer};
use std::collections::HashMap;
use std::time::Instant;
use wdl_core::StageStats;
use wdl_datalog::{Symbol, Value};

/// Pause after a step that sent application messages, in microseconds.
/// It also hides part of the spurious session retransmissions: without it a
/// frame that misses the receiver's next step is acked a round late, after
/// the sender's 0.8 ms retransmission timer has fired.
const SEND_PAUSE_US: u64 = 100;

/// What an operation measures once every watcher has drained it.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Class {
    /// An upload in the timed phase: `visible_*`.
    Visible,
    /// A delete in the timed phase: `retract_*`.
    Retract,
    /// An upload of the closing burst: `burst_facts_per_s`.
    Burst,
    /// Not measured (selection changes, local trimming).
    Untracked,
}

/// One scheduled operation on one peer.
#[derive(Clone, Debug)]
pub struct Op {
    /// When the operation is due, from the start of the timed phase.
    pub due_ns: u64,
    pub node: usize,
    pub insert: bool,
    pub rel: Symbol,
    pub tuple: Vec<Value>,
    /// Picture id the watchers will see (ignored when untracked).
    pub key: i64,
    /// Bit `i` set: node `i` must drain the fact before the op counts as
    /// done.
    pub watchers: u32,
    pub class: Class,
}

/// Per-step sample of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct StepSample {
    pub us: f64,
    pub idle: bool,
}

/// What one open-loop run measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub visible_ms: Vec<f64>,
    pub retract_ms: Vec<f64>,
    /// When each `visible_ms` / `retract_ms` sample ended, from the start
    /// of the loop.
    pub visible_at_ns: Vec<u64>,
    pub retract_at_ns: Vec<u64>,
    /// Kernel times taken through the loop.
    pub calib: Calibration,
    pub burst_facts: usize,
    /// Seconds from the burst's due time until its last fact was visible.
    pub burst_s: f64,
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub errors: usize,
    pub unseen: usize,
    /// Outstanding operations sampled every 100 ms of the timed phase.
    pub backlog: Vec<usize>,
    pub rounds: u64,
    pub steps: Vec<StepSample>,
    pub stage: StageStats,
    pub deferred: u64,
    /// (op, watcher) deliveries observed.
    pub deliveries: u64,
    /// Peak of unacked session frames across the network, sampled after
    /// every round (traced runs only).
    pub unacked_peak: u64,
    /// Wall time of the timed loop, in ns.
    pub wall_ns: u64,
}

impl LoopOut {
    pub fn failed(&self) -> usize {
        self.errors + self.unseen
    }

    /// Whether the backlog grew across the timed phase: the last quarter's
    /// mean backlog exceeds twice the first quarter's plus `slack` ops.
    pub fn backlog_grew(&self, slack: f64) -> bool {
        let q = self.backlog.len() / 4;
        if q == 0 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        let first = mean(&self.backlog[..q]);
        let last = mean(&self.backlog[self.backlog.len() - q..]);
        last > 2.0 * first + slack
    }
}

fn add_stats(acc: &mut StageStats, s: &StageStats) {
    acc.ingested_messages += s.ingested_messages;
    acc.applied_updates += s.applied_updates;
    acc.fixpoint_rounds += s.fixpoint_rounds;
    acc.derivations += s.derivations;
    acc.facts_out += s.facts_out;
    acc.delegations_out += s.delegations_out;
    acc.revocations_out += s.revocations_out;
    acc.rejected += s.rejected;
    acc.reads_blocked += s.reads_blocked;
}

/// Runs `ops` (sorted by due time) against `net`: the timed phase lasts
/// `timed_ns`, then the driver keeps stepping until every watcher saw
/// every operation or `drain_ns` more have passed. Between rounds it times
/// the calibration kernel every [`crate::calib::EVERY_NS`].
pub fn run(net: &mut Net, ops: &[Op], timed_ns: u64, drain_ns: u64) -> Result<LoopOut, String> {
    let n = net.nodes.len();
    let traced = trace::on();
    let mut out = LoopOut::default();
    let mut remaining: Vec<u32> = ops.iter().map(|o| o.watchers).collect();
    let mut pending: HashMap<(i64, bool), usize> = HashMap::new();
    let mut outstanding = 0usize;
    let mut next = 0;
    let mut next_sample = 0u64;
    let mut burst_due: Option<u64> = None;
    let mut burst_left = 0usize;
    let mut burst_done = 0u64;
    // Each latency is scaled by the kernel times within 250 ms of it.
    out.calib = Calibration::new(calib::EVERY_NS, 250_000_000);
    let t0 = Instant::now();
    loop {
        let mut active = false;
        for i in 0..n {
            let now = t0.elapsed().as_nanos() as u64;
            if next < ops.len() && ops[next].due_ns <= now {
                let _span = trace::span(Layer::Inject, i as u16);
                while next < ops.len() && ops[next].due_ns <= now {
                    let op = &ops[next];
                    out.late_ms.push((now - op.due_ns) as f64 / 1e6);
                    out.attempted += 1;
                    let peer = net.peer_mut(op.node);
                    let res = if op.insert {
                        peer.insert_local(op.rel, op.tuple.clone())
                    } else {
                        peer.delete_local(op.rel, op.tuple.clone())
                    };
                    match res {
                        Ok(true) => {
                            if op.watchers != 0 {
                                pending.insert((op.key, op.insert), next);
                                outstanding += 1;
                            }
                            if op.class == Class::Burst {
                                burst_due.get_or_insert(op.due_ns);
                                burst_left += 1;
                                out.burst_facts += 1;
                            }
                        }
                        // A no-op insert or delete means the schedule and
                        // the peer's state disagree.
                        Ok(false) | Err(_) => out.errors += 1,
                    }
                    next += 1;
                }
            }
            let start = Instant::now();
            let r = net.step(i)?;
            let end = t0.elapsed().as_nanos() as u64;
            active |= r.received > 0 || r.sent > 0 || r.changed || r.deferred > 0;
            if end <= timed_ns {
                out.steps.push(StepSample {
                    us: start.elapsed().as_nanos() as f64 / 1e3,
                    idle: r.received == 0 && r.sent == 0 && !r.changed,
                });
                add_stats(&mut out.stage, &r.stats);
                out.deferred += r.deferred as u64;
            }
            if r.sent > 0 {
                // Give the receivers' reader threads a moment to take the
                // frames off the socket before the next node drains, so
                // whether a fact makes the next step does not hinge on a
                // race with thread wake-up.
                let _span = trace::span(Layer::Idle, u16::MAX);
                std::thread::sleep(std::time::Duration::from_micros(SEND_PAUSE_US));
            }
            let seen = net.nodes[i].transport().take_seen();
            if seen.is_empty() {
                continue;
            }
            let _span = trace::span(Layer::Account, i as u16);
            let bit = 1u32 << i;
            for key in seen {
                let Some(&k) = pending.get(&key) else {
                    continue;
                };
                if remaining[k] & bit == 0 {
                    continue;
                }
                remaining[k] &= !bit;
                out.deliveries += 1;
                if remaining[k] != 0 {
                    continue;
                }
                pending.remove(&key);
                outstanding -= 1;
                let ms = (end - ops[k].due_ns) as f64 / 1e6;
                match ops[k].class {
                    Class::Visible => {
                        out.visible_ms.push(ms);
                        out.visible_at_ns.push(end);
                    }
                    Class::Retract => {
                        out.retract_ms.push(ms);
                        out.retract_at_ns.push(end);
                    }
                    Class::Burst => {
                        burst_left -= 1;
                        burst_done = end;
                    }
                    Class::Untracked => {}
                }
            }
        }
        out.rounds += 1;
        if traced {
            let _span = trace::span(Layer::Account, u16::MAX);
            out.unacked_peak = out.unacked_peak.max(net.totals().unacked);
        }
        let now = t0.elapsed().as_nanos() as u64;
        // A round in which no node received, sent or changed anything:
        // the driver is waiting, either for the network (frames in
        // flight) or for the next operation to fall due. While frames are
        // in flight it yields its CPU to the transport's reader threads;
        // otherwise it sleeps until the next operation is due (at most
        // 1 ms).
        if !active {
            let _span = trace::span(Layer::Idle, u16::MAX);
            let until_due = ops
                .get(next)
                .map_or(u64::MAX, |o| o.due_ns.saturating_sub(now));
            if net.in_flight() > 0 {
                std::thread::yield_now();
            } else if until_due > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(until_due.min(1_000_000)));
            }
        }
        while next_sample < now.min(timed_ns) {
            // Due, injected and not yet seen by every watcher.
            out.backlog.push(outstanding);
            next_sample += 100_000_000;
        }
        if out.calib.due(now) {
            let _span = trace::span(Layer::Account, u16::MAX);
            out.calib.sample(now);
        }
        if next == ops.len() && outstanding == 0 {
            break;
        }
        if now > timed_ns + drain_ns {
            break;
        }
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out.unseen = outstanding + (ops.len() - next);
    if let (Some(due), 0) = (burst_due, burst_left) {
        out.burst_s = (burst_done - due) as f64 / 1e9;
    }
    Ok(out)
}
