//! Seeded schedules for the three workloads that run over TCP.
//!
//! A plan is everything a run feeds the peers: how to build them, what
//! set-up preloads, the timed operations with their due times, and the
//! final state of every watched relation implied by those operations (the
//! reference the run is checked against).

use crate::openloop::{Class, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use wdl_core::acl::UntrustedPolicy;
use wdl_core::Peer;
use wdl_datalog::{Symbol, Tuple, Value};
use wepic::{rules, schema, PictureCorpus};

/// Picture payload size, in bytes.
pub const PAYLOAD: usize = 64;

/// A peer to build and the relation (if any) whose drained facts the
/// driver watches at it.
pub type PeerSpec = (Peer, Option<&'static str>);

pub struct Plan {
    pub build: Box<dyn Fn() -> Vec<PeerSpec>>,
    /// Inserts applied during set-up, before the network quiesces.
    pub preload: Vec<(usize, Symbol, Vec<Value>)>,
    pub ops: Vec<Op>,
    /// `(node, relation, final tuples)` the run must end with.
    pub expected: Vec<(usize, Symbol, BTreeSet<Tuple>)>,
    pub timed_ns: u64,
    pub drain_ns: u64,
    /// Offered rate of tracked operations, per second (for the backlog
    /// test's slack).
    pub rate: f64,
}

/// Sizes of the TCP workloads. [`Sizes::standard`] is what the benchmark
/// runs; the tests use smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub upload_rate: f64,
    pub keep_newest: usize,
    pub burst: usize,
    pub view_preload: usize,
    pub view_rate: f64,
    pub churn_preload: usize,
    pub churn_rate: f64,
    pub churn_cycle_s: f64,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes {
            upload_rate: 1000.0,
            keep_newest: 32,
            burst: 3000,
            view_preload: 2500,
            view_rate: 35.0,
            churn_preload: 250,
            churn_rate: 220.0,
            churn_cycle_s: 2.0,
        }
    }
}

/// The schedule's generator (due times, choices), seeded from the
/// workload seed apart from the picture corpus's own stream.
pub fn schedule_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5745_5049_4342_454e)
}

/// `n` arrival times in `[0, seconds)`, in ns, ascending: a Poisson
/// process conditioned on `n` arrivals, so every seed offers exactly `n`
/// operations.
pub fn arrivals(rng: &mut StdRng, n: usize, seconds: f64) -> Vec<u64> {
    let span = secs(seconds);
    let mut t: Vec<u64> = (0..n).map(|_| rng.gen_range(0..span)).collect();
    t.sort_unstable();
    t
}

fn open_attendee(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    schema::declare_attendee(&mut p).expect("attendee schema");
    p
}

fn tuple(values: &[Value]) -> Tuple {
    values.to_vec().into()
}

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn secs(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// `upload_stream`: the §4 publish chain. `sigmod` (node 0) and six
/// attendees each holding `pictures@sigmod :- pictures@me`; uploads
/// arrive open-loop at a fixed aggregate rate; each attendee keeps its
/// newest pictures; the run ends with one burst of simultaneous uploads.
pub fn upload_stream(seed: u64, seconds: f64, z: Sizes) -> Plan {
    const ATTENDEES: usize = 6;
    let names: Vec<String> = (0..ATTENDEES).map(|i| format!("attendee{i}")).collect();
    let mut rng = schedule_rng(seed);
    let mut corpus = PictureCorpus::new(seed);
    let pictures = sym("pictures");
    let sigmod_bit = 1u32;

    let mut registry: BTreeSet<Tuple> = BTreeSet::new();
    let mut held: Vec<Vec<Vec<Value>>> = vec![Vec::new(); ATTENDEES];
    let mut preload = Vec::new();
    for (a, name) in names.iter().enumerate() {
        for p in corpus.pictures(name, z.keep_newest, PAYLOAD) {
            let v = p.to_values();
            registry.insert(tuple(&v));
            preload.push((a + 1, pictures, v.clone()));
            held[a].push(v);
        }
    }

    let mut ops = Vec::new();
    let n = (z.upload_rate * seconds) as usize;
    for due in arrivals(&mut rng, n, seconds) {
        let a = rng.gen_range(0..ATTENDEES);
        let p = corpus.pictures(&names[a], 1, PAYLOAD).remove(0);
        let v = p.to_values();
        registry.insert(tuple(&v));
        ops.push(Op {
            due_ns: due,
            node: a + 1,
            insert: true,
            rel: pictures,
            tuple: v.clone(),
            key: p.id,
            watchers: sigmod_bit,
            class: Class::Visible,
        });
        held[a].push(v);
        if held[a].len() > z.keep_newest {
            // Trimming is local: the registry keeps what was published.
            let old = held[a].remove(0);
            ops.push(Op {
                due_ns: due,
                node: a + 1,
                insert: false,
                rel: pictures,
                tuple: old,
                key: 0,
                watchers: 0,
                class: Class::Untracked,
            });
        }
    }
    let burst_due = secs(seconds);
    for k in 0..z.burst {
        let a = k % ATTENDEES;
        let p = corpus.pictures(&names[a], 1, PAYLOAD).remove(0);
        let v = p.to_values();
        registry.insert(tuple(&v));
        held[a].push(v.clone());
        ops.push(Op {
            due_ns: burst_due,
            node: a + 1,
            insert: true,
            rel: pictures,
            tuple: v,
            key: p.id,
            watchers: sigmod_bit,
            class: Class::Burst,
        });
    }

    let mut expected = vec![(0, pictures, registry)];
    for (a, pics) in held.iter().enumerate() {
        expected.push((a + 1, pictures, pics.iter().map(|v| tuple(v)).collect()));
    }
    Plan {
        build: Box::new(move || {
            let mut s = Peer::new("sigmod");
            s.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
            schema::declare_sigmod(&mut s).expect("sigmod schema");
            let mut peers: Vec<PeerSpec> = vec![(s, Some("pictures"))];
            for name in &names {
                let mut p = open_attendee(name);
                p.add_rule(rules::publish_to_sigmod(name, "sigmod").expect("publish rule"))
                    .expect("install publish rule");
                peers.push((p, None));
            }
            peers
        }),
        preload,
        ops,
        expected,
        timed_ns: burst_due,
        drain_ns: secs(30.0),
        rate: z.upload_rate,
    }
}

const VIEWERS: usize = 2;
const FAN: usize = 4;

fn fanout_build() -> Box<dyn Fn() -> Vec<PeerSpec>> {
    Box::new(|| {
        let mut peers: Vec<PeerSpec> = Vec::new();
        for v in 0..VIEWERS {
            let name = format!("viewer{v}");
            let mut p = open_attendee(&name);
            p.add_rule(rules::attendee_pictures(&name).expect("view rule"))
                .expect("install view rule");
            peers.push((p, Some("attendeePictures")));
        }
        for a in 0..FAN {
            peers.push((open_attendee(&format!("attendee{a}")), None));
        }
        peers
    })
}

/// Preloads `per` pictures at each fan-out attendee and has every viewer
/// select every attendee. Returns the pictures held per attendee, keyed
/// by id.
fn fanout_preload(
    corpus: &mut PictureCorpus,
    per: usize,
    preload: &mut Vec<(usize, Symbol, Vec<Value>)>,
) -> Vec<BTreeMap<i64, Vec<Value>>> {
    let mut held = vec![BTreeMap::new(); FAN];
    for (a, held) in held.iter_mut().enumerate() {
        for p in corpus.pictures(&format!("attendee{a}"), per, PAYLOAD) {
            preload.push((VIEWERS + a, sym("pictures"), p.to_values()));
            held.insert(p.id, p.to_values());
        }
    }
    for v in 0..VIEWERS {
        for a in 0..FAN {
            preload.push((
                v,
                sym("selectedAttendee"),
                vec![Value::from(format!("attendee{a}").as_str())],
            ));
        }
    }
    held
}

fn fanout_expected(held: &[BTreeMap<i64, Vec<Value>>]) -> Vec<(usize, Symbol, BTreeSet<Tuple>)> {
    let all: BTreeSet<Tuple> = held
        .iter()
        .flat_map(|h| h.values())
        .map(|v| tuple(v))
        .collect();
    (0..VIEWERS)
        .map(|v| (v, sym("attendeePictures"), all.clone()))
        .collect()
}

const ALL_VIEWERS: u32 = (1 << VIEWERS) - 1;

/// `view_settled`: the §3 `attendeePictures` fan-out. Two viewers select
/// the same four preloaded attendees; uploads then trickle in open-loop.
pub fn view_settled(seed: u64, seconds: f64, z: Sizes) -> Plan {
    let mut rng = schedule_rng(seed);
    let mut corpus = PictureCorpus::new(seed);
    let mut preload = Vec::new();
    let mut held = fanout_preload(&mut corpus, z.view_preload, &mut preload);
    let n = (z.view_rate * seconds) as usize;
    let mut ops = Vec::with_capacity(n);
    for due in arrivals(&mut rng, n, seconds) {
        let a = rng.gen_range(0..FAN);
        let p = corpus
            .pictures(&format!("attendee{a}"), 1, PAYLOAD)
            .remove(0);
        held[a].insert(p.id, p.to_values());
        ops.push(Op {
            due_ns: due,
            node: VIEWERS + a,
            insert: true,
            rel: sym("pictures"),
            tuple: p.to_values(),
            key: p.id,
            watchers: ALL_VIEWERS,
            class: Class::Visible,
        });
    }
    Plan {
        build: fanout_build(),
        preload,
        expected: fanout_expected(&held),
        ops,
        timed_ns: secs(seconds),
        drain_ns: secs(30.0),
        rate: z.view_rate,
    }
}

/// `churn`: the fan-out with non-monotone traffic. Uploads and deletes of
/// existing pictures arrive open-loop; every cycle one attendee is
/// deselected by `viewer1` and reselected half a second later. No upload
/// or delete targets that attendee from shortly before the deselect until
/// well after the reselect, so every tracked operation has a settled
/// delegation at both viewers.
pub fn churn(seed: u64, seconds: f64, z: Sizes) -> Plan {
    let mut rng = schedule_rng(seed);
    let mut corpus = PictureCorpus::new(seed);
    let mut preload = Vec::new();
    let mut held = fanout_preload(&mut corpus, z.churn_preload, &mut preload);
    // Due time of each held picture's upload (preloaded: before time 0).
    let mut born: BTreeMap<i64, u64> = BTreeMap::new();
    let cycle = secs(z.churn_cycle_s);
    let (blackout_before, reselect_after, blackout_after) = (secs(0.25), secs(0.5), secs(1.25));
    let mut ops = Vec::new();
    let mut t = cycle / 2;
    let mut k = 0;
    while t < secs(seconds) {
        let a = k % FAN;
        let sel = vec![Value::from(format!("attendee{a}").as_str())];
        for (due, insert) in [(t, false), (t + reselect_after, true)] {
            ops.push(Op {
                due_ns: due,
                node: 1,
                insert,
                rel: sym("selectedAttendee"),
                tuple: sel.clone(),
                key: 0,
                watchers: 0,
                class: Class::Untracked,
            });
        }
        t += cycle;
        k += 1;
    }
    // The attendee in its deselect window at time `due`, if any.
    let blacked_out = |due: u64| -> Option<usize> {
        let first = cycle / 2;
        let i = (due + blackout_before).checked_sub(first)? / cycle;
        let start = first + i * cycle;
        (due + blackout_before >= start && due < start + blackout_after).then_some(i as usize % FAN)
    };
    let n = (z.churn_rate * seconds) as usize;
    let min_age = secs(1.0);
    for due in arrivals(&mut rng, n, seconds) {
        let out = blacked_out(due);
        let mut a = rng.gen_range(0..FAN);
        if Some(a) == out {
            a = (a + 1 + rng.gen_range(0..FAN - 1)) % FAN;
        }
        let upload = rng.gen_range(0..2) == 0;
        let victim = if upload {
            None
        } else {
            // A picture uploaded at least a second ago, so its upload has
            // been delivered before the delete is issued.
            let old: Vec<i64> = held[a]
                .keys()
                .copied()
                .filter(|id| born.get(id).is_none_or(|&b| b + min_age <= due))
                .collect();
            (!old.is_empty()).then(|| old[rng.gen_range(0..old.len())])
        };
        let op = match victim {
            Some(id) => {
                let v = held[a].remove(&id).expect("victim is held");
                Op {
                    due_ns: due,
                    node: VIEWERS + a,
                    insert: false,
                    rel: sym("pictures"),
                    tuple: v,
                    key: id,
                    watchers: ALL_VIEWERS,
                    class: Class::Retract,
                }
            }
            None => {
                let p = corpus
                    .pictures(&format!("attendee{a}"), 1, PAYLOAD)
                    .remove(0);
                held[a].insert(p.id, p.to_values());
                born.insert(p.id, due);
                Op {
                    due_ns: due,
                    node: VIEWERS + a,
                    insert: true,
                    rel: sym("pictures"),
                    tuple: p.to_values(),
                    key: p.id,
                    watchers: ALL_VIEWERS,
                    class: Class::Visible,
                }
            }
        };
        ops.push(op);
    }
    ops.sort_by_key(|o| o.due_ns);
    Plan {
        build: fanout_build(),
        preload,
        expected: fanout_expected(&held),
        ops,
        timed_ns: secs(seconds),
        drain_ns: secs(30.0),
        rate: z.churn_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let z = Sizes::standard();
        for f in [upload_stream, view_settled, churn] {
            let (a, b, c) = (f(3, 4.0, z), f(3, 4.0, z), f(4, 4.0, z));
            let key = |p: &Plan| {
                p.ops
                    .iter()
                    .map(|o| (o.due_ns, o.node, o.insert, o.key))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&a), key(&b));
            assert_ne!(key(&a), key(&c));
            assert_eq!(a.expected, b.expected);
        }
    }

    #[test]
    fn churn_never_touches_an_attendee_in_its_window() {
        let p = churn(9, 10.0, Sizes::standard());
        let cycles: Vec<(u64, usize)> = p
            .ops
            .iter()
            .filter(|o| o.node == 1 && !o.insert && o.watchers == 0)
            .map(|o| (o.due_ns, o.tuple[0].as_str().unwrap()[8..].parse().unwrap()))
            .collect();
        assert!(cycles.len() >= 4);
        for o in p.ops.iter().filter(|o| o.watchers != 0) {
            for &(t, a) in &cycles {
                let inside = o.due_ns + secs(0.25) >= t && o.due_ns < t + secs(1.25);
                assert!(
                    !(inside && o.node == VIEWERS + a),
                    "op on attendee{a} at {}",
                    o.due_ns
                );
            }
        }
        let deletes = p.ops.iter().filter(|o| o.class == Class::Retract).count();
        assert!(
            deletes * 3 > p.ops.len() / 2,
            "about half the tracked ops delete"
        );
    }
}
