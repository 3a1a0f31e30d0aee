//! `demo_inproc`: `wepic::Conference` on the in-process `LocalRuntime`,
//! driven the way the REPL and the demo drive it: one user action, then
//! step the conference until a quiet round (`Conference::settle`'s loop),
//! in a closed loop.

use crate::calib::{self, Calibration};
use crate::net::{more_setups, SetupTimes};
use crate::plans::{self, PAYLOAD};
use crate::stats;
use crate::trace::{self, Layer};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use wdl_datalog::{Tuple, Value};
use wepic::{ops, Conference, ConferenceConfig, Picture, PictureCorpus};

/// Attendees in the conference.
pub const ATTENDEES: usize = 16;
/// Rounds one settle may take before the action counts as failed.
const MAX_ROUNDS: usize = 256;

/// Sizes of the demo workload.
#[derive(Clone, Copy, Debug)]
pub struct DemoSizes {
    /// Pictures each attendee uploads during set-up.
    pub preload: usize,
    /// Every n-th preloaded picture is authorized for Facebook.
    pub authorize_every: usize,
}

impl DemoSizes {
    pub fn standard() -> DemoSizes {
        DemoSizes {
            preload: 50,
            authorize_every: 2,
        }
    }
}

/// The user actions of the closed loop, with their weights (out of 160).
/// Uploads and authorizations grow state that rules re-derive every stage
/// (the registry, the group feed), so they are rare enough that a 30 s
/// run grows it by less than a tenth. Rating and commenting settle in one
/// quiet round; selecting, uploading and authorizing take several. About
/// nine actions in ten settle in one round, so the median is the cost of
/// a quiet round rather than a point in the gap between the two groups.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Action {
    Upload,
    Authorize,
    Rate,
    Comment,
    Select,
}

const MIX: [(Action, usize); 5] = [
    (Action::Upload, 2),
    (Action::Authorize, 1),
    (Action::Rate, 70),
    (Action::Comment, 75),
    (Action::Select, 12),
];

/// What the workload's user actions imply the watched relations hold.
struct Model {
    /// Pictures per owner, by id.
    pictures: Vec<BTreeMap<i64, Picture>>,
    authorized: BTreeSet<i64>,
    /// Each attendee's selected attendee.
    selected: Vec<Option<usize>>,
}

pub struct DemoOut {
    /// Each set-up's phases: building the conference and preloading count
    /// as `preload`, the first settle as `quiesce`.
    pub setup: Vec<SetupTimes>,
    /// Spans of the closed loop (traced runs only).
    pub spans: Vec<trace::Span>,
    pub settle_ms: Vec<f64>,
    /// When each settle ended, from the start of the loop.
    pub settle_at_ns: Vec<u64>,
    /// Kernel times taken through the loop.
    pub calib: Calibration,
    pub round_us: Vec<f64>,
    pub messages: u64,
    pub wrapper_activity: u64,
    pub attempted: usize,
    pub failed: usize,
    pub wall_ns: u64,
    pub mismatches: Vec<String>,
}

fn name(a: usize) -> String {
    format!("attendee{a:03}")
}

/// Steps until a round with no wrapper activity, no message and no
/// change — `Conference::settle`'s loop, with each round timed.
fn settle(conf: &mut Conference, out: &mut DemoOut) -> Result<bool, String> {
    for _ in 0..MAX_ROUNDS {
        let t = Instant::now();
        let (activity, messages, changed) = {
            let _span = trace::span(Layer::Conference, 0);
            conf.step().map_err(|e| format!("conference step: {e}"))?
        };
        out.round_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        out.messages += messages as u64;
        out.wrapper_activity += activity as u64;
        if activity == 0 && messages == 0 && !changed {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The id of a random picture of a random attendee.
fn some_picture(model: &Model, rng: &mut StdRng) -> i64 {
    let owned = &model.pictures[rng.gen_range(0..ATTENDEES)];
    owned
        .keys()
        .nth(rng.gen_range(0..owned.len().max(1)))
        .copied()
        .unwrap_or(0)
}

fn apply(
    conf: &mut Conference,
    model: &mut Model,
    corpus: &mut PictureCorpus,
    rng: &mut StdRng,
    action: Action,
) -> Result<bool, String> {
    let a = rng.gen_range(0..ATTENDEES);
    let me = name(a);
    let peer = conf.peer_mut(me.as_str()).map_err(|e| e.to_string())?;
    let res = match action {
        Action::Upload => {
            let p = corpus.pictures(&me, 1, PAYLOAD).remove(0);
            let r = ops::upload_picture(peer, &p);
            model.pictures[a].insert(p.id, p);
            r
        }
        Action::Authorize => {
            let pending: Vec<i64> = model.pictures[a]
                .keys()
                .copied()
                .filter(|id| !model.authorized.contains(id))
                .collect();
            if pending.is_empty() {
                return Ok(true);
            }
            let id = pending[rng.gen_range(0..pending.len())];
            model.authorized.insert(id);
            ops::authorize(peer, "Facebook", id, &me)
        }
        Action::Rate => {
            // Re-rating with the same score is a no-op, not a failure.
            let id = some_picture(model, rng);
            ops::rate(peer, id, 1 + rng.gen_range(0..5) as i64).map(|_| true)
        }
        Action::Comment => {
            let id = some_picture(model, rng);
            let text = format!("comment {}", rng.gen::<u64>());
            ops::comment(peer, id, &me, &text)
        }
        Action::Select => {
            let b = (a + 1 + rng.gen_range(0..ATTENDEES - 1)) % ATTENDEES;
            if let Some(old) = model.selected[a] {
                ops::deselect_attendee(peer, &name(old)).map_err(|e| e.to_string())?;
            }
            model.selected[a] = Some(b);
            ops::select_attendee(peer, &name(b))
        }
    };
    res.map_err(|e| format!("{action:?} at {me}: {e}"))
}

/// Builds the conference and preloads the registry; returns it with the
/// model of what it holds.
fn setup(
    seed: u64,
    z: DemoSizes,
    out: &mut DemoOut,
) -> Result<(Conference, Model, PictureCorpus), String> {
    let host_before = calib::host_ms();
    let t = Instant::now();
    let mut conf = Conference::new(&ConferenceConfig::experiment(ATTENDEES))
        .map_err(|e| format!("conference: {e}"))?;
    let mut corpus = PictureCorpus::new(seed);
    let mut model = Model {
        pictures: vec![BTreeMap::new(); ATTENDEES],
        authorized: BTreeSet::new(),
        selected: vec![None; ATTENDEES],
    };
    for a in 0..ATTENDEES {
        let me = name(a);
        let peer = conf.peer_mut(me.as_str()).map_err(|e| e.to_string())?;
        for (k, p) in corpus
            .pictures(&me, z.preload, PAYLOAD)
            .into_iter()
            .enumerate()
        {
            ops::upload_picture(peer, &p).map_err(|e| e.to_string())?;
            if k % z.authorize_every == 0 {
                ops::authorize(peer, "Facebook", p.id, &me).map_err(|e| e.to_string())?;
                model.authorized.insert(p.id);
            }
            model.pictures[a].insert(p.id, p);
        }
        let b = (a + 1) % ATTENDEES;
        ops::select_attendee(peer, &name(b)).map_err(|e| e.to_string())?;
        model.selected[a] = Some(b);
    }
    let preload = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if !settle(&mut conf, out)? {
        return Err("set-up did not settle".into());
    }
    let quiesce = t.elapsed().as_secs_f64();
    out.setup.push(SetupTimes {
        preload,
        quiesce,
        host_ms: (host_before + calib::host_ms()) / 2.0,
        ..SetupTimes::default()
    });
    Ok((conf, model, corpus))
}

fn pic_tuple(p: &Picture) -> Tuple {
    p.to_values().into()
}

/// Compares the watched relations with the model: the sigmod registry,
/// each attendee's `attendeePictures`, and the Facebook group feed.
fn check(conf: &Conference, model: &Model) -> Vec<String> {
    let mut bad = Vec::new();
    let mut compare = |what: String, got: BTreeSet<Tuple>, want: BTreeSet<Tuple>| {
        if got != want {
            bad.push(format!(
                "{what}: {} tuples, expected {} ({} missing, {} unexpected)",
                got.len(),
                want.len(),
                want.difference(&got).count(),
                got.difference(&want).count()
            ));
        }
    };
    let all: BTreeSet<Tuple> = model
        .pictures
        .iter()
        .flat_map(|m| m.values())
        .map(pic_tuple)
        .collect();
    let registry = conf
        .peer(conf.sigmod_name())
        .map(|p| p.relation_facts("pictures").into_iter().collect())
        .unwrap_or_default();
    compare("pictures@sigmod".into(), registry, all.clone());
    for a in 0..ATTENDEES {
        let got = conf
            .peer(name(a).as_str())
            .map(|p| p.relation_facts("attendeePictures").into_iter().collect())
            .unwrap_or_default();
        let want = model.selected[a]
            .map(|b| model.pictures[b].values().map(pic_tuple).collect())
            .unwrap_or_default();
        compare(format!("attendeePictures@{}", name(a)), got, want);
    }
    let feed: BTreeSet<Tuple> = conf
        .fb
        .group_feed("Sigmod")
        .into_iter()
        .map(|p| {
            vec![
                Value::from(p.id),
                Value::from(p.name),
                Value::from(p.owner),
                Value::from(p.data),
            ]
            .into()
        })
        .collect();
    let want: BTreeSet<Tuple> = all
        .iter()
        .filter(|t| {
            t[0].as_int()
                .is_some_and(|id| model.authorized.contains(&id))
        })
        .cloned()
        .collect();
    compare("Facebook group feed".into(), feed, want);
    bad
}

/// Sets up once, or with `repeat_setups` as often as [`more_setups`]
/// asks (keeping the last), then the closed loop for
/// `seconds`, timing the calibration kernel after each action, then
/// the check. With `traced`, the loop's spans are
/// recorded. `corrupt` removes one picture from the model before the
/// check (the check's self-test).
pub fn run(
    seed: u64,
    seconds: f64,
    z: DemoSizes,
    repeat_setups: bool,
    traced: bool,
    corrupt: bool,
) -> Result<DemoOut, String> {
    let mut out = DemoOut {
        setup: Vec::new(),
        spans: Vec::new(),
        settle_ms: Vec::new(),
        settle_at_ns: Vec::new(),
        // The kernel runs after every action, so each settle is scaled by
        // the kernel times just before and just after it.
        calib: Calibration::new(0, 2_000_000),
        round_us: Vec::new(),
        messages: 0,
        wrapper_activity: 0,
        attempted: 0,
        failed: 0,
        wall_ns: 0,
        mismatches: Vec::new(),
    };
    let mut state = None;
    while state.is_none() || (repeat_setups && more_setups(&out.setup)) {
        // Drop the previous conference before building the next.
        drop(state.take());
        state = Some(setup(seed, z, &mut out)?);
    }
    let (mut conf, mut model, mut corpus) = state.expect("at least one set-up");
    out.round_us.clear();
    out.messages = 0;
    out.wrapper_activity = 0;

    let mut rng = plans::schedule_rng(seed ^ 0xDE30);
    let total: usize = MIX.iter().map(|&(_, w)| w).sum();
    if traced {
        trace::start();
    }
    let t0 = Instant::now();
    // Run for `seconds`, longer if needed (up to three times as long) for
    // the p99 to rest on ten samples beyond it.
    let limit = (seconds * 1e9) as u128;
    loop {
        let elapsed = t0.elapsed().as_nanos();
        let enough = out.settle_ms.len() >= stats::MIN_SAMPLES;
        if elapsed >= 3 * limit || (elapsed >= limit && enough) {
            break;
        }
        let mut roll = rng.gen_range(0..total);
        let action = MIX
            .iter()
            .find(|&&(_, w)| {
                let hit = roll < w;
                roll = roll.saturating_sub(w);
                hit
            })
            .map(|&(a, _)| a)
            .expect("weights cover the roll");
        out.attempted += 1;
        let start = Instant::now();
        let applied = {
            let _span = trace::span(Layer::Inject, 0);
            apply(&mut conf, &mut model, &mut corpus, &mut rng, action)
        };
        match applied {
            Ok(true) if settle(&mut conf, &mut out)? => {
                out.settle_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
                out.settle_at_ns.push(t0.elapsed().as_nanos() as u64);
            }
            _ => out.failed += 1,
        }
        let _span = trace::span(Layer::Account, 0);
        out.calib.sample(t0.elapsed().as_nanos() as u64);
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    if traced {
        out.spans = trace::stop();
    }
    if corrupt {
        if let Some(m) = model.pictures.iter_mut().find(|m| !m.is_empty()) {
            m.pop_first();
        }
    }
    out.mismatches = check(&conf, &model);
    Ok(out)
}
