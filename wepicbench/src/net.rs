//! The deployed peer stack: `PeerNode` over the session layer over TCP
//! loopback, with a `wdl_store` engine attached to every peer.

use crate::calib;
use crate::probe::{CodecStats, Probe, Side, StoreStats, TimedSink};
use crate::trace::{self, Layer};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdl_core::Peer;
use wdl_datalog::Symbol;
use wdl_net::node::{PeerNode, StepReport};
use wdl_net::session::{SessionConfig, SessionEndpoint};
use wdl_net::tcp::TcpEndpoint;
use wdl_net::Transport;
use wdl_store::{DurabilityConfig, DurableStore};

/// A peer node as deployed, with a probe on each side of the session
/// layer.
pub type Node = PeerNode<Probe<SessionEndpoint<Probe<TcpEndpoint>>>>;

/// Wall time of each set-up phase, in seconds, and the host's kernel time
/// around the set-up (see [`calib`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub bind: f64,
    pub store_open: f64,
    pub preload: f64,
    pub quiesce: f64,
    pub host_ms: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.bind + self.store_open + self.preload + self.quiesce
    }

    /// [`Self::total`] scaled to the reference host.
    pub fn scaled_total(&self) -> f64 {
        self.total() * calib::REFERENCE_MS / self.host_ms
    }
}

/// Whether an untraced run sets up once more: at least 5 set-ups, and up
/// to 41 while they have taken less than 3 s in all, so a cheap set-up's
/// median rests on many samples. `setup_s` is the median of their
/// [`SetupTimes::scaled_total`].
pub fn more_setups(done: &[SetupTimes]) -> bool {
    let spent: f64 = done.iter().map(SetupTimes::total).sum();
    done.len() < 5 || (done.len() < 41 && spent < 3.0)
}

/// The benchmark's flush policy. Every stage that changed a base fact or
/// a session watermark appends one batch to the WAL and fsyncs it (the
/// engine's group commit). A checkpoint is written on every structural
/// change (rules, delegations) and when the WAL reaches the thresholds
/// below, which no run reaches: a threshold checkpoint copies relations
/// that grow during the run, so its cost would depend on run length.
pub fn flush_policy(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .checkpoint_records(1 << 22)
        .checkpoint_bytes(1 << 30)
}

/// Totals over every peer's transport stack.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTotals {
    pub retransmits: u64,
    pub dup_drops: u64,
    pub unacked: u64,
    pub app_sends: u64,
    pub wire_frames: u64,
    pub overflow: u64,
    pub codec: CodecStats,
}

/// A running network of peer nodes.
pub struct Net {
    pub nodes: Vec<Node>,
    pub names: Vec<String>,
    pub store_stats: Arc<Mutex<StoreStats>>,
    dir: PathBuf,
    _store: DurableStore,
}

impl Net {
    /// Binds an endpoint per peer, opens and attaches a store per peer
    /// (which takes the initial checkpoint) and wires the nodes. With
    /// `traced`, each store sink is wrapped in a [`TimedSink`].
    pub fn build(
        peers: Vec<(Peer, Option<&str>)>,
        dir: &Path,
        seed: u64,
        traced: bool,
        times: &mut SetupTimes,
    ) -> Result<Net, String> {
        let t = Instant::now();
        let names: Vec<String> = peers.iter().map(|(p, _)| p.name().to_string()).collect();
        let endpoints = names
            .iter()
            .map(|n| TcpEndpoint::bind(n.as_str(), "127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bind: {e}"))?;
        for ep in &endpoints {
            for (name, other) in names.iter().zip(&endpoints) {
                ep.register(name.as_str(), other.local_addr());
            }
        }
        times.bind = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let _ = std::fs::remove_dir_all(dir);
        let mut store = DurableStore::new(flush_policy(dir));
        let store_stats = Arc::new(Mutex::new(StoreStats::default()));
        let mut nodes = Vec::with_capacity(peers.len());
        for (i, ((mut peer, watch), ep)) in peers.into_iter().zip(endpoints).enumerate() {
            store
                .attach(&mut peer)
                .map_err(|e| format!("attach store: {e}"))?;
            if traced {
                let engine = store
                    .engine(peer.name())
                    .map_err(|e| format!("open store: {e}"))?;
                let sink = peer.clear_durability().expect("attach installed a sink");
                let timed = TimedSink::new(sink, engine, i as u16, Arc::clone(&store_stats));
                peer.set_durability(Box::new(timed));
            }
            let wire = Probe::new(ep, Side::Wire, i as u16, None);
            let cfg = SessionConfig {
                seed,
                ..SessionConfig::default()
            };
            let session = SessionEndpoint::new(wire, 0, cfg);
            let app = Probe::new(session, Side::App, i as u16, watch.map(Symbol::intern));
            nodes.push(PeerNode::new(peer, app));
        }
        times.store_open = t.elapsed().as_secs_f64();
        Ok(Net {
            nodes,
            names,
            store_stats,
            dir: dir.to_path_buf(),
            _store: store,
        })
    }

    pub fn peer_mut(&mut self, i: usize) -> &mut Peer {
        self.nodes[i].peer_mut()
    }

    /// One `PeerNode::step` of node `i`, as a span keyed by `(peer,
    /// stage)`.
    pub fn step(&mut self, i: usize) -> Result<StepReport, String> {
        let span = trace::span(Layer::Step, i as u16);
        let r = self.nodes[i]
            .step()
            .map_err(|e| format!("{}: step failed: {e}", self.names[i]))?;
        if let Some(g) = &span {
            g.set_stage(r.stats.stage);
        }
        Ok(r)
    }

    /// Steps every node round-robin until 25 consecutive rounds in which
    /// no node received, sent, deferred or changed anything and no
    /// session work is in flight.
    pub fn quiesce(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        let mut streak = 0;
        while Instant::now() < deadline {
            let mut active = false;
            for i in 0..self.nodes.len() {
                let r = self.step(i)?;
                active |= r.changed || r.received > 0 || r.sent > 0 || r.deferred > 0;
            }
            active |= self.in_flight() > 0;
            streak = if active { 0 } else { streak + 1 };
            if streak >= 25 {
                return Ok(());
            }
        }
        Err(format!("network did not quiesce within {limit:?}"))
    }

    /// Session work still in flight across the network (unacked frames,
    /// unsent acks, out-of-order buffers).
    pub fn in_flight(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.transport().pending_work())
            .sum()
    }

    pub fn totals(&self) -> NetTotals {
        let mut t = NetTotals::default();
        for node in &self.nodes {
            let app = node.transport();
            let session = app.inner();
            let s = session.stats();
            let wire = session.inner();
            t.retransmits += s.retransmits;
            t.dup_drops += s.dup_drops;
            t.unacked += s.unacked as u64;
            t.app_sends += app.frames_out;
            t.wire_frames += wire.frames_out;
            t.overflow += wire.inner().overflow_count();
            t.codec.facts += app.codec.facts;
            t.codec.bytes += app.codec.bytes;
            t.codec.encode_ns += app.codec.encode_ns;
            t.codec.decode_ns += app.codec.decode_ns;
        }
        t
    }
}

impl Drop for Net {
    fn drop(&mut self) {
        // Dropping the endpoints stops their accept loops; the reader
        // threads end when their connections close.
        self.nodes.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
