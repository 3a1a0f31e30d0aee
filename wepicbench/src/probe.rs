//! Timing wrappers at the two `Transport` boundaries and around the
//! durability sink.
//!
//! A peer's transport stack in the benchmark is
//! `Probe<SessionEndpoint<Probe<TcpEndpoint>>>`: the outer probe sits where
//! `PeerNode` meets the session layer (the application side), the inner
//! one where the session layer meets TCP (the wire side). Both forward
//! every call unchanged. The outer probe also notes which watched facts
//! each drain delivered, which is how the driver detects visibility; with
//! tracing on, both open a span per call, and the outer probe re-encodes
//! and decodes each `Facts` message to time the codec.

use crate::trace::{self, Layer};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;
use wdl_core::{DurabilitySink, Message, Payload, Peer};
use wdl_datalog::{Symbol, Tuple};
use wdl_net::{codec, NetError, Transport, TransportEvent, WatermarkNote};
use wdl_store::Engine;

/// A watched fact a drain delivered: the picture id (first column) and
/// whether it was added (`true`) or retracted.
pub type Seen = (i64, bool);

/// Codec work measured at the application boundary (traced runs only).
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecStats {
    pub facts: u64,
    pub bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
}

/// Which side of the session layer a probe sits on.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Side {
    /// Between `PeerNode` and `SessionEndpoint`.
    App,
    /// Between `SessionEndpoint` and `TcpEndpoint`.
    Wire,
}

/// A forwarding `Transport` that records what crosses it.
pub struct Probe<T: Transport> {
    inner: T,
    side: Side,
    peer: u16,
    watch: Option<Symbol>,
    seen: RefCell<Vec<Seen>>,
    /// Calls to `send` (wire side: frames written to sockets).
    pub frames_out: u64,
    pub codec: CodecStats,
}

impl<T: Transport> Probe<T> {
    pub fn new(inner: T, side: Side, peer: u16, watch: Option<Symbol>) -> Probe<T> {
        Probe {
            inner,
            side,
            peer,
            watch,
            seen: RefCell::new(Vec::new()),
            frames_out: 0,
            codec: CodecStats::default(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Takes the watched facts delivered since the last call.
    pub fn take_seen(&self) -> Vec<Seen> {
        std::mem::take(&mut *self.seen.borrow_mut())
    }

    fn layer(&self) -> Layer {
        match self.side {
            Side::App => Layer::Session,
            Side::Wire => Layer::Tcp,
        }
    }

    fn note_delivered(&mut self, msgs: &[Message]) {
        let _probe = trace::span(Layer::Probe, self.peer);
        if let Some(watch) = self.watch {
            let seen = self.seen.get_mut();
            for msg in msgs {
                if let Payload::Facts {
                    additions,
                    retractions,
                    ..
                } = &msg.payload
                {
                    let ids = |facts: &[wdl_core::WFact], added: bool, seen: &mut Vec<Seen>| {
                        for f in facts.iter().filter(|f| f.rel == watch) {
                            // The picture id is the first column.
                            if let Some(id) = f.tuple.first().and_then(|v| v.as_int()) {
                                seen.push((id, added));
                            }
                        }
                    };
                    ids(additions, true, seen);
                    ids(retractions, false, seen);
                }
            }
        }
        if trace::on() {
            for msg in msgs {
                self.measure_codec(msg);
            }
        }
    }

    /// Encodes and decodes a copy of an application `Facts` message, the
    /// same codec calls the session layer makes for it.
    fn measure_codec(&mut self, msg: &Message) {
        let Payload::Facts {
            additions,
            retractions,
            ..
        } = &msg.payload
        else {
            return;
        };
        let t = Instant::now();
        let bytes = std::hint::black_box(codec::encode(msg));
        let enc = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let back = codec::decode(&bytes);
        let dec = t.elapsed().as_nanos() as u64;
        debug_assert!(back.as_ref().is_ok_and(|m| m == msg), "codec round trip");
        std::hint::black_box(back).ok();
        self.codec.facts += (additions.len() + retractions.len()) as u64;
        self.codec.bytes += bytes.len() as u64;
        self.codec.encode_ns += enc;
        self.codec.decode_ns += dec;
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn peer_name(&self) -> Symbol {
        self.inner.peer_name()
    }

    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        if self.side == Side::App && trace::on() {
            let _probe = trace::span(Layer::Probe, self.peer);
            self.measure_codec(&msg);
        }
        let _span = trace::span(self.layer(), self.peer);
        self.frames_out += 1;
        self.inner.send(msg)
    }

    fn drain(&mut self) -> Vec<Message> {
        let msgs = {
            let _span = trace::span(self.layer(), self.peer);
            self.inner.drain()
        };
        if self.side == Side::App {
            self.note_delivered(&msgs);
        }
        msgs
    }

    fn poll_events(&mut self) -> Vec<TransportEvent> {
        let _span = trace::span(self.layer(), self.peer);
        self.inner.poll_events()
    }

    fn pending_work(&self) -> usize {
        let _span = trace::span(self.layer(), self.peer);
        self.inner.pending_work()
    }

    fn watermarks(&mut self) -> Vec<WatermarkNote> {
        let _span = trace::span(self.layer(), self.peer);
        self.inner.watermarks()
    }

    fn commit_delivered(&mut self) {
        let _span = trace::span(self.layer(), self.peer);
        self.inner.commit_delivered()
    }

    fn take_retransmit_counts(&mut self) -> Vec<(Symbol, u64)> {
        let _span = trace::span(self.layer(), self.peer);
        self.inner.take_retransmit_counts()
    }
}

/// Store work seen through the timing sink (traced runs only).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    pub commits: u64,
    pub checkpoints: u64,
    /// WAL payload bytes appended plus the sizes of new checkpoint files.
    pub bytes: u64,
}

impl StoreStats {
    /// The work done since `earlier` was taken.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            commits: self.commits - earlier.commits,
            checkpoints: self.checkpoints - earlier.checkpoints,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// A `DurabilitySink` that times the real sink it wraps and classifies
/// each group commit as a WAL append or a checkpoint by whether the
/// engine's epoch moved.
pub struct TimedSink {
    inner: Box<dyn DurabilitySink>,
    engine: Arc<Mutex<Engine>>,
    peer: u16,
    stats: Arc<Mutex<StoreStats>>,
}

impl TimedSink {
    pub fn new(
        inner: Box<dyn DurabilitySink>,
        engine: Arc<Mutex<Engine>>,
        peer: u16,
        stats: Arc<Mutex<StoreStats>>,
    ) -> TimedSink {
        TimedSink {
            inner,
            engine,
            peer,
            stats,
        }
    }

    /// Bytes of the files the current manifest names.
    fn checkpoint_bytes(&self) -> u64 {
        let engine = self.engine.lock();
        let Ok(manifest) = engine.manifest() else {
            return 0;
        };
        std::iter::once(&manifest.meta_file)
            .chain(manifest.segments.iter().map(|(_, f)| f))
            .chain(std::iter::once(&manifest.wal_file))
            .filter_map(|f| std::fs::metadata(engine.dir().join(f)).ok())
            .map(|m| m.len())
            .sum()
    }
}

impl DurabilitySink for TimedSink {
    fn record_fact(&mut self, rel: Symbol, tuple: &Tuple, added: bool) {
        let _span = trace::span(Layer::StoreBuffer, self.peer);
        self.inner.record_fact(rel, tuple, added);
    }

    fn record_watermark(&mut self, remote: Symbol, dir: u8, inc: u64, seq: u64) {
        let _span = trace::span(Layer::StoreBuffer, self.peer);
        self.inner.record_watermark(remote, dir, inc, seq);
    }

    fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> wdl_core::Result<()> {
        let (epoch0, wal0) = {
            let e = self.engine.lock();
            (e.epoch(), e.wal_stats().1)
        };
        let start = trace::span(Layer::StoreCommit, self.peer);
        let res = self.inner.sync(peer, meta_dirty);
        let (epoch1, wal1) = {
            let e = self.engine.lock();
            (e.epoch(), e.wal_stats().1)
        };
        let checkpoint = epoch1 != epoch0;
        if let (Some(g), true) = (&start, checkpoint) {
            g.set_layer(Layer::StoreCheckpoint);
        }
        drop(start);
        let _probe = trace::span(Layer::Probe, self.peer);
        let bytes = if checkpoint {
            self.checkpoint_bytes()
        } else {
            wal1.saturating_sub(wal0)
        };
        let mut s = self.stats.lock();
        if checkpoint {
            s.checkpoints += 1;
        } else if wal1 != wal0 {
            s.commits += 1;
        }
        s.bytes += bytes;
        res
    }
}
