//! Span recorder for the traced run.
//!
//! The driver, every peer and every layer boundary run on one thread, so
//! the recorder is thread-local: a probe opens a span when a call enters a
//! layer and closes it when the call returns. The parent of a span is the
//! span open when it began, which nests transport and durability calls
//! inside the `PeerNode::step` (or `Conference::step`) that made them.
//! Spans stay in memory until the run ends; a layer's self time is its
//! spans' durations minus the durations of their direct children.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span belongs to.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Layer {
    /// One `PeerNode::step`; its self time is the stage.
    Step,
    /// A call into `SessionEndpoint` (the application-side `Transport`).
    Session,
    /// A call into `TcpEndpoint` (the wire-side `Transport`).
    Tcp,
    /// `DurabilitySink::record_fact` / `record_watermark` (buffering).
    StoreBuffer,
    /// A `DurabilitySink::sync` that appended to the WAL (or had nothing
    /// to write).
    StoreCommit,
    /// A `DurabilitySink::sync` that wrote a checkpoint.
    StoreCheckpoint,
    /// One `Conference::step` (wrapper sync plus `LocalRuntime::tick`).
    Conference,
    /// Benchmark work inside a step: visibility extraction, codec
    /// re-measurement, checkpoint file sizing.
    Probe,
    /// The driver injecting due operations into peers.
    Inject,
    /// The driver matching drained facts to operations after a step, or
    /// timing the calibration kernel.
    Account,
    /// The driver sleeping until the next operation is due.
    Idle,
}

impl Layer {
    /// All layers, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Step,
        Layer::Session,
        Layer::Tcp,
        Layer::StoreBuffer,
        Layer::StoreCommit,
        Layer::StoreCheckpoint,
        Layer::Conference,
        Layer::Probe,
        Layer::Inject,
        Layer::Account,
        Layer::Idle,
    ];

    /// The name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "node.step",
            Layer::Session => "session",
            Layer::Tcp => "tcp",
            Layer::StoreBuffer => "store.buffer",
            Layer::StoreCommit => "store.commit",
            Layer::StoreCheckpoint => "store.checkpoint",
            Layer::Conference => "conference.step",
            Layer::Probe => "probe",
            Layer::Inject => "driver.inject",
            Layer::Account => "driver.account",
            Layer::Idle => "driver.idle",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }
}

/// One recorded span. `stage` is set on step spans once the stage number
/// is known; children carry the key through `parent`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub peer: u16,
    pub stage: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts recording on this thread, dropping any earlier spans.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.origin = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
    ON.with(|on| on.set(true));
}

/// Stops recording and returns the spans.
pub fn stop() -> Vec<Span> {
    ON.with(|on| on.set(false));
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Whether spans are being recorded.
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// An open span; closes when dropped.
pub struct Guard(u32);

impl Guard {
    /// Sets the `(peer, stage)` key on this span.
    pub fn set_stage(&self, stage: u64) {
        REC.with(|r| r.borrow_mut().spans[self.0 as usize].stage = stage);
    }

    /// Reclassifies this span once the call shows what kind it was.
    pub fn set_layer(&self, layer: Layer) {
        REC.with(|r| r.borrow_mut().spans[self.0 as usize].layer = layer);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.origin.elapsed().as_nanos() as u64;
            r.spans[self.0 as usize].end_ns = now;
            let top = r.open.pop();
            debug_assert_eq!(top, Some(self.0), "spans close in nesting order");
        });
    }
}

/// Opens a span if recording is on.
pub fn span(layer: Layer, peer: u16) -> Option<Guard> {
    if !on() {
        return None;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let now = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            layer,
            peer,
            stage: 0,
            start_ns: now,
            end_ns: now,
            parent,
        });
        r.open.push(idx);
        Some(Guard(idx))
    })
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Self time per layer (span minus direct children), in ns.
    pub self_ns: [u64; Layer::ALL.len()],
    /// Summed duration of top-level spans (no parent), in ns.
    pub top_level_ns: u64,
}

impl Breakdown {
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e6
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }
}

/// Computes self times: each span's duration minus its direct children's.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut b = Breakdown::default();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let i = s.layer.index();
        b.self_ns[i] += dur.saturating_sub(children);
        if s.parent == NO_PARENT {
            b.top_level_ns += dur;
        }
    }
    b
}

/// Renders spans as tab-separated lines: index, layer, peer, stage (the
/// enclosing step's), start ns, end ns, parent index (`-` for none).
pub fn render(spans: &[Span], peer_names: &[String]) -> String {
    let mut out = String::with_capacity(spans.len() * 48);
    out.push_str("# span\tlayer\tpeer\tstage\tstart_ns\tend_ns\tparent\n");
    for (i, s) in spans.iter().enumerate() {
        // Children inherit the (peer, stage) key of their step.
        let mut key = s;
        while key.layer != Layer::Step && key.parent != NO_PARENT {
            key = &spans[key.parent as usize];
        }
        let peer = peer_names
            .get(s.peer as usize)
            .map(String::as_str)
            .unwrap_or("-");
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{}\t{peer}\t{}\t{}\t{}\t{parent}",
            s.layer.name(),
            key.stage,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span {
                layer: Layer::Step,
                peer: 0,
                stage: 1,
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
            },
            Span {
                layer: Layer::Session,
                peer: 0,
                stage: 0,
                start_ns: 10,
                end_ns: 50,
                parent: 0,
            },
            Span {
                layer: Layer::Tcp,
                peer: 0,
                stage: 0,
                start_ns: 20,
                end_ns: 30,
                parent: 1,
            },
        ];
        let b = breakdown(&spans);
        assert_eq!(b.self_ns(Layer::Step), 60);
        assert_eq!(b.self_ns(Layer::Session), 30);
        assert_eq!(b.self_ns(Layer::Tcp), 10);
        assert_eq!(b.top_level_ns, 100);
    }

    #[test]
    fn guards_nest_and_record_only_when_on() {
        assert!(span(Layer::Step, 0).is_none());
        start();
        {
            let step = span(Layer::Step, 3).expect("recording");
            step.set_stage(7);
            let _inner = span(Layer::Session, 3);
        }
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].stage, 7);
        assert!(span(Layer::Step, 0).is_none());
    }
}
