//! wepicbench — the end-to-end Wepic benchmark.
//!
//! ```text
//! cargo run --release --manifest-path wepicbench/Cargo.toml -- \
//!     --workload <upload_stream|view_settled|churn|demo_inproc|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--corrupt-expected]
//! ```
//!
//! Run from the repository root. Prints a human-readable report, then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--corrupt-expected` removes one tuple from
//! the reference before the final check, to show that the check fails the
//! run. See `wepicbench/README.md`.

mod calib;
mod demo;
mod metrics;
mod net;
mod openloop;
mod plans;
mod probe;
mod stats;
mod trace;

use metrics::{result_line, Metrics};
use net::{more_setups, Net, NetTotals, SetupTimes};
use openloop::LoopOut;
use plans::{Plan, Sizes};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Layer;

/// Where stores and span files go, relative to the working directory.
const WORK_DIR: &str = ".wepicbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--corrupt-expected" => args.corrupt = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// End-to-end metrics of the untraced run, in report order.
    e2e: Metrics,
    /// Further report lines (workload-specific metrics, sample counts).
    notes: Vec<String>,
    /// Per-layer metrics of the traced run.
    layers: Option<Metrics>,
    mismatches: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wepicbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let dir = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let res = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves the work directory only if it holds span files.
    let _ = std::fs::remove_dir(WORK_DIR);
    let out = match res {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wepicbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    for (n, v, u) in out.e2e.iter() {
        println!("  {n:<24} {v:>14.4} {u}");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    if let Some(layers) = &out.layers {
        println!("per-layer (traced run):");
        for (n, v, u) in metrics::select(layers, &metrics::PER_LAYER).iter() {
            println!("  {n:<28} {v:>14.4} {u}");
        }
    }
    for m in &out.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let shown = match &out.layers {
        Some(layers) => metrics::select(layers, &metrics::PER_LAYER),
        None => metrics::select(&out.e2e, &metrics::END_TO_END),
    };
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &shown)
    );
    if !out.correct {
        eprintln!(
            "wepicbench: {}: final state differs from the reference",
            args.workload
        );
        std::process::exit(1);
    }
}

/// Runs every workload, each in a child process of its own (so each
/// reports its own peak RSS), and waits for each. Returns the exit code:
/// 0 when every workload passed.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wepicbench: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.corrupt {
            cmd.arg("--corrupt-expected");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(_) => code = 1,
            Err(e) => {
                eprintln!("wepicbench: {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = ["upload_stream", "view_settled", "churn", "demo_inproc"];

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let z = Sizes::standard();
    let plan = match args.workload.as_str() {
        "upload_stream" => plans::upload_stream(args.seed, args.seconds, z),
        "view_settled" => plans::view_settled(args.seed, args.seconds, z),
        "churn" => plans::churn(args.seed, args.seconds, z),
        "demo_inproc" => return run_demo(args),
        w => return Err(format!("unknown workload {w:?}")),
    };
    run_tcp(args, &plan, dir)
}

fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    stats::median(&xs.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Builds the network, preloads and waits for quiescence.
fn setup(plan: &Plan, dir: &Path, seed: u64, traced: bool) -> Result<(Net, SetupTimes), String> {
    let host_before = calib::host_ms();
    let mut times = SetupTimes::default();
    let mut net = Net::build((plan.build)(), dir, seed, traced, &mut times)?;
    let t = Instant::now();
    for (node, rel, values) in &plan.preload {
        match net.peer_mut(*node).insert_local(*rel, values.clone()) {
            Ok(true) => {}
            other => return Err(format!("preload {rel} at node {node}: {other:?}")),
        }
    }
    times.preload = t.elapsed().as_secs_f64();
    let t = Instant::now();
    net.quiesce(Duration::from_secs(60))?;
    times.quiesce = t.elapsed().as_secs_f64();
    times.host_ms = (host_before + calib::host_ms()) / 2.0;
    Ok((net, times))
}

/// Waits for quiescence, then compares every watched relation with the
/// reference and checks that no session frame is left unacknowledged.
fn finish(net: &mut Net, plan: &Plan, corrupt: bool) -> Result<Vec<String>, String> {
    net.quiesce(Duration::from_secs(60))?;
    let mut bad = Vec::new();
    for (k, (node, rel, want)) in plan.expected.iter().enumerate() {
        let mut want = want.clone();
        if corrupt && k == 0 {
            want.pop_first();
        }
        let got: BTreeSet<_> = net.nodes[*node]
            .peer()
            .relation_facts(*rel)
            .into_iter()
            .collect();
        if got != want {
            bad.push(format!(
                "{rel}@{}: {} tuples, expected {} ({} missing, {} unexpected)",
                net.names[*node],
                got.len(),
                want.len(),
                want.difference(&got).count(),
                got.difference(&want).count()
            ));
        }
    }
    let unacked = net.totals().unacked;
    if unacked != 0 {
        bad.push(format!("{unacked} session frames left unacknowledged"));
    }
    Ok(bad)
}

fn pct(samples: &[f64], q: f64) -> f64 {
    stats::percentile(samples, q).unwrap_or(f64::NAN)
}

fn latency_notes(notes: &mut Vec<String>, name: &str, samples: &[f64]) {
    notes.push(format!(
        "{name}: n={} beyond p99={}; p10/p50/p90/p99 = {:.3}/{:.3}/{:.3}/{:.3} ms",
        samples.len(),
        stats::beyond(samples.len(), 0.99),
        pct(samples, 0.1),
        pct(samples, 0.5),
        pct(samples, 0.9),
        pct(samples, 0.99)
    ));
}

/// The host's speed through the run: the calibration kernel's median time
/// in the timed phase and around the set-ups, and the raw `setup_s`.
fn host_notes(notes: &mut Vec<String>, c: &calib::Calibration, times: &[SetupTimes]) {
    notes.push(format!(
        "host: kernel {:.4} ms in the loop, {:.4} ms around set-ups (reference {} ms); \
         setup as measured {:.4} s",
        c.median_ms(),
        median_of(times.iter().map(|t| t.host_ms)),
        calib::REFERENCE_MS,
        median_of(times.iter().map(SetupTimes::total)),
    ));
}

fn run_tcp(args: &Args, plan: &Plan, dir: &Path) -> Result<Outcome, String> {
    // Untraced: the end-to-end numbers.
    let mut times = Vec::new();
    let mut net = None;
    while net.is_none() || (!args.trace && more_setups(&times)) {
        // Tear the previous network down before binding the next.
        drop(net.take());
        let (n, t) = setup(plan, dir, args.seed, false)?;
        times.push(t);
        net = Some(n);
    }
    let mut net = net.expect("at least one set-up");
    let a = openloop::run(&mut net, &plan.ops, plan.timed_ns, plan.drain_ns)?;
    let mut mismatches = finish(&mut net, plan, args.corrupt)?;
    drop(net);
    // Open-loop hygiene: a growing backlog makes latency meaningless.
    if a.backlog_grew(plan.rate * 0.25) {
        return Err(format!(
            "run invalid: backlog grew across the timed phase (samples every 100 ms: {:?})",
            a.backlog
        ));
    }
    if a.visible_ms.is_empty() {
        return Err("no upload became visible".into());
    }

    // Latencies and set-up times are reported scaled to the reference
    // host (see `calib`).
    let visible = a.calib.scaled(&a.visible_ms, &a.visible_at_ns);
    let retract = a.calib.scaled(&a.retract_ms, &a.retract_at_ns);
    let mut e2e = Metrics::default();
    e2e.put(
        "setup_s",
        median_of(times.iter().map(SetupTimes::scaled_total)),
        "s",
    );
    e2e.put("visible_p50_ms", pct(&visible, 0.5), "ms");
    e2e.put("visible_p99_ms", pct(&visible, 0.99), "ms");
    if !retract.is_empty() {
        e2e.put("retract_p50_ms", pct(&retract, 0.5), "ms");
        e2e.put("retract_p99_ms", pct(&retract, 0.99), "ms");
    }
    if a.burst_facts > 0 {
        e2e.put("burst_facts_per_s", a.burst_facts as f64 / a.burst_s, "1/s");
    }
    e2e.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    e2e.put(
        "failed_frac",
        a.failed() as f64 / a.attempted.max(1) as f64,
        "ratio",
    );
    let mut notes = Vec::new();
    latency_notes(&mut notes, "visible", &visible);
    latency_notes(&mut notes, "visible, as measured", &a.visible_ms);
    if !retract.is_empty() {
        latency_notes(&mut notes, "retract", &retract);
    }
    host_notes(&mut notes, &a.calib, &times);
    notes.push(format!(
        "driver late p99: {:.3} ms; set-ups: {}",
        stats::percentile(&a.late_ms, 0.99).unwrap_or(0.0),
        times.len()
    ));

    let layers = if args.trace {
        let (mut net, _) = setup(plan, dir, args.seed, true)?;
        let before = net.totals();
        let store0 = *net.store_stats.lock();
        let cpu0 = stats::cpu_ms();
        trace::start();
        let b = openloop::run(&mut net, &plan.ops, plan.timed_ns, plan.drain_ns)?;
        let spans = trace::stop();
        let cpu1 = stats::cpu_ms();
        let after = net.totals();
        let store = net.store_stats.lock().since(&store0);
        mismatches.extend(finish(&mut net, plan, false)?);
        write_spans(args, &spans, &net.names);
        let bg_cpu = (cpu1.0 - cpu0.0) - (cpu1.1 - cpu0.1);
        Some(tcp_layers(
            &a, &b, &times, &spans, before, after, store, bg_cpu,
        )?)
    } else {
        None
    };

    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: a.attempted,
        failed: a.failed(),
        e2e,
        notes,
        layers,
        mismatches,
    })
}

fn write_spans(args: &Args, spans: &[trace::Span], names: &[String]) {
    let path = PathBuf::from(WORK_DIR).join(format!("spans-{}.tsv", args.workload));
    let _ = std::fs::create_dir_all(WORK_DIR);
    if let Err(e) = std::fs::write(&path, trace::render(spans, names)) {
        eprintln!("wepicbench: writing {}: {e}", path.display());
    }
}

/// Layer accounting shared by both drivers: the top-level spans (steps,
/// injection, matching) must cover at least 90% of the loop's wall time.
fn accounting(m: &mut Metrics, bd: &trace::Breakdown, wall_ns: u64) -> Result<(), String> {
    let wall = wall_ns.max(1) as f64;
    let unaccounted = (wall - bd.top_level_ns as f64).max(0.0) / wall;
    m.layer("driver.wall_ms", wall / 1e6);
    m.layer("driver.idle_ms", bd.self_ms(Layer::Idle));
    m.layer("driver.unaccounted_share", unaccounted);
    m.layer(
        "driver.own_ms",
        bd.self_ms(Layer::Inject) + bd.self_ms(Layer::Account),
    );
    m.layer("driver.probe_ms", bd.self_ms(Layer::Probe));
    if unaccounted > 0.10 {
        return Err(format!(
            "layer accounting: spans cover only {:.1}% of driver wall time",
            100.0 * (1.0 - unaccounted)
        ));
    }
    Ok(())
}

fn setup_layers(m: &mut Metrics, times: &[SetupTimes]) {
    m.layer(
        "setup.bind_ms",
        median_of(times.iter().map(|t| t.bind * 1e3)),
    );
    m.layer(
        "setup.store_open_ms",
        median_of(times.iter().map(|t| t.store_open * 1e3)),
    );
    m.layer(
        "setup.preload_ms",
        median_of(times.iter().map(|t| t.preload * 1e3)),
    );
    m.layer(
        "setup.quiesce_ms",
        median_of(times.iter().map(|t| t.quiesce * 1e3)),
    );
}

#[allow(clippy::too_many_arguments)]
fn tcp_layers(
    a: &LoopOut,
    b: &LoopOut,
    times: &[SetupTimes],
    spans: &[trace::Span],
    before: NetTotals,
    after: NetTotals,
    store: probe::StoreStats,
    bg_cpu_ms: f64,
) -> Result<Metrics, String> {
    let bd = trace::breakdown(spans);
    let wall = b.wall_ns.max(1) as f64;
    let facts = b.deliveries.max(1) as f64;
    let mut m = Metrics::default();
    let late = stats::percentile(&a.late_ms, 0.99).unwrap_or(0.0);
    m.layer("driver.late_p99_ms", late);
    m.layer("driver.rounds", b.rounds as f64);
    accounting(&mut m, &bd, b.wall_ns)?;
    m.layer(
        "driver.trace_overhead",
        pct(&b.calib.scaled(&b.visible_ms, &b.visible_at_ns), 0.5)
            / pct(&a.calib.scaled(&a.visible_ms, &a.visible_at_ns), 0.5),
    );

    let step_us: Vec<f64> = b.steps.iter().map(|s| s.us).collect();
    let idle_us: Vec<f64> = b.steps.iter().filter(|s| s.idle).map(|s| s.us).collect();
    m.layer(
        "node.step_p50_us",
        stats::percentile(&step_us, 0.5).unwrap_or(0.0),
    );
    m.layer(
        "node.step_p99_us",
        stats::percentile(&step_us, 0.99).unwrap_or(0.0),
    );
    m.layer("node.idle_step_us", stats::median(&idle_us).unwrap_or(0.0));
    m.layer("node.deferred", b.deferred as f64);

    let s = &b.stage;
    m.layer("stage.self_ms", bd.self_ms(Layer::Step));
    m.layer("stage.share", bd.self_ns(Layer::Step) as f64 / wall);
    m.layer("stage.derivations", s.derivations as f64);
    m.layer("stage.derivations_per_fact", s.derivations as f64 / facts);
    m.layer("stage.fixpoint_rounds", s.fixpoint_rounds as f64);
    m.layer("stage.facts_out", s.facts_out as f64);
    m.layer("stage.delegations_out", s.delegations_out as f64);
    m.layer("stage.revocations_out", s.revocations_out as f64);
    m.layer("stage.rejected", s.rejected as f64);

    let retransmits = after.retransmits - before.retransmits;
    let data_frames = (after.app_sends - before.app_sends).max(1);
    let wire = after.wire_frames - before.wire_frames;
    m.layer("session.self_ms", bd.self_ms(Layer::Session));
    m.layer("session.retransmits", retransmits as f64);
    m.layer(
        "session.dup_drops",
        (after.dup_drops - before.dup_drops) as f64,
    );
    m.layer(
        "session.retransmit_ratio",
        retransmits as f64 / data_frames as f64,
    );
    m.layer("session.frames_per_fact", wire as f64 / facts);
    m.layer("session.unacked_peak", b.unacked_peak as f64);

    m.layer("tcp.self_ms", bd.self_ms(Layer::Tcp));
    m.layer("tcp.frames", wire as f64);
    m.layer("tcp.overflow", (after.overflow - before.overflow) as f64);
    m.layer("tcp.background_cpu_ms", bg_cpu_ms);

    let c_facts = (after.codec.facts - before.codec.facts).max(1) as f64;
    m.layer(
        "codec.bytes_per_fact",
        (after.codec.bytes - before.codec.bytes) as f64 / c_facts,
    );
    m.layer(
        "codec.encode_ns_per_fact",
        (after.codec.encode_ns - before.codec.encode_ns) as f64 / c_facts,
    );
    m.layer(
        "codec.decode_ns_per_fact",
        (after.codec.decode_ns - before.codec.decode_ns) as f64 / c_facts,
    );

    m.layer("store.commit_ms", bd.self_ms(Layer::StoreCommit));
    m.layer("store.commits", store.commits as f64);
    m.layer("store.checkpoint_ms", bd.self_ms(Layer::StoreCheckpoint));
    m.layer("store.checkpoints", store.checkpoints as f64);
    m.layer("store.buffer_ms", bd.self_ms(Layer::StoreBuffer));
    m.layer("store.bytes_per_fact", store.bytes as f64 / facts);

    setup_layers(&mut m, times);
    Ok(m)
}

fn run_demo(args: &Args) -> Result<Outcome, String> {
    let z = demo::DemoSizes::standard();
    let a = demo::run(args.seed, args.seconds, z, !args.trace, false, args.corrupt)?;
    if a.settle_ms.is_empty() {
        return Err("no action settled".into());
    }
    let settle = a.calib.scaled(&a.settle_ms, &a.settle_at_ns);
    let mut e2e = Metrics::default();
    e2e.put(
        "setup_s",
        median_of(a.setup.iter().map(SetupTimes::scaled_total)),
        "s",
    );
    let p50 = pct(&settle, 0.5);
    e2e.put("visible_p50_ms", p50, "ms");
    e2e.put("visible_p99_ms", pct(&settle, 0.99), "ms");
    e2e.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    e2e.put(
        "failed_frac",
        a.failed as f64 / a.attempted.max(1) as f64,
        "ratio",
    );
    let mut notes = Vec::new();
    latency_notes(&mut notes, "settle (closed loop)", &settle);
    latency_notes(&mut notes, "settle, as measured", &a.settle_ms);
    host_notes(&mut notes, &a.calib, &a.setup);
    let mut mismatches = a.mismatches.clone();

    let layers = if args.trace {
        let b = demo::run(args.seed, args.seconds, z, false, true, false)?;
        mismatches.extend(b.mismatches.iter().cloned());
        let bd = trace::breakdown(&b.spans);
        let mut m = Metrics::default();
        m.layer("driver.rounds", b.round_us.len() as f64);
        accounting(&mut m, &bd, b.wall_ns)?;
        let traced = b.calib.scaled(&b.settle_ms, &b.settle_at_ns);
        m.layer("driver.trace_overhead", pct(&traced, 0.5) / p50);
        m.layer(
            "runtime.round_p50_us",
            stats::median(&b.round_us).unwrap_or(0.0),
        );
        m.layer("runtime.rounds", b.round_us.len() as f64);
        m.layer("runtime.messages", b.messages as f64);
        m.layer("runtime.self_ms", bd.self_ms(Layer::Conference));
        m.layer("wrappers.activity", b.wrapper_activity as f64);
        setup_layers(&mut m, &a.setup);
        write_spans(args, &b.spans, &["conference".to_string()]);
        Some(m)
    } else {
        None
    };
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: a.attempted,
        failed: a.failed,
        e2e,
        notes,
        layers,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Sizes {
        Sizes {
            upload_rate: 200.0,
            keep_newest: 4,
            burst: 60,
            view_preload: 20,
            view_rate: 50.0,
            churn_preload: 20,
            churn_rate: 60.0,
            churn_cycle_s: 1.0,
        }
    }

    fn args(workload: &str, corrupt: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 5,
            seconds: 1.5,
            trace: false,
            corrupt,
        }
    }

    fn run_small(workload: &str, corrupt: bool) -> Outcome {
        let a = args(workload, corrupt);
        let plan = match workload {
            "upload_stream" => plans::upload_stream(a.seed, a.seconds, small()),
            "view_settled" => plans::view_settled(a.seed, a.seconds, small()),
            _ => plans::churn(a.seed, a.seconds, small()),
        };
        let dir = std::env::temp_dir().join(format!("wepicbench-test-{workload}-{corrupt}"));
        let out = run_tcp(&a, &plan, &dir).expect("run completes");
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn tcp_workloads_match_their_reference() {
        for w in ["upload_stream", "view_settled", "churn"] {
            let out = run_small(w, false);
            assert!(out.correct, "{w}: {:?}", out.mismatches);
            assert_eq!(out.failed, 0, "{w}");
            assert!(out.e2e.get("visible_p50_ms").is_some_and(|v| v > 0.0));
        }
    }

    /// The check's self-test: one tuple missing from the expected set
    /// must fail the run.
    #[test]
    fn corrupted_expected_set_fails_the_run() {
        let out = run_small("upload_stream", true);
        assert!(!out.correct);
        assert!(
            out.mismatches.iter().any(|m| m.contains("pictures@sigmod")),
            "{:?}",
            out.mismatches
        );
        let z = demo::DemoSizes {
            preload: 3,
            authorize_every: 2,
        };
        let demo = demo::run(5, 0.3, z, false, false, true).expect("demo runs");
        assert!(!demo.mismatches.is_empty());
        let clean = demo::run(5, 0.3, z, false, false, false).expect("demo runs");
        assert!(clean.mismatches.is_empty(), "{:?}", clean.mismatches);
    }
}
