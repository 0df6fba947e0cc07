//! End-to-end benchmark of the paper's three request paths: single-sign-on
//! sessions over Switchboard (`session_long`, `session_short`), durable
//! credential publication beside re-authorization (`publish_revoke`), and
//! mail-service adaptation (`adapt_mail`). See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload session_long --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` makes a separate traced run and reports
//! the per-layer split. Exit code 1: a correctness check failed; 2: bad
//! arguments or an environment that cannot carry the workload.

mod adapt;
mod gen;
mod publish;
mod session;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "session_long",
    "session_short",
    "publish_revoke",
    "adapt_mail",
];

/// How many times a run builds its set-up; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Every per-layer metric a traced run reports, with its unit. A metric a
/// workload's path does not reach reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("switchboard.call.dispatch_us", "us"),
    ("switchboard.call.return_us", "us"),
    ("switchboard.wire_bytes_per_call", "bytes"),
    ("switchboard.frames_per_call", "count"),
    ("switchboard.handshake_us", "us"),
    ("switchboard.accept_us", "us"),
    ("switchboard.close_us", "us"),
    ("views.invoke_us", "us"),
    ("views.select_view_us", "us"),
    ("drbac.cache.proof_hit_ratio", "ratio"),
    ("drbac.cache.proof_lookups", "count"),
    ("drbac.cache.verifies_per_session", "count"),
    ("drbac.cache.invalidations_per_revoke", "count"),
    ("drbac.proof.edges_per_grant", "count"),
    ("drbac.wal.appends_per_fsync", "ratio"),
    ("drbac.wal.bytes_per_record", "bytes"),
    ("drbac.revocation.revoke_us", "us"),
    ("core.planner.plan_us", "us"),
    ("core.planner.expanded", "count"),
    ("core.planner.generated", "count"),
    ("core.planner.memo_pruned", "count"),
    ("core.preflight_us", "us"),
    ("core.deploy.execute_us", "us"),
    ("core.deploy.teardown_us", "us"),
    ("core.deploy.channels", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("process.cpu_us_per_op", "us"),
    ("switchboard.self_us_per_req", "us"),
    ("views.self_us_per_req", "us"),
    ("drbac.self_us_per_req", "us"),
    ("core.self_us_per_req", "us"),
    ("bench.unattributed_pct", "%"),
    ("bench.harness_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("fail_ratio", "ratio"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("calls_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("session_p99_ms", "ms"),
    ("publish_p50_us", "us"),
    ("publish_p99_us", "us"),
    ("publishes_per_s", "1/s"),
    ("reauth_p50_us", "us"),
    ("reauth_p99_us", "us"),
    ("adapt_p50_ms", "ms"),
    ("adapt_p99_ms", "ms"),
];

/// Spans whose median duration is a per-layer metric (`<span>_us`).
const TIMED_SPANS: &[&str] = &[
    "switchboard.call.dispatch",
    "switchboard.call.return",
    "switchboard.handshake",
    "switchboard.accept",
    "switchboard.close",
    "views.invoke",
    "views.select_view",
    "drbac.revocation.revoke",
    "core.planner.plan",
    "core.preflight",
    "core.deploy.execute",
    "core.deploy.teardown",
];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Make the program under test give one wrong answer per workload, to
    /// prove the correctness oracle catches it. Set only by the tests.
    pub inject_fault: bool,
    /// Scratch directory inside the checkout (WAL segments, span dumps).
    pub run_dir: PathBuf,
}

/// Attempted/failed counters shared by a phase's threads.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    pub fn attempt(&self) {
        // Relaxed: independent statistics, read after the threads join.
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self, msg: impl Into<String>) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut errors = self.errors.lock().expect("error list poisoned");
        if errors.len() < 8 {
            errors.push(msg.into());
        }
    }
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Latency (µs) of each completed primary operation.
    pub op_us: stats::Hist,
    pub wall_s: f64,
    pub cpu_us: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The workload's end-to-end metrics under their own names.
    pub named: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer values the workload measures directly (counts, ratios).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Phase {
    pub fn new(tally: Tally, op_us: stats::Hist, started: Instant, cpu_before: f64) -> Phase {
        Phase {
            op_us,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_us: stats::cpu_time_us() - cpu_before,
            attempted: tally.attempted.into_inner(),
            failed: tally.failed.into_inner(),
            errors: tally.errors.into_inner().expect("error list poisoned"),
            ..Phase::default()
        }
    }

    pub fn p50(&self) -> f64 {
        self.op_us.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.op_us.quantile(0.99)
    }

    pub fn per_s(&self) -> f64 {
        self.op_us.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// A workload the harness can set up, run and check.
pub trait Workload {
    type World;
    /// Lay down the state every set-up starts from (untimed; after the
    /// memory baseline, so it counts as the program's).
    fn prepare(&self) {}
    /// Build the program's state from the generated inputs (timed).
    fn setup(&self, cfg: &Config) -> Self::World;
    /// Measure for `seconds`; record spans when `tracer` is given.
    fn run(&self, world: &Self::World, seconds: f64, tracer: Option<&Tracer>) -> Phase;
    /// Checks that need the run to be over (durability). Returns failures.
    fn finish(&self, world: Self::World) -> Vec<String>;
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Resident memory before the program's state is built: the binary
    /// and the generated inputs the benchmark holds.
    pub inputs_rss_mb: f64,
    /// The untraced run (the untraced half of a traced run).
    pub plain: Phase,
    pub traced: Option<(Phase, Vec<trace::Span>)>,
    pub post_failures: Vec<String>,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.as_ref().map_or(0, |(p, _)| p.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.plain.failed
            + self.traced.as_ref().map_or(0, |(p, _)| p.failed)
            + self.post_failures.len() as u64
    }
}

pub fn measure<W: Workload>(cfg: &Config, w: &W) -> Measured {
    let inputs_rss_mb = stats::rss_mb();
    w.prepare();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        let t = Instant::now();
        world = Some(w.setup(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");
    let (plain, traced) = if cfg.trace {
        let plain = w.run(&world, cfg.seconds / 2.0, None);
        let tracer = Tracer::default();
        let phase = w.run(&world, cfg.seconds / 2.0, Some(&tracer));
        let mut spans = tracer.take();
        trace::derive_rpc_spans(&mut spans);
        (plain, Some((phase, spans)))
    } else {
        (w.run(&world, cfg.seconds, None), None)
    };
    let post_failures = w.finish(world);
    Measured {
        setup_s,
        inputs_rss_mb,
        plain,
        traced,
        post_failures,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Environment facts recorded with every result, and the refusal when the
/// machine cannot carry the workload without silently clamping it.
fn preflight(cfg: &Config) -> Result<Vec<(&'static str, String)>, String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let nofile = stats::nofile_limit();
    let ports = stats::ephemeral_ports();
    let tw_reuse = stats::read_trimmed("/proc/sys/net/ipv4/tcp_tw_reuse");
    std::fs::create_dir_all(&cfg.run_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.run_dir.display()))?;
    let env = vec![
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", (cfg.trace as u8).to_string()),
        ("nproc", nproc.to_string()),
        (
            "rlimit_nofile",
            nofile.map_or("unknown".into(), |n| n.to_string()),
        ),
        (
            "ip_local_port_range",
            stats::read_trimmed("/proc/sys/net/ipv4/ip_local_port_range").unwrap_or_default(),
        ),
        ("tcp_tw_reuse", tw_reuse.clone().unwrap_or_default()),
        (
            "reactor_shards",
            psf_switchboard::reactor::shard_count().to_string(),
        ),
        ("wal_fs", stats::filesystem_of(&cfg.run_dir)),
        ("fsync_policy", "Always (group commit)".into()),
        ("git_commit", stats::git_commit()),
    ];
    // Sessions hold a handful of descriptors at once; the reactor and the
    // WAL segments need a few dozen more.
    const MIN_NOFILE: u64 = 256;
    if nofile.is_some_and(|n| n < MIN_NOFILE) {
        return Err(format!(
            "RLIMIT_NOFILE {nofile:?} is below the {MIN_NOFILE} descriptors the benchmark needs"
        ));
    }
    if cfg.workload == "session_short" {
        // Every session leaves its client port in TIME_WAIT for 60 s.
        // Without tcp_tw_reuse the range must hold a full window of them.
        let need = (session::SHORT_RATE_PER_S * (cfg.seconds + 60.0)).ceil() as u64;
        let reuse = tw_reuse.as_deref() == Some("1");
        if !reuse && ports.is_some_and(|p| p < need) {
            return Err(format!(
                "ephemeral port range holds {ports:?} ports but session_short needs {need} \
                 over the TIME_WAIT window (rate {} /s); widen ip_local_port_range or set \
                 tcp_tw_reuse=1",
                session::SHORT_RATE_PER_S
            ));
        }
    }
    Ok(env)
}

pub fn run_workload(cfg: &Config) -> Result<Measured, String> {
    Ok(match cfg.workload.as_str() {
        "session_long" => measure(cfg, &session::SessionLong::new(cfg)),
        "session_short" => measure(cfg, &session::SessionShort::new(cfg)),
        "publish_revoke" => measure(cfg, &publish::PublishRevoke::new(cfg)),
        "adapt_mail" => measure(cfg, &adapt::AdaptMail::new(cfg)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The end-to-end metrics under the generic names every workload shares:
/// set-up, the program's peak memory above the inputs, and the primary
/// operation's median latency and rate.
/// Tail latencies are printed under the workload's own names and carried
/// by the traced run; on a shared host they are too unsteady to bound.
fn end_to_end(m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("setup_s", "s", stats::median(&m.setup_s)),
        ("peak_rss_mb", "MB", stats::peak_rss_mb() - m.inputs_rss_mb),
        ("op_p50_us", "us", m.plain.p50()),
        ("ops_per_s", "1/s", m.plain.per_s()),
    ]
}

/// The per-layer metrics of the traced phase, and whether its spans
/// reconcile with the end-to-end time.
fn per_layer(m: &Measured) -> (Vec<(&'static str, &'static str, f64)>, bool) {
    let Some((phase, spans)) = &m.traced else {
        return (Vec::new(), true);
    };
    let a = trace::analyze(spans);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for name in TIMED_SPANS {
        if let Some(d) = a.durations.get(name) {
            values.insert(format!("{name}_us"), stats::median(d));
        }
    }
    for (k, v) in &phase.layer {
        values.insert(k.to_string(), *v);
    }
    for (k, _, v) in &m.plain.named {
        values.insert(k.to_string(), *v);
    }
    let ops = phase.attempted.saturating_sub(phase.failed).max(1) as f64;
    values.insert("process.cpu_us_per_op".into(), phase.cpu_us / ops);
    for (layer, us) in &a.layer_self_us {
        values.insert(
            format!("{layer}.self_us_per_req"),
            us / a.roots.max(1) as f64,
        );
    }
    values.insert("bench.unattributed_pct".into(), a.unattributed_pct);
    values.insert("bench.harness_pct".into(), a.harness_pct);
    values.insert(
        "bench.trace_overhead_pct".into(),
        (phase.p50() - m.plain.p50()) * 100.0 / m.plain.p50().max(1e-9),
    );
    values.insert(
        "fail_ratio".into(),
        m.failed() as f64 / m.attempted().max(1) as f64,
    );
    let reconciled = a.unattributed_pct <= trace::UNATTRIBUTED_TOLERANCE_PCT;
    let out = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, values.get(*name).copied().unwrap_or(0.0)))
        .collect();
    (out, reconciled)
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_fault: false,
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--run-dir" => cfg.run_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--run-dir <dir>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let env = match preflight(&cfg) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            std::process::exit(2);
        }
    };
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("env {{{}}}", env_json.join(","));

    let steal_before = stats::cpu_steal();
    let m = match run_workload(&cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (attempted, failed) = (m.attempted(), m.failed());
    let steal_after = stats::cpu_steal();
    let steal_pct = (steal_after.0 - steal_before.0) as f64 * 100.0
        / (steal_after.1 - steal_before.1).max(1) as f64;

    // Human-readable table: the workload's end-to-end metrics under their
    // own names, then the generic ones the result line carries.
    println!(
        "{} seed {}: {attempted} attempted, {failed} failed (fail_ratio {}), {} samples, \
         {steal_pct:.1}% of CPU time stolen by the host",
        cfg.workload,
        cfg.seed,
        failed as f64 / attempted.max(1) as f64,
        m.plain.op_us.len()
    );
    let e2e = end_to_end(&m);
    let inputs = ("inputs_rss_mb", "MB", m.inputs_rss_mb);
    for (name, unit, v) in m.plain.named.iter().chain([&inputs]).chain(&e2e) {
        println!("  {name:<36} {v:>14.3} {unit}");
    }
    let traced_errors = m.traced.iter().flat_map(|(p, _)| &p.errors);
    for e in m
        .plain
        .errors
        .iter()
        .chain(traced_errors)
        .chain(&m.post_failures)
    {
        println!("  FAILED: {e}");
    }

    let (metrics, reconciled) = if cfg.trace {
        let (layer, reconciled) = per_layer(&m);
        if let Some((_, spans)) = &m.traced {
            let path = cfg.run_dir.join(format!("trace-{}.jsonl", cfg.workload));
            if let Err(e) = trace::write_jsonl(&path, spans) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        for (name, unit, v) in &layer {
            println!("  {name:<36} {v:>14.3} {unit}");
        }
        if !reconciled {
            println!(
                "  FAILED: layer spans leave more than {}% of the blocking path unattributed",
                trace::UNATTRIBUTED_TOLERANCE_PCT
            );
        }
        (layer, reconciled)
    } else {
        (e2e, true)
    };

    let correct = failed == 0 && reconciled && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
