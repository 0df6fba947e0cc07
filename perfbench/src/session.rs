//! The two single-sign-on session workloads over secure loopback-TCP
//! Switchboard channels.
//!
//! The server admits a client at the handshake (its Authorizer proves the
//! client holds `Svc.Client`), then selects the client's view once with
//! `ViewAcl::authorize_once_cached`, which mints the client's `SsoToken`,
//! and instantiates that VIG-generated view. Every later call only checks
//! `SsoToken::is_valid` and runs `ViewInstance::invoke`.
//!
//! * `session_long` — 2 clients, one channel each, closed loop of calls:
//!   authorization happens once per run; the data plane does the work.
//! * `session_short` — open loop of short sessions at a fixed rate, every
//!   one from a distinct user: connect, select the view, one call, close.
//!   Every authorization misses the cache.

use crate::gen::{self, Graph, Rng, User, ViewKind};
use crate::stats::Hist;
use crate::trace::{root_id, Tracer};
use crate::{Config, Phase, Tally, Workload};
use psf_drbac::{AuthCache, CacheStats, EntityRegistry, Repository, RevocationBus, Subject};
use psf_switchboard::{
    connect_tcp, establish_secure, AuthSuite, Authorizer, Channel, ChannelConfig, ChannelStatus,
    ClockRef, SwitchboardError, TcpTransport,
};
use psf_views::{
    CoherencePolicy, ComponentClass, ExposureType, GeneratedView, MethodLibrary, ViewAcl, ViewSpec,
    Vig,
};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Request arguments are 64 bytes; the first 8 carry the request id.
pub const ARG_BYTES: usize = 64;
/// Every 16th call of `session_long` fetches a 16 KiB body.
pub const FETCH_BYTES: usize = 16 << 10;
pub const FETCH_EVERY: u64 = 16;
/// `session_short` arrival rate, fixed here and never re-derived per run.
/// Well below what two cores sustain (see README).
pub const SHORT_RATE_PER_S: f64 = 100.0;
const SHORT_WORKERS: usize = 2;
/// How far ahead of a session's due time its worker stops sleeping.
const WAKE_EARLY: Duration = Duration::from_micros(500);
const LONG_CLIENTS: usize = 2;
/// Share of users presenting their whole chain in the hello; the rest
/// rely on repository discovery.
const PRESENT_PCT: u64 = 50;
/// How long a client waits for the server to admit its session.
const ADMIT_TIMEOUT: Duration = Duration::from_secs(10);

const START_REQ_BASE: u64 = 1 << 40;
const CALL_REQ_BASE: u64 = 1 << 48;

/// Span id of a `session_short` call span (a child of the session root),
/// derivable by the server handler from the request id it receives.
fn call_id(req: u64) -> u64 {
    (1 << 61) | req
}

/// The reply a view's method must return: the arguments mixed with the
/// view's key (`ping`), or a 16 KiB body derived from them (`fetch`).
pub fn reply(view: ViewKind, method: &str, args: &[u8]) -> Vec<u8> {
    let k = view.key();
    if args.is_empty() {
        return Vec::new();
    }
    match method {
        "fetch" => (0..FETCH_BYTES)
            .map(|i| args[i % args.len()] ^ k ^ (i / args.len()) as u8)
            .collect(),
        _ => args
            .iter()
            .enumerate()
            .map(|(i, b)| b ^ k ^ i as u8)
            .collect(),
    }
}

/// The service component: one interface, two methods; its views differ
/// in the method bodies they customize.
fn mailbox_class() -> Arc<ComponentClass> {
    ComponentClass::builder("Mailbox")
        .interface("MailboxI", ["ping", "fetch"])
        .method("ping", "Bytes ping(Bytes args)", &[], false, |_, a| {
            Ok(reply(ViewKind::Member, "ping", a))
        })
        .method("fetch", "Bytes fetch(Bytes args)", &[], false, |_, a| {
            Ok(reply(ViewKind::Member, "fetch", a))
        })
        .build()
        .expect("Mailbox class is well-formed")
}

/// VIG-generate the three views of the service.
fn generate_views() -> HashMap<ViewKind, Arc<GeneratedView>> {
    let mut lib = MethodLibrary::new();
    for (kind, label) in [(ViewKind::Gold, "gold"), (ViewKind::Guest, "guest")] {
        lib.register(format!("perf.ping_{label}"), move |_, a| {
            Ok(reply(kind, "ping", a))
        });
        lib.register(format!("perf.fetch_{label}"), move |_, a| {
            Ok(reply(kind, "fetch", a))
        });
    }
    let vig = Vig::new(lib);
    let class = mailbox_class();
    let spec = |kind: ViewKind| {
        let base = ViewSpec::new(kind.name(), "Mailbox").restrict("MailboxI", ExposureType::Local);
        match kind {
            ViewKind::Member => base,
            ViewKind::Gold => base
                .customize_method("Bytes ping(Bytes args)", "perf.ping_gold")
                .customize_method("Bytes fetch(Bytes args)", "perf.fetch_gold"),
            ViewKind::Guest => base
                .customize_method("Bytes ping(Bytes args)", "perf.ping_guest")
                .customize_method("Bytes fetch(Bytes args)", "perf.fetch_guest"),
        }
    };
    [ViewKind::Gold, ViewKind::Member, ViewKind::Guest]
        .into_iter()
        .map(|k| {
            let view = vig
                .generate(&class, &spec(k))
                .expect("service views generate");
            (k, view)
        })
        .collect()
}

/// The service's role→view table: `Svc.Gold` first, then every
/// authenticated client (`Svc.Client`), then everyone else.
pub fn service_acl(graph: &Graph) -> ViewAcl {
    ViewAcl::new()
        .rule(graph.svc.role("Gold"), ViewKind::Gold.name())
        .rule(graph.svc.role("Client"), ViewKind::Member.name())
        .others(ViewKind::Guest.name())
}

/// Everything both session workloads serve from.
pub struct Service {
    registry: EntityRegistry,
    repository: Repository,
    bus: RevocationBus,
    clock: ClockRef,
    acl: ViewAcl,
    select_cache: AuthCache,
    views: HashMap<ViewKind, Arc<GeneratedView>>,
    server: AuthSuite,
    client_auth: Authorizer,
    users: Vec<Arc<User>>,
    suites: Vec<AuthSuite>,
    by_name: HashMap<String, usize>,
    wrong_view: bool,
    seed: u64,
    /// Next unused user of the population (`session_short`).
    cursor: AtomicU64,
}

impl Service {
    fn build(graph: &Graph, users: &[Arc<User>], cfg: &Config) -> Service {
        let registry = EntityRegistry::new();
        let repository = Repository::new();
        let bus = RevocationBus::new();
        let clock = ClockRef::new();
        graph.register(&registry);
        graph.publish(&repository);
        gen::publish_discovery(users, &repository);
        let authorizer = |role| {
            Authorizer::new(
                registry.clone(),
                repository.clone(),
                bus.clone(),
                clock.clone(),
                role,
            )
        };
        let server = AuthSuite::new(
            graph.host.clone(),
            vec![graph.host_cred.clone()],
            authorizer(graph.svc.role("Client")),
        );
        let client_auth = authorizer(graph.svc.role("Host"));
        let suites = users
            .iter()
            .map(|u| AuthSuite::new(u.entity.clone(), u.presented.clone(), client_auth.clone()))
            .collect();
        let by_name = users
            .iter()
            .enumerate()
            .map(|(i, u)| (u.entity.name.0.clone(), i))
            .collect();
        Service {
            acl: service_acl(graph),
            select_cache: AuthCache::new(),
            views: generate_views(),
            registry,
            repository,
            bus,
            clock,
            server,
            client_auth,
            users: users.to_vec(),
            suites,
            by_name,
            wrong_view: cfg.inject_fault,
            seed: cfg.seed,
            cursor: AtomicU64::new(0),
        }
    }

    /// Summed counters of the three authorization caches on the path.
    fn cache_stats(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for c in [
            self.server.authorizer.auth_cache(),
            self.client_auth.auth_cache(),
            &self.select_cache,
        ] {
            let s = c.stats();
            sum.proof_hits += s.proof_hits;
            sum.proof_misses += s.proof_misses;
            sum.proof_invalidations += s.proof_invalidations;
            sum.cred_hits += s.cred_hits;
            sum.cred_misses += s.cred_misses;
        }
        sum
    }
}

/// Server → client "your session is admitted" signal: the client must not
/// call before the server has selected and registered its view.
#[derive(Default)]
struct Admissions {
    slots: Mutex<HashMap<usize, Result<(), String>>>,
    cv: Condvar,
}

impl Admissions {
    fn post(&self, user: usize, result: Result<(), String>) {
        self.slots
            .lock()
            .expect("admissions poisoned")
            .insert(user, result);
        self.cv.notify_all();
    }

    fn wait(&self, user: usize) -> Result<(), String> {
        let deadline = Instant::now() + ADMIT_TIMEOUT;
        let mut slots = self.slots.lock().expect("admissions poisoned");
        loop {
            if let Some(r) = slots.remove(&user) {
                return r;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("server never admitted the session".into());
            }
            slots = self
                .cv
                .wait_timeout(slots, left)
                .expect("admissions poisoned")
                .0;
        }
    }
}

/// Raw handler timestamps, turned into spans once the phase is over.
struct HandlerTimes {
    req: u64,
    start: Instant,
    check_start: Instant,
    invoke_start: Instant,
    invoke_end: Instant,
}

type HandlerSink = Arc<Mutex<Vec<HandlerTimes>>>;

/// One phase's server: accepts, admits and serves until stopped.
struct Server<'a> {
    svc: &'a Service,
    listener: TcpListener,
    stop: AtomicBool,
    admissions: Admissions,
    tracer: Option<&'a Tracer>,
    sink: Option<HandlerSink>,
    /// Session request id of a user's admission spans.
    req_of: fn(usize) -> u64,
    /// Proof edges of every grant (input check on the generator).
    grant_edges: Mutex<Vec<f64>>,
}

impl<'a> Server<'a> {
    fn new(svc: &'a Service, tracer: Option<&'a Tracer>, req_of: fn(usize) -> u64) -> Self {
        Server {
            svc,
            listener: TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"),
            stop: AtomicBool::new(false),
            admissions: Admissions::default(),
            tracer,
            sink: tracer.map(|_| Arc::new(Mutex::new(Vec::new()))),
            req_of,
            grant_edges: Mutex::new(Vec::new()),
        }
    }

    fn addr(&self) -> String {
        self.listener
            .local_addr()
            .expect("listener address")
            .to_string()
    }

    /// The accept loop: `Listener::accept` split in its two public halves
    /// so the span times the handshake, not the wait for a connection.
    fn serve(&self) {
        let config = ChannelConfig::default();
        let mut live: Vec<Channel> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok((stream, _)) = accepted else { continue };
            let a0 = Instant::now();
            let channel = TcpTransport::new(stream)
                .map_err(SwitchboardError::from)
                .and_then(|t| {
                    establish_secure(Box::new(t), &self.svc.server, false, config.clone())
                });
            let a1 = Instant::now();
            // A failed handshake fails the client's connect, which counts it.
            let Ok(channel) = channel else { continue };
            let Some(user) = channel
                .peer()
                .and_then(|p| self.svc.by_name.get(&p.name.0).copied())
            else {
                continue;
            };
            let req = (self.req_of)(user);
            if let Some(t) = self.tracer {
                t.span("switchboard.accept", root_id(req), req, t.at(a0), t.at(a1));
            }
            let admitted = self.admit(&channel, user, req);
            self.admissions.post(user, admitted);
            live.retain(|c| c.status() != ChannelStatus::Closed);
            live.push(channel);
        }
    }

    /// Select the view once (minting the SSO token), check it against the
    /// generator, instantiate it and serve it on the channel.
    fn admit(&self, channel: &Channel, user: usize, req: u64) -> Result<(), String> {
        let svc = self.svc;
        let u = &svc.users[user];
        let peer = channel.peer().ok_or("secure channel without a peer")?;
        let subject = Subject::Entity {
            name: peer.name,
            key: peer.key,
        };
        let s0 = Instant::now();
        let token = svc.acl.authorize_once_cached(
            &subject,
            &u.presented,
            &svc.registry,
            &svc.repository,
            &svc.bus,
            svc.clock.now(),
            &svc.select_cache,
        );
        let s1 = Instant::now();
        let token = token.ok_or_else(|| format!("{}: no view granted", u.entity.name.0))?;
        if let Some(p) = &token.proof {
            let edges = p.total_edges();
            self.grant_edges
                .lock()
                .expect("grant list poisoned")
                .push(edges as f64);
            if edges != u.depth {
                return Err(format!(
                    "{}: proof of {edges} edge(s) for a generated chain of {}",
                    u.entity.name.0, u.depth
                ));
            }
        }
        let granted = ViewKind::from_name(&token.view)
            .ok_or_else(|| format!("unknown view '{}' granted", token.view))?;
        if granted != u.view {
            return Err(format!(
                "{} was granted {} but must get {}",
                u.entity.name.0,
                granted.name(),
                u.view.name()
            ));
        }
        let served = if svc.wrong_view {
            ViewKind::Gold
        } else {
            granted
        };
        let i0 = Instant::now();
        let instance =
            svc.views[&served].instantiate(None, CoherencePolicy::WriteThrough, 0, &[])?;
        let i1 = Instant::now();
        // `SsoToken` is Send but not Sync (its monitor holds a receiver);
        // the handler may run on any reactor thread.
        let token = Mutex::new(token);
        let sink = self.sink.clone();
        channel.register_default_handler(move |method, args| {
            let start = Instant::now();
            let token = token.lock().expect("token poisoned");
            let check_start = Instant::now();
            let valid = token.is_valid();
            drop(token);
            let invoke_start = Instant::now();
            if !valid {
                return Err("single sign-on token revoked".into());
            }
            let out = instance.invoke(method, args);
            if let (Some(sink), Some(id)) = (&sink, args.get(..8)) {
                let invoke_end = Instant::now();
                let req = u64::from_le_bytes(id.try_into().expect("8-byte id"));
                sink.lock()
                    .expect("handler sink poisoned")
                    .push(HandlerTimes {
                        req,
                        start,
                        check_start,
                        invoke_start,
                        invoke_end,
                    });
            }
            out
        });
        let r1 = Instant::now();
        if let Some(t) = self.tracer {
            let root = root_id(req);
            t.span("views.select_view", root, req, t.at(s0), t.at(s1));
            t.span("views.instantiate", root, req, t.at(i0), t.at(i1));
            t.span(
                "switchboard.register_handler",
                root,
                req,
                t.at(i1),
                t.at(r1),
            );
        }
        Ok(())
    }

    /// Run `clients` against this server, then stop it.
    fn with_clients<R>(&self, clients: impl FnOnce(&str) -> R) -> R {
        let addr = self.addr();
        std::thread::scope(|s| {
            let acceptor = s.spawn(|| self.serve());
            let out = clients(&addr);
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept; the loop sees `stop` and exits.
            let _ = TcpStream::connect(&addr);
            acceptor.join().expect("acceptor panicked");
            out
        })
    }

    /// Turn handler timestamps into spans under the call span
    /// `parent(req)`.
    fn flush_handler_spans(&self, parent: fn(u64) -> u64) {
        let (Some(t), Some(sink)) = (self.tracer, &self.sink) else {
            return;
        };
        for h in sink.lock().expect("handler sink poisoned").drain(..) {
            let id = t.span(
                "bench.handler",
                parent(h.req),
                h.req,
                t.at(h.start),
                t.at(h.invoke_end),
            );
            t.span(
                "views.token_valid",
                id,
                h.req,
                t.at(h.check_start),
                t.at(h.invoke_start),
            );
            t.span(
                "views.invoke",
                id,
                h.req,
                t.at(h.invoke_start),
                t.at(h.invoke_end),
            );
        }
    }
}

fn args_for(rng: &mut Rng, req: u64) -> [u8; ARG_BYTES] {
    let mut args = [0u8; ARG_BYTES];
    rng.fill(&mut args[8..]);
    args[..8].copy_from_slice(&req.to_le_bytes());
    args
}

fn check_reply(
    reply_of: Result<Vec<u8>, SwitchboardError>,
    view: ViewKind,
    method: &str,
    args: &[u8],
) -> Result<(), String> {
    match reply_of {
        Ok(bytes) if bytes == reply(view, method, args) => Ok(()),
        Ok(bytes) => Err(format!(
            "{method}: {} reply bytes differ from the {} view's answer",
            bytes.len(),
            view.name()
        )),
        Err(e) => Err(format!("{method}: {e}")),
    }
}

/// Wire cost of `calls` calls on a fresh heartbeat-free channel, per
/// call: (frames, bytes) both directions. Windows in which a server
/// heartbeat arrived are discarded, so the figures repeat exactly.
fn wire_probe(
    svc: &Service,
    server: &Server<'_>,
    addr: &str,
    user: usize,
    methods: &[&str],
) -> Option<(f64, f64)> {
    let config = ChannelConfig {
        heartbeat_interval: None,
        ..ChannelConfig::default()
    };
    let ch = connect_tcp(addr, &svc.suites[user], config).ok()?;
    server.admissions.wait(user).ok()?;
    let mut rng = Rng::new(svc.seed, 7);
    let view = svc.users[user].view;
    for _ in 0..5 {
        let (hb0, t0) = (ch.heartbeats_received(), ch.traffic());
        for (i, m) in methods.iter().enumerate() {
            let args = args_for(&mut rng, i as u64);
            check_reply(ch.call(m, &args), view, m, &args).ok()?;
        }
        let (hb1, t1) = (ch.heartbeats_received(), ch.traffic());
        if hb1 == hb0 {
            let n = methods.len() as f64;
            let frames =
                (t1.frames_sent - t0.frames_sent + t1.frames_received - t0.frames_received) as f64;
            let bytes =
                (t1.bytes_sent - t0.bytes_sent + t1.bytes_received - t0.bytes_received) as f64;
            ch.close();
            return Some((frames / n, bytes / n));
        }
    }
    ch.close();
    None
}

/// Cache counters over a phase, as per-layer metrics.
fn cache_metrics(phase: &mut Phase, before: CacheStats, after: CacheStats, sessions: f64) {
    let hits = (after.proof_hits - before.proof_hits) as f64;
    let lookups = hits + (after.proof_misses - before.proof_misses) as f64;
    phase
        .layer
        .insert("drbac.cache.proof_hit_ratio", hits / lookups.max(1.0));
    phase.layer.insert("drbac.cache.proof_lookups", lookups);
    phase.layer.insert(
        "drbac.cache.verifies_per_session",
        (after.cred_misses - before.cred_misses) as f64 / sessions.max(1.0),
    );
}

fn generate(cfg: &Config, n: usize) -> (Graph, Vec<Arc<User>>) {
    let graph = Graph::generate(cfg.seed);
    let users = gen::population(&graph, cfg.seed, n, PRESENT_PCT);
    (graph, users)
}

// ------------------------------------------------------------ long --

/// Set-up of both session workloads generates its inputs (the signed
/// graph and population) and builds the service from them.
pub struct SessionLong;

impl SessionLong {
    pub fn new(_cfg: &Config) -> SessionLong {
        SessionLong
    }
}

impl Workload for SessionLong {
    type World = Service;

    fn setup(&self, cfg: &Config) -> Service {
        // Only the first `LONG_CLIENTS` users connect; the rest populate
        // the repository the service authorizes against. Move one Gold and
        // one Member user to the front, so both views carry traffic.
        let (graph, mut users) = generate(cfg, 512);
        for (slot, view) in [ViewKind::Gold, ViewKind::Member].into_iter().enumerate() {
            let at = slot
                + users[slot..]
                    .iter()
                    .position(|u| u.view == view)
                    .expect("population holds both views");
            users.swap(slot, at);
        }
        Service::build(&graph, &users, cfg)
    }

    fn run(&self, svc: &Service, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let server = Server::new(svc, tracer, |user| START_REQ_BASE + user as u64);
        let tally = Tally::default();
        let cache_before = svc.cache_stats();
        let cpu_before = crate::stats::cpu_time_us();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let (lat, probe) = server.with_clients(|addr| {
            // Sessions open one after the other, so the reactor pins the
            // channels to its shards in the same layout on every run.
            let channels: Vec<_> = (0..LONG_CLIENTS)
                .map(|t| open_long_session(svc, &server, addr, t, &tally, tracer))
                .collect();
            let lat = std::thread::scope(|s| {
                let workers: Vec<_> = channels
                    .into_iter()
                    .enumerate()
                    .filter_map(|(t, ch)| Some((t, ch?)))
                    .map(|(t, ch)| {
                        let tally = &tally;
                        s.spawn(move || call_loop(svc, &ch, t, deadline, tally, tracer))
                    })
                    .collect();
                let mut lat = Hist::default();
                for w in workers {
                    lat.merge(&w.join().expect("client panicked"));
                }
                lat
            });
            let mix: Vec<&str> = (1..=FETCH_EVERY)
                .map(|n| {
                    if n.is_multiple_of(FETCH_EVERY) {
                        "fetch"
                    } else {
                        "ping"
                    }
                })
                .collect();
            let probe = tracer.and_then(|_| wire_probe(svc, &server, addr, 0, &mix));
            (lat, probe)
        });
        server.flush_handler_spans(root_id);
        let mut phase = Phase::new(tally, lat, started, cpu_before);
        phase.named = vec![
            ("call_p50_us", "us", phase.p50()),
            ("call_p99_us", "us", phase.p99()),
            ("calls_per_s", "1/s", phase.per_s()),
        ];
        if tracer.is_some() {
            cache_metrics(
                &mut phase,
                cache_before,
                svc.cache_stats(),
                LONG_CLIENTS as f64,
            );
            let edges = server.grant_edges.lock().expect("grant list poisoned");
            phase
                .layer
                .insert("drbac.proof.edges_per_grant", crate::stats::mean(&edges));
            if let Some((frames, bytes)) = probe {
                phase.layer.insert("switchboard.frames_per_call", frames);
                phase.layer.insert("switchboard.wire_bytes_per_call", bytes);
            } else {
                phase
                    .errors
                    .push("wire probe never saw a heartbeat-free window".into());
                phase.failed += 1;
            }
        }
        phase
    }

    fn finish(&self, _svc: Service) -> Vec<String> {
        Vec::new()
    }
}

/// Open `session_long` client `t`'s session: connect, then wait for the
/// server to admit it.
fn open_long_session(
    svc: &Service,
    server: &Server<'_>,
    addr: &str,
    t: usize,
    tally: &Tally,
    tracer: Option<&Tracer>,
) -> Option<Channel> {
    let start_req = START_REQ_BASE + t as u64;
    tally.attempt();
    let s0 = Instant::now();
    let ch = match connect_tcp(addr, &svc.suites[t], ChannelConfig::default()) {
        Ok(ch) => ch,
        Err(e) => {
            tally.fail(format!("session start: {e}"));
            return None;
        }
    };
    let s1 = Instant::now();
    if let Err(e) = server.admissions.wait(t) {
        tally.fail(format!("session start: {e}"));
        return None;
    }
    if let Some(tr) = tracer {
        let root = tr.span("session.start", 0, start_req, tr.at(s0), tr.now());
        tr.span(
            "switchboard.handshake",
            root,
            start_req,
            tr.at(s0),
            tr.at(s1),
        );
    }
    Some(ch)
}

/// Client `t`'s closed loop of calls until the deadline. Returns per-call
/// latencies (µs).
fn call_loop(
    svc: &Service,
    ch: &Channel,
    t: usize,
    deadline: Instant,
    tally: &Tally,
    tracer: Option<&Tracer>,
) -> Hist {
    let view = svc.users[t].view;
    let mut rng = Rng::new(svc.seed, 100 + t as u64);
    let mut lat = Hist::default();
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let req = CALL_REQ_BASE | (t as u64) << 32 | n;
        let args = args_for(&mut rng, req);
        let method = if n.is_multiple_of(FETCH_EVERY) {
            "fetch"
        } else {
            "ping"
        };
        tally.attempt();
        let c0 = Instant::now();
        let result = ch.call(method, &args);
        let c1 = Instant::now();
        match check_reply(result, view, method, &args) {
            Ok(()) => lat.record((c1 - c0).as_secs_f64() * 1e6),
            Err(e) => tally.fail(e),
        }
        if let Some(tr) = tracer {
            tr.span("switchboard.call", 0, req, tr.at(c0), tr.at(c1));
        }
    }
    ch.close();
    lat
}

// ----------------------------------------------------------- short --

pub struct SessionShort;

impl SessionShort {
    pub fn new(_cfg: &Config) -> SessionShort {
        SessionShort
    }
}

/// Per-session timings of `session_short` (µs since due time).
struct SessionSample {
    latency_us: f64,
    lag_us: f64,
}

impl Workload for SessionShort {
    type World = Service;

    fn setup(&self, cfg: &Config) -> Service {
        // One distinct user per session the run can start, plus slack.
        let n = (SHORT_RATE_PER_S * cfg.seconds).ceil() as usize + 16;
        let (graph, users) = generate(cfg, n);
        Service::build(&graph, &users, cfg)
    }

    fn run(&self, svc: &Service, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let server = Server::new(svc, tracer, |user| user as u64);
        let tally = Tally::default();
        let cache_before = svc.cache_stats();
        let cpu_before = crate::stats::cpu_time_us();
        let first = svc.cursor.load(Ordering::SeqCst);
        let started = Instant::now();
        let end = started + Duration::from_secs_f64(seconds);
        let (samples, probe) = server.with_clients(|addr| {
            let samples: Vec<SessionSample> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..SHORT_WORKERS)
                    .map(|_| {
                        let (server, tally) = (&server, &tally);
                        s.spawn(move || {
                            short_worker(svc, server, addr, first, started, end, tally, tracer)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("session worker panicked"))
                    .collect()
            });
            // The probe borrows a user no session of this run will reach.
            let spare = svc.users.len() - 1;
            let probe = tracer.and_then(|_| wire_probe(svc, &server, addr, spare, &["ping"; 16]));
            (samples, probe)
        });
        server.flush_handler_spans(call_id);
        let lags: Vec<f64> = samples.iter().map(|s| s.lag_us).collect();
        let sessions = samples.len() as f64;
        let mut lat = Hist::default();
        for s in &samples {
            lat.record(s.latency_us);
        }
        let mut phase = Phase::new(tally, lat, started, cpu_before);
        phase.named = vec![
            ("session_p50_ms", "ms", phase.p50() / 1e3),
            ("session_p99_ms", "ms", phase.p99() / 1e3),
        ];
        if tracer.is_some() {
            cache_metrics(&mut phase, cache_before, svc.cache_stats(), sessions);
            let edges = server.grant_edges.lock().expect("grant list poisoned");
            phase
                .layer
                .insert("drbac.proof.edges_per_grant", crate::stats::mean(&edges));
            phase.layer.insert(
                "loadgen.lag_p99_ms",
                crate::stats::quantile(&lags, 0.99) / 1e3,
            );
            if let Some((frames, bytes)) = probe {
                phase.layer.insert("switchboard.frames_per_call", frames);
                phase.layer.insert("switchboard.wire_bytes_per_call", bytes);
            } else {
                phase
                    .errors
                    .push("wire probe never saw a heartbeat-free window".into());
                phase.failed += 1;
            }
        }
        phase
    }

    fn finish(&self, _svc: Service) -> Vec<String> {
        Vec::new()
    }
}

/// One open-loop worker: take the next due session, wait for its due
/// time, run it. Sessions are timed from when they were due.
#[allow(clippy::too_many_arguments)]
fn short_worker(
    svc: &Service,
    server: &Server<'_>,
    addr: &str,
    first: u64,
    started: Instant,
    end: Instant,
    tally: &Tally,
    tracer: Option<&Tracer>,
) -> Vec<SessionSample> {
    let mut out = Vec::new();
    loop {
        let k = svc.cursor.fetch_add(1, Ordering::SeqCst);
        let due = started + Duration::from_secs_f64((k - first) as f64 / SHORT_RATE_PER_S);
        if due >= end {
            break;
        }
        let user = k as usize;
        if user + 1 >= svc.users.len() {
            tally.fail("user population exhausted");
            break;
        }
        // A sleep wakes about 0.1 ms late; sleep to just short of the due
        // time and yield from there, so the generator's lag is not
        // charged to the session.
        let now = Instant::now();
        if due > now + WAKE_EARLY {
            std::thread::sleep(due - now - WAKE_EARLY);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let start = Instant::now();
        tally.attempt();
        match short_session(svc, server, addr, user, due, start, tracer) {
            Ok(done) => out.push(SessionSample {
                latency_us: (done - due).as_secs_f64() * 1e6,
                lag_us: (start - due).as_secs_f64() * 1e6,
            }),
            Err(e) => tally.fail(e),
        }
    }
    out
}

fn short_session(
    svc: &Service,
    server: &Server<'_>,
    addr: &str,
    user: usize,
    due: Instant,
    start: Instant,
    tracer: Option<&Tracer>,
) -> Result<Instant, String> {
    let req = user as u64;
    let view = svc.users[user].view;
    let c0 = Instant::now();
    let ch = connect_tcp(addr, &svc.suites[user], ChannelConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    let c1 = Instant::now();
    server.admissions.wait(user)?;
    let w1 = Instant::now();
    let mut rng = Rng::new(svc.seed, 1000 + req);
    let args = args_for(&mut rng, req);
    let r0 = Instant::now();
    let result = ch.call("ping", &args);
    let r1 = Instant::now();
    check_reply(result, view, "ping", &args)?;
    let x0 = Instant::now();
    ch.close();
    drop(ch);
    let done = Instant::now();
    if let Some(t) = tracer {
        let root = t.span("session", 0, req, t.at(due), t.at(done));
        t.span("loadgen.lag", root, req, t.at(due), t.at(start));
        t.span("switchboard.handshake", root, req, t.at(c0), t.at(c1));
        // The wait spans the server's admission (its own spans, recorded
        // under this root) plus the benchmark's server-to-client hand-off.
        t.span("bench.admission_wait", root, req, t.at(c1), t.at(w1));
        t.span_with_id(
            call_id(req),
            "switchboard.call",
            root,
            req,
            t.at(r0),
            t.at(r1),
        );
        t.span("switchboard.close", root, req, t.at(x0), t.at(done));
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: &str, inject_fault: bool) -> Config {
        Config {
            workload: workload.into(),
            seed: 3,
            seconds: 0.6,
            trace: true,
            inject_fault,
            run_dir: std::path::PathBuf::from(".bench_run/test"),
        }
    }

    #[test]
    fn views_answer_differently() {
        let a = [7u8; ARG_BYTES];
        assert_ne!(
            reply(ViewKind::Gold, "ping", &a),
            reply(ViewKind::Member, "ping", &a)
        );
        assert_eq!(reply(ViewKind::Gold, "fetch", &a).len(), FETCH_BYTES);
    }

    #[test]
    fn session_long_is_correct_and_catches_a_wrong_view() {
        let c = cfg("session_long", false);
        let m = crate::measure(&c, &SessionLong::new(&c));
        assert_eq!(m.failed(), 0, "{:?}", m.plain.errors);
        assert!(m.attempted() > 100);
        let c = cfg("session_long", true);
        let m = crate::measure(&c, &SessionLong::new(&c));
        assert!(
            m.failed() > 0,
            "serving the Gold view to a Member must fail"
        );
    }

    #[test]
    fn session_short_is_correct_and_catches_a_wrong_view() {
        let c = cfg("session_short", false);
        let m = crate::measure(&c, &SessionShort::new(&c));
        assert_eq!(m.failed(), 0, "{:?}", m.plain.errors);
        assert!(m.attempted() > 10);
        let c = cfg("session_short", true);
        let m = crate::measure(&c, &SessionShort::new(&c));
        assert!(m.failed() > 0, "serving the Gold view to Members must fail");
    }
}
