//! `publish_revoke`: durable writes beside reads on one
//! `ShardedDurableRepository` under `FsyncPolicy::Always` (group commit),
//! so every acknowledged publish or revocation survives `kill -9`.
//!
//! * Writer (closed loop): publishes pre-signed delegations for new
//!   users; a seeded 1 in 8 of its operations revokes an earlier one.
//! * Reader (closed loop): re-authorizes recently published users with
//!   `select_view_cached` on a shared `AuthCache`.
//!
//! Oracle: a reader grant that began after a revocation was acknowledged
//! is a failure, as is any view other than the generator's; after the
//! run the directory is recovered and must hold every acknowledged
//! publish and revocation.

use crate::gen::{self, Grant, Graph, Rng, ViewKind};
use crate::stats::Hist;
use crate::trace::Tracer;
use crate::{Config, Phase, Tally, Workload};
use psf_drbac::{
    AuthCache, DiscoveryTag, EntityRegistry, FsyncPolicy, Repository, ShardedDurableRepository,
    WalConfig,
};
use psf_views::ViewAcl;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pre-signed grants per run. Past the end the writer re-publishes from
/// the start (an idempotent refresh that costs the same WAL append).
const POOL: usize = 24_000;
/// Users already in the directory when the run starts: set-up recovers
/// them by replaying the WAL.
const BASE: usize = 16_000;
const SHARDS: usize = 32;
/// One writer operation in this many is a revocation.
const REVOKE_ONE_IN: u64 = 8;
/// The reader re-authorizes one of the last this-many publishes.
const READ_WINDOW: u64 = 64;

const PENDING: u8 = 0;
const PUBLISHED: u8 = 1;
/// The revocation has been issued but not yet acknowledged.
const REVOKING: u8 = 2;
const REVOKED: u8 = 3;

static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);

pub struct PublishRevoke {
    graph: Graph,
    grants: Vec<Grant>,
    /// The users [`Workload::prepare`] lays down in the directory.
    base: Mutex<Vec<Grant>>,
    seed: u64,
    /// The durable directory the run writes to.
    dir: PathBuf,
}

impl PublishRevoke {
    /// Generate the inputs: the graph, the writer's pool and the base users.
    pub fn new(cfg: &Config) -> PublishRevoke {
        let graph = Graph::generate(cfg.seed);
        let mut grants = gen::grants(&graph, cfg.seed, POOL + BASE);
        let base = grants.split_off(POOL);
        let n = WORLD_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = cfg.run_dir.join(format!("wal-{}-{n}", std::process::id()));
        PublishRevoke {
            graph,
            grants,
            base: Mutex::new(base),
            seed: cfg.seed,
            dir,
        }
    }
}

impl Drop for PublishRevoke {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct World {
    durable: ShardedDurableRepository,
    registry: EntityRegistry,
    acl: ViewAcl,
    cache: AuthCache,
    /// Per grant: pending, published (acknowledged), revoking, or revoked
    /// (acknowledged).
    state: Vec<AtomicU8>,
    /// Publishes acknowledged so far (grant index = count % POOL).
    published: AtomicU64,
    writer_rng: Mutex<Rng>,
    reader_rng: Mutex<Rng>,
    skip_revocations: bool,
}

impl Drop for World {
    fn drop(&mut self) {
        // The logging observers hold the durable handle; detach them so
        // the segments close.
        self.durable.detach();
    }
}

impl Workload for PublishRevoke {
    type World = World;

    /// Lay down the directory set-up recovers: the graph plus `BASE`
    /// users, written unsynced and synced once.
    fn prepare(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let config = WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        };
        let (durable, _) = ShardedDurableRepository::open(&self.dir, SHARDS, config)
            .expect("create the WAL directory");
        self.graph.publish(durable.repository());
        for g in std::mem::take(&mut *self.base.lock().expect("base users poisoned")) {
            durable
                .repository()
                .publish(g.home, g.cred, DiscoveryTag::Both);
        }
        durable.sync().expect("sync the base WAL directory");
        durable.detach();
    }

    /// Recover the directory (replaying every segment) and open it for
    /// durable writes. Only the last set-up's world writes to it.
    fn setup(&self, cfg: &Config) -> World {
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            auto_compact_appends: None,
        };
        let (durable, report) = ShardedDurableRepository::open(&self.dir, SHARDS, config)
            .expect("open the WAL directory");
        assert_eq!(
            report.publishes + report.snapshot_entries,
            self.graph.edges.len() + BASE,
            "recovery must restore the graph and every base user"
        );
        let registry = EntityRegistry::new();
        self.graph.register(&registry);
        World {
            durable,
            registry,
            acl: crate::session::service_acl(&self.graph),
            cache: AuthCache::new(),
            state: (0..self.grants.len())
                .map(|_| AtomicU8::new(PENDING))
                .collect(),
            published: AtomicU64::new(0),
            writer_rng: Mutex::new(Rng::new(self.seed, 5)),
            reader_rng: Mutex::new(Rng::new(self.seed, 6)),
            skip_revocations: cfg.inject_fault,
        }
    }

    fn run(&self, w: &World, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let tally = Tally::default();
        let wal_before = w.durable.stats();
        let log_before = log_bytes(&w.durable);
        let cache_before = w.cache.stats();
        let cpu_before = crate::stats::cpu_time_us();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let (writer, reauth_us) = std::thread::scope(|s| {
            let writer = s.spawn(|| self.writer(w, deadline, &tally, tracer));
            let reader = s.spawn(|| self.reader(w, deadline, &tally, tracer));
            (
                writer.join().expect("writer panicked"),
                reader.join().expect("reader panicked"),
            )
        });
        // The reader's re-authorization is the primary operation: fsync
        // latency on a shared disk drifts too much between runs to bound
        // the writer's figures, which are reported under their own names.
        let wall = started.elapsed().as_secs_f64();
        let publishes = writer.publish_us.len() as f64;
        let mut phase = Phase::new(tally, reauth_us, started, cpu_before);
        phase.named = vec![
            ("publish_p50_us", "us", writer.publish_us.quantile(0.5)),
            ("publish_p99_us", "us", writer.publish_us.quantile(0.99)),
            ("publishes_per_s", "1/s", publishes / wall),
            ("reauth_p50_us", "us", phase.p50()),
            ("reauth_p99_us", "us", phase.p99()),
        ];
        if tracer.is_some() {
            let wal = w.durable.stats();
            let appends = (wal.appends - wal_before.appends) as f64;
            let fsyncs = (wal.fsyncs - wal_before.fsyncs) as f64;
            let bytes = (log_bytes(&w.durable) - log_before) as f64;
            let cache = w.cache.stats();
            let hits = (cache.proof_hits - cache_before.proof_hits) as f64;
            let lookups = hits + (cache.proof_misses - cache_before.proof_misses) as f64;
            let invalidations =
                (cache.proof_invalidations - cache_before.proof_invalidations) as f64;
            let layer = &mut phase.layer;
            layer.insert("drbac.wal.appends_per_fsync", appends / fsyncs.max(1.0));
            layer.insert("drbac.wal.bytes_per_record", bytes / appends.max(1.0));
            layer.insert("drbac.cache.proof_hit_ratio", hits / lookups.max(1.0));
            layer.insert("drbac.cache.proof_lookups", lookups);
            layer.insert(
                "drbac.cache.invalidations_per_revoke",
                invalidations / (writer.revokes as f64).max(1.0),
            );
        }
        phase
    }

    /// Recover the directory read-only and compare it with every
    /// acknowledged write.
    fn finish(&self, w: World) -> Vec<String> {
        let (repo, bus, _) = match Repository::recover_sharded(&self.dir) {
            Ok(r) => r,
            Err(e) => return vec![format!("recovery of {} failed: {e}", self.dir.display())],
        };
        let mut failures = Vec::new();
        for (g, state) in self.grants.iter().zip(&w.state) {
            let state = state.load(Ordering::SeqCst);
            if state == PENDING {
                continue;
            }
            if !repo
                .query_by_subject(&g.subject)
                .iter()
                .any(|c| c.id() == g.id)
            {
                failures.push(format!("acknowledged publish of {} lost", g.id));
            }
            if state == REVOKED && !bus.is_revoked(&g.id) {
                failures.push(format!("acknowledged revocation of {} lost", g.id));
            }
        }
        failures
    }
}

struct WriterOut {
    publish_us: Hist,
    revokes: u64,
}

/// Total bytes in the WAL segments (the logs only grow: no compaction).
fn log_bytes(durable: &ShardedDurableRepository) -> u64 {
    let s = durable.stats();
    s.shards.iter().map(|x| x.log_bytes).sum::<u64>() + s.bus.log_bytes
}

impl PublishRevoke {
    fn writer(
        &self,
        w: &World,
        deadline: Instant,
        tally: &Tally,
        tracer: Option<&Tracer>,
    ) -> WriterOut {
        let mut rng = w.writer_rng.lock().expect("writer rng poisoned").clone();
        let mut out = WriterOut {
            publish_us: Hist::default(),
            revokes: 0,
        };
        let mut req = 1u64 << 50 | w.published.load(Ordering::SeqCst) << 8;
        while Instant::now() < deadline {
            req += 1;
            let done = w.published.load(Ordering::SeqCst);
            let revoke = rng.below(REVOKE_ONE_IN) == 0 && done > 0;
            if revoke {
                let back = 1 + rng.below(32.min(done));
                let idx = ((done - back) % POOL as u64) as usize;
                if w.state[idx].load(Ordering::SeqCst) >= REVOKING {
                    continue;
                }
                tally.attempt();
                w.state[idx].store(REVOKING, Ordering::SeqCst);
                let t0 = Instant::now();
                if !w.skip_revocations {
                    w.durable.bus().revoke(&self.grants[idx].id);
                }
                let t1 = Instant::now();
                w.state[idx].store(REVOKED, Ordering::SeqCst);
                out.revokes += 1;
                if let Some(t) = tracer {
                    let root = t.span("revoke", 0, req, t.at(t0), t.now());
                    t.span("drbac.revocation.revoke", root, req, t.at(t0), t.at(t1));
                }
            } else {
                let idx = (done % POOL as u64) as usize;
                let g = &self.grants[idx];
                tally.attempt();
                let t0 = Instant::now();
                let cred = g.cred.clone();
                let p0 = Instant::now();
                w.durable
                    .repository()
                    .publish(g.home.clone(), cred, DiscoveryTag::Both);
                let p1 = Instant::now();
                // A revoked grant stays revoked when the pool wraps around.
                let _ = w.state[idx].compare_exchange(
                    PENDING,
                    PUBLISHED,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                w.published.fetch_add(1, Ordering::SeqCst);
                out.publish_us.record((p1 - t0).as_secs_f64() * 1e6);
                if let Some(t) = tracer {
                    let root = t.span("publish", 0, req, t.at(t0), t.now());
                    t.span("drbac.repository.publish", root, req, t.at(p0), t.at(p1));
                }
            }
        }
        *w.writer_rng.lock().expect("writer rng poisoned") = rng;
        out
    }

    fn reader(&self, w: &World, deadline: Instant, tally: &Tally, tracer: Option<&Tracer>) -> Hist {
        let mut rng = w.reader_rng.lock().expect("reader rng poisoned").clone();
        let mut lat = Hist::default();
        let mut req = 1u64 << 52 | w.published.load(Ordering::SeqCst) << 8;
        while Instant::now() < deadline {
            let done = w.published.load(Ordering::SeqCst);
            if done == 0 {
                std::thread::yield_now();
                continue;
            }
            req += 1;
            let back = rng.below(READ_WINDOW.min(done));
            let idx = ((done - 1 - back) % POOL as u64) as usize;
            let g = &self.grants[idx];
            let before = w.state[idx].load(Ordering::SeqCst);
            tally.attempt();
            let t0 = Instant::now();
            let granted = w.acl.select_view_cached(
                &g.subject,
                &[],
                &w.registry,
                w.durable.repository(),
                w.durable.bus(),
                0,
                &w.cache,
            );
            let t1 = Instant::now();
            let view = granted.and_then(|(name, _)| ViewKind::from_name(&name));
            let after = w.state[idx].load(Ordering::SeqCst);
            let ok = match (before, view) {
                (REVOKED, Some(ViewKind::Guest)) => true,
                (REVOKED, v) => {
                    tally.fail(format!(
                        "{} granted {v:?} after its revocation was acknowledged",
                        g.id
                    ));
                    false
                }
                (_, Some(v)) if v == g.view => true,
                // A revocation ran concurrently: either answer is right.
                (_, Some(ViewKind::Guest)) if after >= REVOKING => true,
                (_, v) => {
                    tally.fail(format!("{} granted {v:?}, expected {:?}", g.id, g.view));
                    false
                }
            };
            if ok {
                lat.record((t1 - t0).as_secs_f64() * 1e6);
            }
            if let Some(t) = tracer {
                let root = t.span("reauth", 0, req, t.at(t0), t.now());
                t.span("views.select_view", root, req, t.at(t0), t.at(t1));
            }
        }
        *w.reader_rng.lock().expect("reader rng poisoned") = rng;
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(inject_fault: bool) -> Config {
        Config {
            workload: "publish_revoke".into(),
            seed: 4,
            seconds: 0.6,
            trace: true,
            inject_fault,
            run_dir: std::path::PathBuf::from(".bench_run/test"),
        }
    }

    #[test]
    fn acknowledged_writes_survive_and_a_skipped_revocation_is_caught() {
        let c = cfg(false);
        let m = crate::measure(&c, &PublishRevoke::new(&c));
        assert_eq!(m.failed(), 0, "{:?} {:?}", m.plain.errors, m.post_failures);
        assert!(m.attempted() > 100);
        let c = cfg(true);
        let m = crate::measure(&c, &PublishRevoke::new(&c));
        assert!(
            m.failed() > 0,
            "a grant after an unrevoked 'revocation' must fail"
        );
    }
}
