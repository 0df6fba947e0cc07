//! Online validity monitoring and revocation (paper §3.1, §4.3).
//!
//! A dRBAC credential "may additionally require online validation
//! monitoring from an authorized *home* which is aware of any revocation
//! of the delegation". The [`RevocationBus`] is that home's interface:
//! issuers revoke credential ids, and [`ValidityMonitor`]s — one per
//! outstanding proof — are notified the moment any credential they depend
//! on is revoked. Switchboard's `AuthorizationMonitor` (paper §4.3) is
//! built directly on this: a revocation mid-connection invalidates the
//! dRBAC proof and both endpoints are told to re-validate.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// A revocation notice delivered to monitors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationNotice {
    /// The id of the revoked credential.
    pub credential_id: String,
}

/// Callback observing fresh revocations (see [`RevocationBus::set_observer`]).
/// Invoked with the batch of *newly* revoked ids: a single-id slice per
/// [`RevocationBus::revoke`], the whole fresh set at once per
/// [`RevocationBus::revoke_all`] — so a bulk revoke fires one bounded
/// callback instead of one per credential.
pub type RevocationObserver = Arc<dyn Fn(&[String]) + Send + Sync>;

struct BusInner {
    revoked: Mutex<HashSet<String>>,
    // credential id → monitors watching it
    watchers: Mutex<HashMap<String, Vec<MonitorHandle>>>,
    // Fresh-revocation observer (durability layer); invoked outside locks.
    observer: Mutex<Option<RevocationObserver>>,
}

#[derive(Clone)]
struct MonitorHandle {
    valid: Arc<AtomicBool>,
    tx: Sender<RevocationNotice>,
}

/// The revocation "home": a broadcast bus connecting credential issuers to
/// validity monitors.
#[derive(Clone)]
pub struct RevocationBus {
    inner: Arc<BusInner>,
}

/// A handle that does not keep its [`RevocationBus`] alive: what an
/// observer registered on the bus holds to reach the bus again.
pub(crate) struct WeakRevocationBus(std::sync::Weak<BusInner>);

impl WeakRevocationBus {
    pub(crate) fn upgrade(&self) -> Option<RevocationBus> {
        self.0.upgrade().map(|inner| RevocationBus { inner })
    }
}

impl Default for RevocationBus {
    fn default() -> Self {
        Self::new()
    }
}

impl RevocationBus {
    /// New empty bus.
    pub fn new() -> RevocationBus {
        RevocationBus {
            inner: Arc::new(BusInner {
                revoked: Mutex::new(HashSet::new()),
                watchers: Mutex::new(HashMap::new()),
                observer: Mutex::new(None),
            }),
        }
    }

    /// Revoke a credential by id, waking every monitor that depends on it.
    pub fn revoke(&self, credential_id: &str) {
        psf_telemetry::counter!("psf.drbac.revocations").inc();
        let fresh = self.inner.revoked.lock().insert(credential_id.to_string());
        let watchers = {
            let mut map = self.inner.watchers.lock();
            map.remove(credential_id).unwrap_or_default()
        };
        let woken = watchers.len();
        for w in watchers {
            w.valid.store(false, Ordering::SeqCst);
            let _ = w.tx.send(RevocationNotice {
                credential_id: credential_id.to_string(),
            });
        }
        if fresh {
            let observer = self.inner.observer.lock().clone();
            if let Some(obs) = observer {
                let batch = [credential_id.to_string()];
                obs(&batch);
            }
        }
        psf_telemetry::audit::record(
            psf_telemetry::Decision::Revocation,
            "",
            credential_id,
            psf_telemetry::Verdict::Revoked,
        )
        .detail(format!("{woken} monitor(s) invalidated"))
        .commit();
    }

    /// Install (or clear) the fresh-revocation observer. The callback
    /// fires once per *newly* revoked id (duplicate revokes are silent),
    /// outside all bus locks. The durability layer ([`crate::wal`]) uses
    /// this to append `Revoke` records for revocations issued anywhere in
    /// the stack — deployer rollbacks, supervisor teardowns, guards.
    pub fn set_observer(&self, observer: Option<RevocationObserver>) {
        *self.inner.observer.lock() = observer;
    }

    /// A non-owning handle to this bus (see [`WeakRevocationBus`]).
    pub(crate) fn downgrade(&self) -> WeakRevocationBus {
        WeakRevocationBus(Arc::downgrade(&self.inner))
    }

    /// Snapshot of every revoked credential id, sorted (deterministic for
    /// snapshots and tests). This is the drain side of the recovery API:
    /// WAL compaction persists it so revocations outlive log truncation.
    pub fn revoked_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.inner.revoked.lock().iter().cloned().collect();
        ids.sort();
        ids
    }

    /// Re-seed the bus from a recovered revocation set: every id is
    /// marked revoked and any monitor already watching it is invalidated
    /// (re-broadcast), but the observer is *not* notified — restore is
    /// how the durability layer replays its own log, and echoing the
    /// records back would double-append them. The `psf.drbac.revocations`
    /// counter advances by the number of newly restored ids, so the
    /// metric survives restarts instead of resetting to zero. Returns
    /// that count.
    pub fn restore<I, S>(&self, credential_ids: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut fresh = 0usize;
        for id in credential_ids {
            let id = id.as_ref();
            if !self.inner.revoked.lock().insert(id.to_string()) {
                continue;
            }
            fresh += 1;
            let watchers = {
                let mut map = self.inner.watchers.lock();
                map.remove(id).unwrap_or_default()
            };
            for w in watchers {
                w.valid.store(false, Ordering::SeqCst);
                let _ = w.tx.send(RevocationNotice {
                    credential_id: id.to_string(),
                });
            }
        }
        if fresh > 0 {
            psf_telemetry::counter!("psf.drbac.revocations").add(fresh as u64);
            psf_telemetry::audit::record(
                psf_telemetry::Decision::Revocation,
                "",
                "wal-recovery",
                psf_telemetry::Verdict::Revoked,
            )
            .detail(format!("{fresh} revocation(s) restored from durable log"))
            .commit();
        }
        fresh
    }

    /// Whether a credential id has been revoked.
    pub fn is_revoked(&self, credential_id: &str) -> bool {
        self.inner.revoked.lock().contains(credential_id)
    }

    /// Create a monitor over a set of credential ids (typically every
    /// credential in a proof). The monitor is immediately invalid if any
    /// id is already revoked.
    pub fn monitor<I: IntoIterator<Item = String>>(&self, credential_ids: I) -> ValidityMonitor {
        let (tx, rx) = unbounded();
        let valid = Arc::new(AtomicBool::new(true));
        let handle = MonitorHandle {
            valid: valid.clone(),
            tx,
        };
        let mut ids = Vec::new();
        {
            let revoked = self.inner.revoked.lock();
            let mut watchers = self.inner.watchers.lock();
            for id in credential_ids {
                if revoked.contains(&id) {
                    valid.store(false, Ordering::SeqCst);
                    let _ = handle.tx.send(RevocationNotice {
                        credential_id: id.clone(),
                    });
                } else {
                    watchers.entry(id.clone()).or_default().push(handle.clone());
                }
                ids.push(id);
            }
        }
        ValidityMonitor {
            valid,
            rx,
            ids,
            bus: Arc::downgrade(&self.inner),
        }
    }

    /// Number of registered monitor handles across all watched ids: one
    /// per (live monitor, unrevoked id it watches). Dropping a monitor
    /// removes its handles.
    pub fn watcher_count(&self) -> usize {
        self.inner.watchers.lock().values().map(Vec::len).sum()
    }

    /// Revoke a batch of credential ids (e.g. everything issued to a
    /// deployment being torn down or rolled back) as **one epoch**: one
    /// pass over the revoked set, one watcher-removal pass, one observer
    /// callback with the whole fresh batch, one audit record — a
    /// 10⁵-credential bulk revoke fires a bounded number of callbacks
    /// instead of one per credential. Returns the number of ids that were
    /// newly revoked.
    pub fn revoke_all<I, S>(&self, credential_ids: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let batch: Vec<String> = credential_ids
            .into_iter()
            .map(|s| s.as_ref().to_string())
            .collect();
        if batch.is_empty() {
            return 0;
        }
        psf_telemetry::counter!("psf.drbac.revocations").add(batch.len() as u64);
        let mut fresh_ids: Vec<String> = Vec::new();
        {
            let mut revoked = self.inner.revoked.lock();
            for id in &batch {
                if revoked.insert(id.clone()) {
                    fresh_ids.push(id.clone());
                }
            }
        }
        // One watcher pass for the whole batch; notices are sent after
        // the lock is released, like `revoke`.
        let mut woken: Vec<(String, MonitorHandle)> = Vec::new();
        {
            let mut map = self.inner.watchers.lock();
            for id in &batch {
                for w in map.remove(id).unwrap_or_default() {
                    woken.push((id.clone(), w));
                }
            }
        }
        let woken_count = woken.len();
        for (id, w) in woken {
            w.valid.store(false, Ordering::SeqCst);
            let _ = w.tx.send(RevocationNotice { credential_id: id });
        }
        if !fresh_ids.is_empty() {
            let observer = self.inner.observer.lock().clone();
            if let Some(obs) = observer {
                obs(&fresh_ids);
            }
        }
        psf_telemetry::audit::record(
            psf_telemetry::Decision::Revocation,
            "",
            "revoke-all",
            psf_telemetry::Verdict::Revoked,
        )
        .detail(format!(
            "{} id(s), {} fresh, {woken_count} monitor(s) invalidated",
            batch.len(),
            fresh_ids.len()
        ))
        .commit();
        fresh_ids.len()
    }

    /// Number of revoked credential ids.
    pub fn revoked_count(&self) -> usize {
        self.inner.revoked.lock().len()
    }
}

/// Watches the credentials underlying a proof; flips invalid (and delivers
/// a notice) the moment any of them is revoked. Dropping it unregisters
/// it from the bus, so a monitor over a never-revoked credential leaves
/// nothing behind.
pub struct ValidityMonitor {
    valid: Arc<AtomicBool>,
    rx: Receiver<RevocationNotice>,
    ids: Vec<String>,
    bus: Weak<BusInner>,
}

impl Drop for ValidityMonitor {
    fn drop(&mut self) {
        let Some(bus) = self.bus.upgrade() else {
            return;
        };
        let mut watchers = bus.watchers.lock();
        for id in &self.ids {
            if let Some(handles) = watchers.get_mut(id) {
                handles.retain(|h| !Arc::ptr_eq(&h.valid, &self.valid));
                if handles.is_empty() {
                    watchers.remove(id);
                }
            }
        }
    }
}

impl ValidityMonitor {
    /// Whether every watched credential is still valid.
    pub fn is_valid(&self) -> bool {
        self.valid.load(Ordering::SeqCst)
    }

    /// Non-blocking poll for a revocation notice.
    pub fn try_notice(&self) -> Option<RevocationNotice> {
        self.rx.try_recv().ok()
    }

    /// Block until a notice arrives or the timeout elapses.
    pub fn wait_notice(&self, timeout: std::time::Duration) -> Option<RevocationNotice> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// The credential ids this monitor covers.
    pub fn watched_ids(&self) -> &[String] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn revocation_flips_monitor() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["cred-a".to_string(), "cred-b".to_string()]);
        assert!(m.is_valid());
        bus.revoke("cred-b");
        assert!(!m.is_valid());
        let notice = m.try_notice().unwrap();
        assert_eq!(notice.credential_id, "cred-b");
    }

    #[test]
    fn unrelated_revocation_ignored() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["cred-a".to_string()]);
        bus.revoke("cred-zzz");
        assert!(m.is_valid());
        assert!(m.try_notice().is_none());
    }

    #[test]
    fn already_revoked_is_immediately_invalid() {
        let bus = RevocationBus::new();
        bus.revoke("cred-a");
        let m = bus.monitor(["cred-a".to_string()]);
        assert!(!m.is_valid());
        assert!(m.try_notice().is_some());
    }

    #[test]
    fn multiple_monitors_all_notified() {
        let bus = RevocationBus::new();
        let m1 = bus.monitor(["x".to_string()]);
        let m2 = bus.monitor(["x".to_string(), "y".to_string()]);
        bus.revoke("x");
        assert!(!m1.is_valid());
        assert!(!m2.is_valid());
    }

    #[test]
    fn cross_thread_notification() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["conn-cred".to_string()]);
        let bus2 = bus.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            bus2.revoke("conn-cred");
        });
        let notice = m.wait_notice(Duration::from_secs(5)).unwrap();
        assert_eq!(notice.credential_id, "conn-cred");
        t.join().unwrap();
    }

    #[test]
    fn revoke_all_batches_and_counts_fresh() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["a".to_string(), "b".to_string()]);
        bus.revoke("b");
        let fresh = bus.revoke_all(["a", "b", "c"]);
        assert_eq!(fresh, 2, "b was already revoked");
        assert!(!m.is_valid());
        assert!(bus.is_revoked("a") && bus.is_revoked("b") && bus.is_revoked("c"));
        assert_eq!(bus.revoked_count(), 3);
    }

    #[test]
    fn dropped_monitors_unregister() {
        let bus = RevocationBus::new();
        let keep = bus.monitor(["other".to_string()]);
        let baseline = bus.watcher_count();
        for _ in 0..1000 {
            let m = bus.monitor(["live".to_string(), "live".to_string(), "other".to_string()]);
            assert!(m.is_valid());
        }
        assert_eq!(bus.watcher_count(), baseline);
        assert!(keep.is_valid());
    }

    #[test]
    fn live_monitor_still_notified_beside_dropped_ones() {
        let bus = RevocationBus::new();
        let live = bus.monitor(["x".to_string()]);
        drop(bus.monitor(["x".to_string()]));
        bus.revoke("x");
        assert!(!live.is_valid());
        assert_eq!(live.try_notice().unwrap().credential_id, "x");
    }

    #[test]
    fn revocation_after_drop_wakes_nobody() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["x".to_string()]);
        let valid = m.valid.clone();
        drop(m);
        assert_eq!(bus.watcher_count(), 0);
        bus.revoke("x");
        assert!(valid.load(Ordering::SeqCst), "no handle was left to flip");
        assert_eq!(bus.watcher_count(), 0);
    }

    #[test]
    fn monitor_outliving_its_bus_drops_cleanly() {
        let m = RevocationBus::new().monitor(["x".to_string()]);
        assert!(m.is_valid());
        drop(m);
    }

    #[test]
    fn is_revoked_queryable() {
        let bus = RevocationBus::new();
        assert!(!bus.is_revoked("a"));
        bus.revoke("a");
        assert!(bus.is_revoked("a"));
        assert_eq!(bus.revoked_count(), 1);
    }
}
