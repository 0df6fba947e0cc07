//! End-to-end durability tests for the crash-safe credential repository:
//! committed state surviving repeated reopen cycles, torn tails, partial
//! compactions, and epoch monotonicity across restarts — exercised
//! through the same public surfaces the Supervisor and `psf repo` use.

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::wal::{self, FsyncPolicy, ShardedDurableRepository, WalConfig};
use psf_drbac::DelegationBuilder;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "psf-durability-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn issue(dom: &Entity, user: &Entity, serial: u64) -> psf_drbac::SignedDelegation {
    DelegationBuilder::new(dom)
        .subject_entity(user)
        .role(dom.role("R"))
        .serial(serial)
        .sign()
}

/// Open `dir` as a one-shard durable directory (the plain single-log
/// store) under `config`.
fn open_one(dir: &Path, config: WalConfig) -> ShardedDurableRepository {
    ShardedDurableRepository::open(dir, 1, config).unwrap().0
}

/// The log of the one shard segment of a one-shard directory.
fn shard_log(dir: &Path) -> PathBuf {
    dir.join(wal::shard_dir_name(0)).join(wal::LOG_FILE)
}

/// Five open → publish → revoke → drop cycles; every cycle's committed
/// records are visible to the next, and the final read-only recovery sees
/// all of them.
#[test]
fn committed_state_survives_reopen_cycles() {
    let dir = tmpdir("cycles");
    let user = Entity::with_seed("User", b"durability");
    let dom = Entity::with_seed("Dom", b"durability");
    let mut revoked = Vec::new();
    for cycle in 0..5u64 {
        let (d, report) = ShardedDurableRepository::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!(
            d.repository().len(),
            (cycle * 10) as usize,
            "cycle {cycle} must see every earlier publish"
        );
        for i in 0..10u64 {
            let cred = issue(&dom, &user, cycle * 10 + i);
            if i == 0 {
                revoked.push(cred.id());
                d.repository().publish_at_issuer(cred);
                d.bus().revoke(revoked.last().unwrap());
            } else {
                d.repository().publish_at_issuer(cred);
            }
        }
        assert_eq!(report.revocations_restored as u64, cycle);
    }
    let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
    assert_eq!(repo.len(), 50);
    assert_eq!(bus.revoked_count(), 5);
    assert_eq!(report.truncated_bytes, 0);
    for id in &revoked {
        assert!(bus.is_revoked(id));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage appended after the last committed record (a torn final write)
/// is truncated on the next writable open; every committed record and the
/// resulting authorization decision survive.
#[test]
fn torn_tail_loses_no_committed_record() {
    let dir = tmpdir("torn");
    let user = Entity::with_seed("User", b"durability");
    let dom = Entity::with_seed("Dom", b"durability");
    {
        let d = open_one(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::EveryN(4),
                auto_compact_appends: None,
            },
        );
        for i in 0..17u64 {
            d.repository().publish_at_issuer(issue(&dom, &user, i));
        }
        d.sync().unwrap();
    }
    // Simulate a crash mid-append: a length prefix promising more bytes
    // than were ever written.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(shard_log(&dir))
        .unwrap();
    f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3])
        .unwrap();
    drop(f);

    let (d, report) = ShardedDurableRepository::open(&dir, 1, WalConfig::default()).unwrap();
    assert_eq!(report.publishes, 17);
    assert_eq!(report.truncated_bytes, 11);
    let registry = EntityRegistry::new();
    registry.register(&user);
    registry.register(&dom);
    let engine = ProofEngine::new(&registry, d.repository(), d.bus(), 0);
    assert!(engine.check(&user.as_subject(), &dom.role("R"), &[]));
    // The writable open physically dropped the tail.
    assert!(wal::verify_sharded_dir(&dir).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between snapshot rename and log truncation leaves the full log
/// alongside a snapshot that already contains it; recovery must
/// deduplicate rather than double-publish.
#[test]
fn interrupted_compaction_overlap_is_deduplicated() {
    let dir = tmpdir("overlap");
    let user = Entity::with_seed("User", b"durability");
    let dom = Entity::with_seed("Dom", b"durability");
    let pre_compact_log;
    {
        let d = open_one(&dir, WalConfig::default());
        for i in 0..12u64 {
            d.repository().publish_at_issuer(issue(&dom, &user, i));
        }
        d.bus().revoke(&issue(&dom, &user, 0).id());
        pre_compact_log = std::fs::read(shard_log(&dir)).unwrap();
        d.compact().unwrap();
    }
    // Put the pre-compaction log back: exactly the state left behind by a
    // crash after the snapshot rename but before the truncate.
    std::fs::write(shard_log(&dir), &pre_compact_log).unwrap();

    let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
    assert_eq!(report.snapshot_entries, 12);
    assert_eq!(report.duplicates_skipped, 12);
    assert_eq!(repo.len(), 12);
    assert_eq!(bus.revoked_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The repository epoch strictly increases across restarts, so any proof
/// cache keyed on a pre-crash epoch can never satisfy a post-crash query.
#[test]
fn epoch_is_strictly_monotonic_across_restarts() {
    let dir = tmpdir("epoch");
    let user = Entity::with_seed("User", b"durability");
    let dom = Entity::with_seed("Dom", b"durability");
    let mut last = 0u64;
    for i in 0..4u64 {
        let (d, report) = ShardedDurableRepository::open(&dir, 1, WalConfig::default()).unwrap();
        assert!(
            report.epoch > last || (i == 0 && report.epoch == last),
            "restart {i}: epoch {} must exceed pre-crash epoch {last}",
            report.epoch
        );
        d.repository().publish_at_issuer(issue(&dom, &user, i));
        last = d.repository().epoch();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Auto-compaction keeps every segment's log bounded while never losing
/// state: each segment compacts on its own append count, and
/// `ShardedWalStats` tracks the moving bytes.
#[test]
fn auto_compaction_preserves_state_and_bounds_log() {
    let dir = tmpdir("autocompact");
    let dom = Entity::with_seed("Dom", b"durability");
    let users: Vec<Entity> = (0..8)
        .map(|i| Entity::with_seed(format!("User{i}"), b"durability"))
        .collect();
    {
        let (d, _) = ShardedDurableRepository::open(
            &dir,
            4,
            WalConfig {
                fsync: FsyncPolicy::Never,
                auto_compact_appends: Some(8),
            },
        )
        .unwrap();
        for i in 0..100u64 {
            d.repository()
                .publish_at_issuer(issue(&dom, &users[i as usize % users.len()], i));
        }
        let stats = d.stats();
        assert!(
            stats.compactions >= 5,
            "expected compactions, got {stats:?}"
        );
        for (i, seg) in stats.shards.iter().enumerate() {
            // Each segment compacts at every 8th append of its own.
            assert_eq!(seg.compactions, seg.appends / 8, "shard {i}: {seg:?}");
            assert_eq!(seg.snapshot_bytes > 0, seg.compactions > 0, "shard {i}");
        }
    }
    let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
    assert_eq!(repo.len(), 100);
    assert_eq!(bus.revoked_count(), 0);
    assert!(report.snapshot_entries > 0, "snapshot must carry the bulk");
    let _ = std::fs::remove_dir_all(&dir);
}
