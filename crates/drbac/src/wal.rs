//! Durable write-ahead log for the credential repository.
//!
//! The in-memory sharded [`Repository`] loses every published delegation —
//! and, worse, every revocation — on a crash: a restarted node would
//! silently re-trust revoked credentials. This module makes the trust
//! plane crash-safe, in the spirit of SAFE's durable linked-credential
//! store (Thummala & Chase): every repository mutation is appended to an
//! on-disk log *before* the caller regains control, and
//! [`ShardedDurableRepository::open`] replays the logs (plus the latest
//! snapshots) to rebuild the exact pre-crash authorization state.
//!
//! ## Layout
//!
//! A durable directory holds a checksummed `shards.meta` (the shard
//! count), one log segment per repository shard under `shard-NN/`, and a
//! `bus/` segment for revocations. A segment is a `delegations.wal` log
//! plus an optional `snapshot.bin`. A publish is appended only to its
//! subject's shard segment, so writers to different shards never share a
//! log mutex; recovery replays every segment in parallel. A one-shard
//! directory is the plain single-log store. The retired single-log layout
//! (a top-level `delegations.wal` or `snapshot.bin` without `shards.meta`)
//! is refused with [`std::io::ErrorKind::InvalidData`], never migrated.
//!
//! ## Record format
//!
//! A log is a sequence of self-delimiting frames:
//!
//! ```text
//! [u32 len][u32 crc32][payload]          len, crc little-endian
//! payload = [u64 epoch][u8 kind][body]   crc covers the whole payload
//! ```
//!
//! Kinds: `1` **Publish** (`u32`-prefixed home string, one tag byte,
//! credential in [`SignedDelegation::to_wire`] framing), `2` **Revoke**
//! (`u32`-prefixed credential id), `3` **PurgeExpired** (`u64` purge
//! time), `4` **RevokeBatch** (`u32` count, then that many
//! `u32`-prefixed credential ids — one frame for an entire
//! [`RevocationBus::revoke_all`] epoch), `5` **Withdraw** (`u32` count,
//! then that many 16-byte credential ids — one [`Repository::withdraw`]
//! in one shard, logged to that shard's segment). The epoch tag is the
//! repository's mutation epoch at append
//! time; recovery raises the rebuilt repository's epoch to the maximum
//! seen and then bumps it once more, so any negative proof-cache entry
//! pinned to a pre-crash epoch can never be mistaken for current.
//!
//! ## Torn writes, duplicates, ordering
//!
//! A crash mid-append leaves a torn tail. Recovery scans each log
//! front-to-back and stops at the first frame whose header, length, CRC,
//! or payload fails to decode; everything before is replayed, everything
//! after is truncated (physically, by [`ShardedDurableRepository::open`];
//! [`Repository::recover_sharded`] and [`verify_sharded_dir`] are
//! read-only and never modify the files). Replay is duplicate-tolerant —
//! a crash between snapshot rename and log truncation leaves both
//! covering the same records, and `(home, credential-id)` dedup makes the
//! overlap harmless — and out-of-order-revoke tolerant (a `Revoke` for an
//! id no segment publishes still lands in the bus). A `Withdraw` removes
//! its ids from the segment's shard and from the dedup set, so a snapshot
//! taken after it never holds them, a log replayed over an older snapshot
//! removes them again, and a later re-publish still applies.
//!
//! ## Snapshots & compaction
//!
//! Compaction works one segment at a time: it writes the segment's state
//! to `snapshot.tmp`, fsyncs, renames it over `snapshot.bin`, fsyncs the
//! directory, and only then truncates the segment's log. The snapshot
//! carries a trailing CRC32 over its entire contents; a corrupt snapshot
//! (torn rename on a filesystem without atomic rename durability) is
//! ignored at recovery and reported in the [`RecoveryReport`].
//!
//! ## Group commit
//!
//! Under [`FsyncPolicy::Always`] concurrent appenders to one segment share
//! an fsync. [`FsyncPolicy::EveryN`] / [`FsyncPolicy::Never`] batch frames
//! per segment in memory, so their loss window includes a process crash,
//! not just power loss — `sync()` flushes, and so does dropping the last
//! handle.

use crate::delegation::{CredentialId, SignedDelegation};
use crate::entity::EntityName;
use crate::repository::{DiscoveryTag, RepoEvent, Repository};
use crate::revocation::RevocationBus;
use crate::wire::Reader;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log file name inside a durable repository directory.
pub const LOG_FILE: &str = "delegations.wal";
/// Snapshot file name inside a durable repository directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary snapshot name (renamed over [`SNAPSHOT_FILE`] when complete).
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Shard-layout manifest inside a sharded durable directory.
pub const SHARD_META_FILE: &str = "shards.meta";
/// Revocation-bus segment directory inside a sharded durable directory.
pub const BUS_DIR: &str = "bus";

const SNAPSHOT_MAGIC: &[u8; 11] = b"PSF-SNAP-v1";
const SHARD_META_MAGIC: &[u8; 11] = b"PSF-SHRD-v1";
/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (a credential is ~200 bytes, so this is generous).
const MAX_RECORD_LEN: u32 = 1 << 24;

const KIND_PUBLISH: u8 = 1;
const KIND_REVOKE: u8 = 2;
const KIND_PURGE: u8 = 3;
const KIND_REVOKE_BATCH: u8 = 4;
const KIND_WITHDRAW: u8 = 5;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected 0xEDB88320) — table built at compile time so the
// log needs no external checksum crate.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A decoded log operation.
// Publish dominates real logs, so boxing its credential would add an
// allocation per replayed record to shrink the rare Revoke/Purge variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WalOp {
    /// A credential published at `home` with discovery tags `tag`.
    Publish {
        /// The home node the credential was stored at.
        home: EntityName,
        /// Its discovery tags.
        tag: DiscoveryTag,
        /// The credential itself.
        cred: SignedDelegation,
    },
    /// A credential id revoked.
    Revoke {
        /// The revoked credential id.
        id: String,
    },
    /// An expiry sweep at time `now`.
    PurgeExpired {
        /// The purge evaluation time.
        now: u64,
    },
    /// A bulk revocation epoch: every id revoked in one
    /// [`RevocationBus::revoke_all`] call, logged as a single frame.
    RevokeBatch {
        /// The revoked credential ids.
        ids: Vec<String>,
    },
    /// Credentials withdrawn from one shard by [`Repository::withdraw`].
    Withdraw {
        /// The withdrawn credential ids.
        ids: Vec<CredentialId>,
    },
}

/// Why a log record's payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RecordError {
    /// The payload ended inside a field.
    Truncated,
    /// A declared element count needs more bytes than the payload has
    /// left; rejected before anything is allocated for it.
    Oversized {
        /// Bytes the declared count needs at minimum.
        declared: u64,
        /// Bytes left in the payload.
        available: u64,
    },
    /// The kind byte names no record kind.
    UnknownKind(u8),
    /// A field is present but malformed.
    Malformed(String),
    /// Bytes are left after the record's last field.
    TrailingBytes,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "truncated record payload"),
            RecordError::Oversized {
                declared,
                available,
            } => write!(
                f,
                "declared count needs {declared} byte(s), {available} left"
            ),
            RecordError::UnknownKind(k) => write!(f, "unknown record kind {k}"),
            RecordError::Malformed(m) => f.write_str(m),
            RecordError::TrailingBytes => write!(f, "trailing bytes in record payload"),
        }
    }
}

impl From<crate::DrbacError> for RecordError {
    fn from(e: crate::DrbacError) -> RecordError {
        RecordError::Malformed(e.to_string())
    }
}

/// Read a `u32` element count and check that `count × min_size` bytes
/// are left before anything is allocated for the elements.
fn read_count(r: &mut Reader<'_>, min_size: u64) -> Result<usize, RecordError> {
    if r.remaining() < 4 {
        return Err(RecordError::Truncated);
    }
    let count = r.u32()?;
    let declared = u64::from(count) * min_size;
    let available = r.remaining() as u64;
    if declared > available {
        return Err(RecordError::Oversized {
            declared,
            available,
        });
    }
    Ok(count as usize)
}

/// One valid record found by [`scan_log`].
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// Byte offset of the record's frame header in the log.
    pub offset: u64,
    /// Repository epoch at append time.
    pub epoch: u64,
    /// The operation.
    pub op: WalOp,
}

/// Result of scanning a log image front-to-back.
#[derive(Debug)]
pub struct LogScan {
    /// Every record up to the first corruption (or the end).
    pub records: Vec<ScannedRecord>,
    /// Bytes covered by valid records; the log's recoverable prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (torn tail / corruption).
    pub truncated_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<String>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode a publish payload directly from borrowed parts — the hot path
/// for the sharded log, which must not deep-clone a signed credential per
/// append just to build a [`WalOp`].
fn encode_publish_payload(
    epoch: u64,
    home: &EntityName,
    tag: DiscoveryTag,
    cred: &SignedDelegation,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.push(KIND_PUBLISH);
    put_str(&mut out, &home.0);
    out.push(tag.to_byte());
    out.extend_from_slice(&cred.to_wire());
    out
}

fn encode_payload(epoch: u64, op: &WalOp) -> Vec<u8> {
    if let WalOp::Publish { home, tag, cred } = op {
        return encode_publish_payload(epoch, home, *tag, cred);
    }
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&epoch.to_le_bytes());
    match op {
        WalOp::Publish { .. } => unreachable!("handled above"),
        WalOp::Revoke { id } => {
            out.push(KIND_REVOKE);
            put_str(&mut out, id);
        }
        WalOp::PurgeExpired { now } => {
            out.push(KIND_PURGE);
            out.extend_from_slice(&now.to_le_bytes());
        }
        WalOp::RevokeBatch { ids } => {
            out.push(KIND_REVOKE_BATCH);
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                put_str(&mut out, id);
            }
        }
        WalOp::Withdraw { ids } => {
            out.push(KIND_WITHDRAW);
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                out.extend_from_slice(id.as_str().as_bytes());
            }
        }
    }
    out
}

/// Append the frame of a payload to `out`: `[u32 len][u32 crc][payload]`.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode one record payload (`[u64 epoch][u8 kind][body]`, the bytes a
/// frame's CRC covers) into its epoch tag and operation.
pub(crate) fn decode_record(payload: &[u8]) -> Result<(u64, WalOp), RecordError> {
    let mut r = Reader::new(payload);
    if r.remaining() < 9 {
        return Err(RecordError::Truncated);
    }
    let epoch = r.u64()?;
    let kind = r.u8()?;
    let op = match kind {
        KIND_PUBLISH => {
            let home = r.string()?;
            let tag = DiscoveryTag::from_byte(r.u8()?)
                .ok_or_else(|| RecordError::Malformed("bad discovery tag".into()))?;
            let cred = SignedDelegation::from_wire(&mut r)?;
            WalOp::Publish {
                home: EntityName(home),
                tag,
                cred,
            }
        }
        KIND_REVOKE => WalOp::Revoke { id: r.string()? },
        KIND_PURGE => WalOp::PurgeExpired { now: r.u64()? },
        KIND_REVOKE_BATCH => {
            // Each id carries at least its u32 length prefix.
            let n = read_count(&mut r, 4)?;
            if n > 1 << 20 {
                return Err(RecordError::Malformed(
                    "implausible revoke-batch count".into(),
                ));
            }
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.string()?);
            }
            WalOp::RevokeBatch { ids }
        }
        KIND_WITHDRAW => {
            let n = read_count(&mut r, 16)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let id = CredentialId::from_digits(r.bytes::<16>()?)
                    .ok_or_else(|| RecordError::Malformed("bad credential id".into()))?;
                ids.push(id);
            }
            WalOp::Withdraw { ids }
        }
        k => return Err(RecordError::UnknownKind(k)),
    };
    if !r.finished() {
        return Err(RecordError::TrailingBytes);
    }
    Ok((epoch, op))
}

/// Scan a log image front-to-back, stopping at the first frame whose
/// header, length, CRC, or payload fails to decode. Everything before the
/// stop point is returned as valid records; everything after is the torn
/// tail.
pub fn scan_log(buf: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut corruption = None;
    while pos < buf.len() {
        if pos + 8 > buf.len() {
            corruption = Some("truncated frame header".into());
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD_LEN {
            corruption = Some(format!("implausible record length {len}"));
            break;
        }
        let end = pos + 8 + len as usize;
        if end > buf.len() {
            corruption = Some("truncated record body".into());
            break;
        }
        let payload = &buf[pos + 8..end];
        if crc32(payload) != crc {
            corruption = Some(format!("checksum mismatch at offset {pos}"));
            break;
        }
        match decode_record(payload) {
            Ok((epoch, op)) => records.push(ScannedRecord {
                offset: pos as u64,
                epoch,
                op,
            }),
            Err(e) => {
                corruption = Some(format!("undecodable record at offset {pos}: {e}"));
                break;
            }
        }
        pos = end;
    }
    LogScan {
        valid_bytes: pos as u64,
        truncated_bytes: (buf.len() - pos) as u64,
        records,
        corruption,
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A decoded snapshot: the full repository + revocation state at the
/// moment of the last compaction.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Repository epoch when the snapshot was taken.
    pub epoch: u64,
    /// `(home, tag, credential)` entries, in compaction order.
    pub entries: Vec<(EntityName, DiscoveryTag, SignedDelegation)>,
    /// Revoked credential ids.
    pub revoked: Vec<String>,
}

fn encode_snapshot(
    epoch: u64,
    entries: &[(EntityName, DiscoveryTag, Arc<SignedDelegation>)],
    revoked: &[String],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (home, tag, cred) in entries {
        put_str(&mut out, &home.0);
        out.push(tag.to_byte());
        out.extend_from_slice(&cred.to_wire());
    }
    out.extend_from_slice(&(revoked.len() as u32).to_le_bytes());
    for id in revoked {
        put_str(&mut out, id);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_snapshot(buf: &[u8]) -> Result<Snapshot, String> {
    if buf.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err("snapshot too short".into());
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err("snapshot checksum mismatch".into());
    }
    if &body[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic".into());
    }
    let mut r = Reader::new(&body[SNAPSHOT_MAGIC.len()..]);
    let epoch = r.u64().map_err(|e| e.to_string())?;
    let n = r.u32().map_err(|e| e.to_string())? as usize;
    if n > 1 << 24 {
        return Err("implausible snapshot entry count".into());
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let home = r.string().map_err(|e| e.to_string())?;
        let tag = DiscoveryTag::from_byte(r.u8().map_err(|e| e.to_string())?)
            .ok_or_else(|| "bad discovery tag".to_string())?;
        let cred = SignedDelegation::from_wire(&mut r).map_err(|e| e.to_string())?;
        entries.push((EntityName(home), tag, cred));
    }
    let m = r.u32().map_err(|e| e.to_string())? as usize;
    if m > 1 << 24 {
        return Err("implausible snapshot revocation count".into());
    }
    let mut revoked = Vec::with_capacity(m);
    for _ in 0..m {
        revoked.push(r.string().map_err(|e| e.to_string())?);
    }
    if !r.finished() {
        return Err("trailing bytes in snapshot".into());
    }
    Ok(Snapshot {
        epoch,
        entries,
        revoked,
    })
}

enum SnapshotLoad {
    Missing,
    Corrupt(String),
    Loaded(Snapshot),
}

fn load_snapshot(path: &Path) -> std::io::Result<SnapshotLoad> {
    match std::fs::read(path) {
        Ok(buf) => Ok(match decode_snapshot(&buf) {
            Ok(s) => SnapshotLoad::Loaded(s),
            Err(e) => SnapshotLoad::Corrupt(e),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SnapshotLoad::Missing),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When segment logs are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: a record is durable before the mutating
    /// call returns. The only policy under which "committed" in the
    /// acceptance sense — survives `kill -9` — is guaranteed.
    Always,
    /// Buffer frames per segment and write + fsync every N appends:
    /// bounded loss window, much cheaper.
    EveryN(u32),
    /// Never fsync explicitly: frames are buffered per segment and handed
    /// to the OS in 64 KiB batches, which the OS flushes when it pleases.
    /// A process crash loses the buffered frames; power loss also loses
    /// whatever the OS had not yet written.
    Never,
}

/// Durability configuration for [`ShardedDurableRepository::open`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Fsync policy for log appends.
    pub fsync: FsyncPolicy,
    /// Compact (snapshot + truncate) automatically once this many records
    /// have been appended since the last compaction. `None` = manual
    /// compaction only.
    pub auto_compact_appends: Option<u64>,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            auto_compact_appends: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What recovery found and did.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Credentials restored from segment snapshots.
    pub snapshot_entries: usize,
    /// Revocations restored from segment snapshots.
    pub snapshot_revocations: usize,
    /// True when a segment's snapshot file existed but failed its
    /// checksum and was ignored (that segment's log alone was replayed).
    pub snapshot_corrupt: bool,
    /// Log records replayed (after the snapshots).
    pub records_replayed: usize,
    /// Publish records applied (excluding duplicates).
    pub publishes: usize,
    /// Revocations restored to the bus, across snapshot and log.
    pub revocations_restored: usize,
    /// PurgeExpired records re-applied.
    pub purges: usize,
    /// Withdraw records re-applied.
    pub withdrawals: usize,
    /// Publish records skipped because the same `(home, credential-id)`
    /// was already present (snapshot/log overlap after a crash between
    /// snapshot rename and log truncation).
    pub duplicates_skipped: usize,
    /// Torn-tail bytes discarded from the ends of the logs.
    pub truncated_bytes: u64,
    /// Valid log bytes retained.
    pub log_bytes: u64,
    /// The repository's epoch after recovery (max seen, plus one).
    pub epoch: u64,
}

/// What a compaction wrote and dropped.
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    /// Credentials written to the snapshot.
    pub snapshot_entries: usize,
    /// Revocation ids written to the snapshot.
    pub snapshot_revocations: usize,
    /// Log bytes truncated away.
    pub log_bytes_dropped: u64,
}

/// Read-only integrity report of one segment (see [`verify_sharded_dir`]).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Whether a snapshot file exists.
    pub snapshot_present: bool,
    /// Whether the snapshot failed its checksum.
    pub snapshot_corrupt: bool,
    /// Credentials in the snapshot (0 when absent/corrupt).
    pub snapshot_entries: usize,
    /// Revocation ids in the snapshot.
    pub snapshot_revocations: usize,
    /// Valid records in the log.
    pub log_records: usize,
    /// Bytes covered by valid records.
    pub valid_bytes: u64,
    /// Torn/corrupt bytes past the valid prefix.
    pub truncated_bytes: u64,
    /// Why the log scan stopped early, if it did.
    pub corruption: Option<String>,
}

impl VerifyReport {
    /// True when the segment recovers with zero data loss: no torn tail,
    /// no corrupt snapshot.
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes == 0 && !self.snapshot_corrupt
    }
}

impl RecoveryReport {
    /// Add one segment's report into a directory total; `epoch` keeps the
    /// maximum.
    fn absorb(&mut self, seg: &RecoveryReport) {
        self.snapshot_entries += seg.snapshot_entries;
        self.snapshot_revocations += seg.snapshot_revocations;
        self.snapshot_corrupt |= seg.snapshot_corrupt;
        self.records_replayed += seg.records_replayed;
        self.publishes += seg.publishes;
        self.revocations_restored += seg.revocations_restored;
        self.purges += seg.purges;
        self.withdrawals += seg.withdrawals;
        self.duplicates_skipped += seg.duplicates_skipped;
        self.truncated_bytes += seg.truncated_bytes;
        self.log_bytes += seg.log_bytes;
        self.epoch = self.epoch.max(seg.epoch);
    }
}

// ---------------------------------------------------------------------------
// Directory layout
// ---------------------------------------------------------------------------

/// Directory name of log-segment `i` inside a durable directory.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:02}")
}

/// Every segment directory of a `shards`-shard layout: the shard segments
/// in shard order, then the bus segment.
pub fn segment_dirs(dir: &Path, shards: usize) -> Vec<PathBuf> {
    (0..shards)
        .map(|i| dir.join(shard_dir_name(i)))
        .chain(std::iter::once(dir.join(BUS_DIR)))
        .collect()
}

fn write_shard_meta(dir: &Path, shards: usize) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(SHARD_META_MAGIC.len() + 8);
    out.extend_from_slice(SHARD_META_MAGIC);
    out.extend_from_slice(&(shards as u32).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join("shards.meta.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(SHARD_META_FILE))
}

/// The shard count recorded in `dir/shards.meta`, or `None` when `dir`
/// holds no durable repository yet. A directory in the retired
/// single-log layout is an error rather than an empty directory: opening
/// it fresh would silently drop its revocations.
fn read_shard_meta(dir: &Path) -> std::io::Result<Option<usize>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let buf = match std::fs::read(dir.join(SHARD_META_FILE)) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if dir.join(LOG_FILE).is_file() || dir.join(SNAPSHOT_FILE).is_file() {
                return Err(bad(format!(
                    "{}: single-log layout (top-level {LOG_FILE} or {SNAPSHOT_FILE} \
                     without {SHARD_META_FILE}) is no longer supported and is not migrated",
                    dir.display()
                )));
            }
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    if buf.len() != SHARD_META_MAGIC.len() + 8 {
        return Err(bad("shards.meta: wrong size".into()));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(bad("shards.meta: checksum mismatch".into()));
    }
    if &body[..SHARD_META_MAGIC.len()] != SHARD_META_MAGIC {
        return Err(bad("shards.meta: bad magic".into()));
    }
    let n = u32::from_le_bytes(body[SHARD_META_MAGIC.len()..].try_into().unwrap()) as usize;
    if n == 0 || n > 1024 || !n.is_power_of_two() {
        return Err(bad("shards.meta: implausible shard count".into()));
    }
    Ok(Some(n))
}

/// [`read_shard_meta`] for the read-only paths, which need an existing
/// directory.
fn require_shard_meta(dir: &Path) -> std::io::Result<usize> {
    read_shard_meta(dir)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "{}: no {SHARD_META_FILE}: not a durable repository directory",
                dir.display()
            ),
        )
    })
}

// ---------------------------------------------------------------------------
// Reading, verifying and replaying segments
// ---------------------------------------------------------------------------

/// A segment's snapshot and the scan of its log, read without modifying
/// either.
fn read_segment(seg_dir: &Path) -> std::io::Result<(SnapshotLoad, LogScan)> {
    let snapshot = load_snapshot(&seg_dir.join(SNAPSHOT_FILE))?;
    let log = match std::fs::read(seg_dir.join(LOG_FILE)) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok((snapshot, scan_log(&log)))
}

fn verify_segment(seg_dir: &Path) -> std::io::Result<VerifyReport> {
    let (snapshot, scan) = read_segment(seg_dir)?;
    let (snapshot_present, snapshot_corrupt, snapshot_entries, snapshot_revocations) =
        match snapshot {
            SnapshotLoad::Missing => (false, false, 0, 0),
            SnapshotLoad::Corrupt(_) => (true, true, 0, 0),
            SnapshotLoad::Loaded(s) => (true, false, s.entries.len(), s.revoked.len()),
        };
    Ok(VerifyReport {
        snapshot_present,
        snapshot_corrupt,
        snapshot_entries,
        snapshot_revocations,
        log_records: scan.records.len(),
        valid_bytes: scan.valid_bytes,
        truncated_bytes: scan.truncated_bytes,
        corruption: scan.corruption,
    })
}

/// Per-segment durability stats inside a [`ShardedWalStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSegmentStats {
    /// Records appended to this segment since open.
    pub appends: u64,
    /// Compactions of this segment since open.
    pub compactions: u64,
    /// Repository epoch at this segment's last compaction (0 = never).
    pub last_compact_epoch: u64,
    /// Current segment log size in bytes (excluding unflushed buffer).
    pub log_bytes: u64,
    /// Current segment snapshot size in bytes (0 when absent).
    pub snapshot_bytes: u64,
}

/// Live counters for a [`ShardedDurableRepository`].
#[derive(Debug, Clone, Default)]
pub struct ShardedWalStats {
    /// One row per repository shard segment, in shard order.
    pub shards: Vec<ShardSegmentStats>,
    /// The revocation-bus segment.
    pub bus: ShardSegmentStats,
    /// Total records appended since open (all segments).
    pub appends: u64,
    /// Explicit fsyncs issued since open (all segments).
    pub fsyncs: u64,
    /// Total compactions since open (all segments).
    pub compactions: u64,
}

/// Read-only integrity report over a durable directory.
#[derive(Debug, Clone)]
pub struct ShardedVerifyReport {
    /// Per-shard segment reports, in shard order.
    pub shards: Vec<VerifyReport>,
    /// The revocation-bus segment report.
    pub bus: VerifyReport,
}

impl ShardedVerifyReport {
    /// True when **every** segment recovers with zero data loss.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| s.is_clean()) && self.bus.is_clean()
    }

    /// Indices of shard segments that are damaged (torn tail or corrupt
    /// snapshot); `usize::MAX` marks the bus segment.
    pub fn damaged(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_clean())
            .map(|(i, _)| i)
            .collect();
        if !self.bus.is_clean() {
            out.push(usize::MAX);
        }
        out
    }
}

/// Read-only integrity check of every segment of a durable directory —
/// scans snapshots and logs without replaying or modifying anything.
/// Backs `psf repo --verify`.
pub fn verify_sharded_dir(dir: &Path) -> std::io::Result<ShardedVerifyReport> {
    let n = require_shard_meta(dir)?;
    let mut shards = segment_dirs(dir, n)
        .iter()
        .map(|d| verify_segment(d))
        .collect::<std::io::Result<Vec<_>>>()?;
    let bus = shards.pop().expect("the bus segment is listed last");
    Ok(ShardedVerifyReport { shards, bus })
}

/// Replay one segment into `repo`/`bus`: its snapshot, then its log. Each
/// record goes where its kind belongs, whichever segment holds it:
/// publishes route to their home shard by subject hash (same FNV, same
/// count — guaranteed by `shards.meta`), revocations to the bus, and
/// purges and withdrawals to `own_shards`, the shards this segment logs
/// for. A purge is replicated to every shard segment and applied
/// shard-locally, so it re-applies exactly once per shard regardless of
/// replay interleaving; a withdrawal is logged to its shard's segment
/// only, after the publishes it undoes. The returned report's `epoch` is
/// the highest epoch tag seen.
fn replay_segment(
    seg_dir: &Path,
    own_shards: std::ops::Range<usize>,
    repo: &Repository,
    bus: &RevocationBus,
) -> std::io::Result<RecoveryReport> {
    let mut out = RecoveryReport::default();
    // (home, credential-id) → expiry, for every pair currently applied —
    // dedup for snapshot/log overlap and replayed double-publishes. A
    // replayed purge or withdrawal *removes* its pairs, so a later
    // re-publish is applied rather than mistaken for a duplicate.
    let mut seen: HashMap<(String, CredentialId), Option<u64>> = HashMap::new();
    let (snapshot, scan) = read_segment(seg_dir)?;
    match snapshot {
        SnapshotLoad::Missing => {}
        SnapshotLoad::Corrupt(reason) => {
            out.snapshot_corrupt = true;
            psf_telemetry::audit::record(
                psf_telemetry::Decision::Revocation,
                "",
                "wal-snapshot",
                psf_telemetry::Verdict::Deny,
            )
            .detail(format!(
                "segment {} snapshot ignored: {reason}",
                seg_dir.display()
            ))
            .commit();
        }
        SnapshotLoad::Loaded(snap) => {
            out.epoch = snap.epoch;
            for (home, tag, cred) in snap.entries {
                seen.insert((home.0.clone(), cred.credential_id()), cred.body.expires);
                repo.publish(home, cred, tag);
                out.snapshot_entries += 1;
            }
            out.snapshot_revocations = snap.revoked.len();
            out.revocations_restored += bus.restore(&snap.revoked);
        }
    }
    for rec in &scan.records {
        out.epoch = out.epoch.max(rec.epoch);
        match &rec.op {
            WalOp::Publish { home, tag, cred } => {
                use std::collections::hash_map::Entry;
                match seen.entry((home.0.clone(), cred.credential_id())) {
                    Entry::Occupied(_) => out.duplicates_skipped += 1,
                    Entry::Vacant(v) => {
                        v.insert(cred.body.expires);
                        repo.publish(home.clone(), cred.clone(), *tag);
                        out.publishes += 1;
                    }
                }
            }
            WalOp::Revoke { id } => {
                out.revocations_restored += bus.restore([id.as_str()]);
            }
            WalOp::RevokeBatch { ids } => {
                out.revocations_restored += bus.restore(ids.iter().map(|s| s.as_str()));
            }
            WalOp::PurgeExpired { now } => {
                for shard in own_shards.clone() {
                    repo.purge_expired_shard(shard, *now);
                }
                out.purges += 1;
                seen.retain(|_, exp| exp.is_none_or(|e| *now < e));
            }
            WalOp::Withdraw { ids } => {
                for shard in own_shards.clone() {
                    repo.withdraw_ids_in_shard(shard, ids);
                }
                out.withdrawals += 1;
                seen.retain(|(_, id), _| !ids.contains(id));
            }
        }
    }
    out.records_replayed = scan.records.len();
    out.log_bytes = scan.valid_bytes;
    out.truncated_bytes = scan.truncated_bytes;
    Ok(out)
}

/// Replay every segment of a durable directory into `repo`/`bus` on a
/// worker pool (one credential set is wholly contained in one segment, so
/// segment replays are independent). Returns the aggregate report and the
/// per-segment reports (shard order, bus last).
fn replay_sharded(
    dir: &Path,
    shards: usize,
    repo: &Repository,
    bus: &RevocationBus,
) -> std::io::Result<(RecoveryReport, Vec<RecoveryReport>)> {
    use std::sync::atomic::AtomicUsize;
    let dirs = segment_dirs(dir, shards);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(dirs.len());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<std::io::Result<RecoveryReport>>>> =
        Mutex::new(dirs.iter().map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(seg_dir) = dirs.get(i) else { break };
                // Segment i logs purges and withdrawals for shard i; the
                // bus segment (i == shards) logs for none.
                let r = replay_segment(seg_dir, i..(i + 1).min(shards), repo, bus);
                results.lock()[i] = Some(r);
            });
        }
    });
    let outcomes = results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every segment visited exactly once"))
        .collect::<std::io::Result<Vec<_>>>()?;

    let mut report = RecoveryReport::default();
    for o in &outcomes {
        report.absorb(o);
    }
    // Epoch monotonicity across the crash: never below anything a cache
    // may have pinned, and strictly above it so stale negative entries die.
    repo.raise_epoch(report.epoch);
    report.epoch = repo.bump_epoch();
    psf_telemetry::counter!("psf.repo.wal.replays").add(report.records_replayed as u64);
    psf_telemetry::counter!("psf.repo.wal.truncated_bytes").add(report.truncated_bytes);
    Ok((report, outcomes))
}

impl Repository {
    /// Rebuild a repository (and its revocation bus) from a durable
    /// directory, read-only: every segment is scanned and replayed (in
    /// parallel) but never modified — a torn tail is skipped, not
    /// truncated. Use [`ShardedDurableRepository::open`] to recover *and*
    /// keep logging.
    pub fn recover_sharded(
        dir: &Path,
    ) -> std::io::Result<(Repository, RevocationBus, RecoveryReport)> {
        let shards = require_shard_meta(dir)?;
        let repo = Repository::with_shard_count(shards);
        let bus = RevocationBus::new();
        let (report, _) = replay_sharded(dir, shards, &repo, &bus)?;
        Ok((repo, bus, report))
    }
}

// ---------------------------------------------------------------------------
// Writable segments
// ---------------------------------------------------------------------------

/// Group-commit buffer threshold: under [`FsyncPolicy::Never`] a segment
/// buffers frames in memory and issues one `write(2)` per this many
/// bytes.
const GROUP_BUF_BYTES: usize = 64 * 1024;

struct SegmentWriter {
    file: File,
    /// Framed records not yet handed to the OS (group commit).
    buf: Vec<u8>,
    /// Records currently in `buf`.
    buffered: u32,
    /// Monotone count of records ever appended to this segment.
    gen: u64,
    appends_since_compact: u64,
}

impl SegmentWriter {
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
            self.buffered = 0;
        }
        Ok(())
    }
}

struct Segment {
    dir: PathBuf,
    writer: Mutex<SegmentWriter>,
    /// Second handle to the same log, used for group commit: fsyncs run
    /// on it OUTSIDE the writer lock, so appenders keep buffering while a
    /// sync is in flight and one fsync covers all of them.
    sync_file: Mutex<File>,
    /// Highest `gen` handed to the OS (write(2) completed).
    flushed_gen: AtomicU64,
    /// Highest `gen` known durable (covered by a completed fsync).
    synced_gen: AtomicU64,
    appends: AtomicU64,
    compactions: AtomicU64,
    last_compact_epoch: AtomicU64,
}

impl Segment {
    /// Open a segment for appending after `replay` scanned it, physically
    /// dropping any torn tail so appends start at a record boundary.
    fn open(dir: PathBuf, replay: &RecoveryReport) -> std::io::Result<Segment> {
        std::fs::create_dir_all(&dir)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOG_FILE))?;
        if replay.truncated_bytes > 0 {
            file.set_len(replay.log_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let sync_file = file.try_clone()?;
        Ok(Segment {
            dir,
            writer: Mutex::new(SegmentWriter {
                file,
                buf: Vec::new(),
                buffered: 0,
                gen: 0,
                appends_since_compact: 0,
            }),
            sync_file: Mutex::new(sync_file),
            flushed_gen: AtomicU64::new(0),
            synced_gen: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            last_compact_epoch: AtomicU64::new(0),
        })
    }

    /// Write `image` (taken at `epoch`) as the segment's snapshot (tmp +
    /// fsync + rename + dir fsync), then truncate the segment log. The
    /// caller holds the writer lock `w` so no append interleaves with the
    /// truncate. Returns the log bytes dropped.
    fn swap_snapshot(
        &self,
        w: &mut SegmentWriter,
        epoch: u64,
        image: &[u8],
    ) -> std::io::Result<u64> {
        w.flush()?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(image)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // directory entry durability (best effort)
        }
        let dropped = w.file.seek(SeekFrom::End(0))?;
        w.file.set_len(0)?;
        w.file.seek(SeekFrom::Start(0))?;
        w.file.sync_data()?;
        w.appends_since_compact = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.last_compact_epoch.store(epoch, Ordering::Relaxed);
        psf_telemetry::counter!("psf.repo.wal.snapshot").inc();
        Ok(dropped)
    }

    fn stats(&self) -> ShardSegmentStats {
        let size = |name: &str| {
            std::fs::metadata(self.dir.join(name))
                .map(|m| m.len())
                .unwrap_or(0)
        };
        ShardSegmentStats {
            appends: self.appends.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            last_compact_epoch: self.last_compact_epoch.load(Ordering::Relaxed),
            log_bytes: size(LOG_FILE),
            snapshot_bytes: size(SNAPSHOT_FILE),
        }
    }
}

struct ShardedWalInner {
    dir: PathBuf,
    config: WalConfig,
    segments: Vec<Segment>,
    bus_segment: Segment,
    fsyncs: AtomicU64,
}

impl ShardedWalInner {
    /// Every segment: shards in order, then the bus.
    fn all_segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments
            .iter()
            .chain(std::iter::once(&self.bus_segment))
    }

    /// Append one payload to a segment under group commit. Returns true
    /// when the segment crossed its auto-compaction threshold.
    fn append(&self, seg: &Segment, payload: &[u8]) -> std::io::Result<bool> {
        let mut w = seg.writer.lock();
        put_frame(&mut w.buf, payload);
        w.buffered += 1;
        w.gen += 1;
        let my_gen = w.gen;
        seg.appends.fetch_add(1, Ordering::Relaxed);
        psf_telemetry::counter!("psf.repo.wal.appends").inc();
        let mut needs_sync = false;
        match self.config.fsync {
            FsyncPolicy::Always => {
                // Hand the frame to the OS under the writer lock, then
                // fsync OUTSIDE it (group commit): the sync runs on a
                // second handle so appenders that arrive while it is in
                // flight keep buffering and share the next fsync instead
                // of each paying their own. Per-record durability is
                // unchanged — we do not return until an fsync issued
                // after our write(2) has completed.
                w.flush()?;
                seg.flushed_gen.fetch_max(my_gen, Ordering::Release);
                needs_sync = true;
            }
            FsyncPolicy::EveryN(n) => {
                if w.buffered >= n.max(1) {
                    w.flush()?;
                    w.file.sync_data()?;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    psf_telemetry::counter!("psf.repo.wal.fsyncs").inc();
                }
            }
            FsyncPolicy::Never => {
                if w.buf.len() >= GROUP_BUF_BYTES {
                    w.flush()?;
                }
            }
        }
        w.appends_since_compact += 1;
        let compact = match self.config.auto_compact_appends {
            Some(n) if n > 0 => w.appends_since_compact >= n,
            _ => false,
        };
        drop(w);
        if needs_sync {
            self.group_sync(seg, my_gen)?;
        }
        Ok(compact)
    }

    /// Wait until an fsync covering `my_gen` has completed, running one
    /// ourselves if nobody else's covers us. Only one thread syncs a
    /// segment at a time; the threads queued behind it recheck on wake
    /// and usually find a single follow-up fsync covers the whole batch.
    fn group_sync(&self, seg: &Segment, my_gen: u64) -> std::io::Result<()> {
        loop {
            if seg.synced_gen.load(Ordering::Acquire) >= my_gen {
                return Ok(());
            }
            let f = seg.sync_file.lock();
            if seg.synced_gen.load(Ordering::Acquire) >= my_gen {
                return Ok(());
            }
            // Everything flushed up to here is made durable by this one
            // fsync; `my_gen` was flushed before we were called, so
            // `cover >= my_gen` and the next loop iteration exits.
            let cover = seg.flushed_gen.load(Ordering::Acquire);
            f.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            psf_telemetry::counter!("psf.repo.wal.fsyncs").inc();
            seg.synced_gen.fetch_max(cover, Ordering::AcqRel);
        }
    }

    /// Append `payload` to `seg`, running `compact` when the segment
    /// crosses its auto-compaction threshold. The in-memory mutation has
    /// already happened, so a failure can only be surfaced loudly: it is
    /// counted and audit-logged.
    fn log(
        &self,
        seg: &Segment,
        payload: &[u8],
        compact: impl FnOnce() -> std::io::Result<CompactReport>,
    ) {
        let (stage, result) = match self.append(seg, payload) {
            Ok(false) => return,
            Ok(true) => ("compact", compact().map(drop)),
            Err(e) => ("append", Err(e)),
        };
        if let Err(e) = result {
            psf_telemetry::counter!("psf.repo.wal.errors").inc();
            psf_telemetry::audit::record(
                psf_telemetry::Decision::Revocation,
                "",
                format!("wal-{stage}"),
                psf_telemetry::Verdict::Deny,
            )
            .detail(format!("segment {} {stage} failed: {e}", seg.dir.display()))
            .commit();
        }
    }

    /// Compact one shard segment: snapshot that shard's credentials and
    /// truncate its log. Other segments' writers are untouched.
    fn compact_shard(&self, repo: &Repository, shard: usize) -> std::io::Result<CompactReport> {
        let seg = &self.segments[shard];
        let mut w = seg.writer.lock();
        let entries = repo.snapshot_shard(shard);
        let epoch = repo.epoch();
        let dropped = seg.swap_snapshot(&mut w, epoch, &encode_snapshot(epoch, &entries, &[]))?;
        Ok(CompactReport {
            snapshot_entries: entries.len(),
            snapshot_revocations: 0,
            log_bytes_dropped: dropped,
        })
    }

    /// Compact the bus segment: snapshot the revoked-id set (tagged with
    /// the repository epoch `epoch`) and truncate the bus log.
    fn compact_bus(&self, epoch: u64, bus: &RevocationBus) -> std::io::Result<CompactReport> {
        let seg = &self.bus_segment;
        let mut w = seg.writer.lock();
        let revoked = bus.revoked_ids();
        let dropped = seg.swap_snapshot(&mut w, epoch, &encode_snapshot(epoch, &[], &revoked))?;
        Ok(CompactReport {
            snapshot_entries: 0,
            snapshot_revocations: revoked.len(),
            log_bytes_dropped: dropped,
        })
    }
}

impl Drop for ShardedWalInner {
    fn drop(&mut self) {
        // Best-effort flush of group-commit buffers on clean shutdown;
        // a real crash loses them by design (see FsyncPolicy docs).
        for seg in self.all_segments() {
            let _ = seg.writer.lock().flush();
        }
    }
}

// ---------------------------------------------------------------------------
// ShardedDurableRepository
// ---------------------------------------------------------------------------

/// A sharded [`Repository`] + [`RevocationBus`] pair whose every mutation
/// is appended to a per-shard crash-safe write-ahead log (see the module
/// docs). The repository and bus are the ordinary in-memory types —
/// guards, deployers, supervisors and proof engines use them unchanged;
/// durability rides on their observer hooks. Publishes log to their
/// subject's shard segment only; revocations log to the bus segment (bulk
/// revokes as one [`WalOp::RevokeBatch`] frame); purges are replicated to
/// every shard segment and re-applied shard-locally at recovery;
/// withdrawals log to their shard's segment as one [`WalOp::Withdraw`]
/// frame per shard.
#[derive(Clone)]
pub struct ShardedDurableRepository {
    repo: Repository,
    bus: RevocationBus,
    inner: Arc<ShardedWalInner>,
}

impl ShardedDurableRepository {
    /// Open (or create) a durable directory with `shards` segments
    /// (rounded up to a power of two, clamped to `1..=1024`; an existing
    /// directory's `shards.meta` takes precedence — the layout on disk is
    /// authoritative). Replays every segment (in parallel), truncates torn
    /// tails, then attaches logging observers. A directory in the retired
    /// single-log layout fails with [`std::io::ErrorKind::InvalidData`].
    pub fn open(
        dir: &Path,
        shards: usize,
        config: WalConfig,
    ) -> std::io::Result<(ShardedDurableRepository, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let n = match read_shard_meta(dir)? {
            Some(n) => n,
            None => {
                let n = shards.clamp(1, 1024).next_power_of_two();
                write_shard_meta(dir, n)?;
                n
            }
        };
        let repo = Repository::with_shard_count(n);
        debug_assert_eq!(repo.shard_count(), n);
        let bus = RevocationBus::new();
        let (report, outcomes) = replay_sharded(dir, n, &repo, &bus)?;

        let mut segments = segment_dirs(dir, n)
            .into_iter()
            .zip(&outcomes)
            .map(|(seg_dir, replay)| Segment::open(seg_dir, replay))
            .collect::<std::io::Result<Vec<_>>>()?;
        let bus_segment = segments.pop().expect("the bus segment is listed last");
        let inner = Arc::new(ShardedWalInner {
            dir: dir.to_path_buf(),
            config,
            segments,
            bus_segment,
            fsyncs: AtomicU64::new(0),
        });

        // Attach observers only now — replay must not re-log itself. The
        // repository and bus own their observers, so an observer reaches
        // the object it is registered on through a weak handle: a strong
        // one would be a cycle, and the last handle's drop would never
        // flush the group-commit buffers. The bus observer holds the
        // repository (for its epoch) strongly; nothing the repository
        // owns holds the bus, so that is no cycle.
        let (wal, weak_repo) = (inner.clone(), repo.downgrade());
        repo.set_observer(Some(Arc::new(move |ev: RepoEvent<'_>| {
            let Some(repo) = weak_repo.upgrade() else {
                return;
            };
            match ev {
                RepoEvent::Published { home, cred, tag } => {
                    let skey = crate::repository::subject_key(&cred.body.subject);
                    let shard = repo.shard_index(&skey);
                    let payload = encode_publish_payload(repo.epoch(), home, tag, cred);
                    wal.log(&wal.segments[shard], &payload, || {
                        wal.compact_shard(&repo, shard)
                    });
                }
                RepoEvent::PurgedExpired { now, .. } => {
                    // Replicated to every shard: each segment must know to
                    // re-apply the purge to its own credentials at replay.
                    let payload = encode_payload(repo.epoch(), &WalOp::PurgeExpired { now });
                    for (shard, seg) in wal.segments.iter().enumerate() {
                        wal.log(seg, &payload, || wal.compact_shard(&repo, shard));
                    }
                }
                RepoEvent::Withdrawn { shard, ids } => {
                    let op = WalOp::Withdraw { ids: ids.to_vec() };
                    let payload = encode_payload(repo.epoch(), &op);
                    wal.log(&wal.segments[shard], &payload, || {
                        wal.compact_shard(&repo, shard)
                    });
                }
            }
        })));
        let (wal, epoch_repo, weak_bus) = (inner.clone(), repo.clone(), bus.downgrade());
        bus.set_observer(Some(Arc::new(move |ids: &[String]| {
            let Some(bus) = weak_bus.upgrade() else {
                return;
            };
            let epoch = epoch_repo.epoch();
            let payload = match ids {
                [id] => encode_payload(epoch, &WalOp::Revoke { id: id.clone() }),
                many => encode_payload(epoch, &WalOp::RevokeBatch { ids: many.to_vec() }),
            };
            wal.log(&wal.bus_segment, &payload, || {
                wal.compact_bus(epoch_repo.epoch(), &bus)
            });
        })));
        Ok((ShardedDurableRepository { repo, bus, inner }, report))
    }

    /// The in-memory sharded repository (shared handle). Mutations
    /// through it are logged transparently.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The revocation bus (shared handle). Revocations through it are
    /// logged transparently.
    pub fn bus(&self) -> &RevocationBus {
        &self.bus
    }

    /// The durable directory this repository logs to.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Flush every segment's group-commit buffer and fsync, regardless of
    /// policy.
    pub fn sync(&self) -> std::io::Result<()> {
        for seg in self.inner.all_segments() {
            let mut w = seg.writer.lock();
            w.flush()?;
            let gen = w.gen;
            seg.flushed_gen.fetch_max(gen, Ordering::Release);
            w.file.sync_data()?;
            seg.synced_gen.fetch_max(gen, Ordering::AcqRel);
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
            psf_telemetry::counter!("psf.repo.wal.fsyncs").inc();
        }
        Ok(())
    }

    /// Compact one shard segment: snapshot that shard's credentials,
    /// rename over its `snapshot.bin`, truncate its log. Other shards'
    /// writers are untouched.
    pub fn compact_shard(&self, shard: usize) -> std::io::Result<CompactReport> {
        self.inner.compact_shard(&self.repo, shard)
    }

    /// Compact the revocation-bus segment: snapshot the revoked-id set,
    /// truncate the bus log.
    pub fn compact_bus(&self) -> std::io::Result<CompactReport> {
        self.inner.compact_bus(self.repo.epoch(), &self.bus)
    }

    /// Compact every shard segment and the bus segment. Returns the
    /// aggregate report.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let mut total = CompactReport {
            snapshot_entries: 0,
            snapshot_revocations: 0,
            log_bytes_dropped: 0,
        };
        for shard in 0..self.inner.segments.len() {
            let r = self.compact_shard(shard)?;
            total.snapshot_entries += r.snapshot_entries;
            total.log_bytes_dropped += r.log_bytes_dropped;
        }
        let r = self.compact_bus()?;
        total.snapshot_revocations = r.snapshot_revocations;
        total.log_bytes_dropped += r.log_bytes_dropped;
        Ok(total)
    }

    /// Live durability counters: per-segment rows plus totals.
    pub fn stats(&self) -> ShardedWalStats {
        let shards: Vec<ShardSegmentStats> =
            self.inner.segments.iter().map(Segment::stats).collect();
        let bus = self.inner.bus_segment.stats();
        ShardedWalStats {
            appends: shards.iter().map(|s| s.appends).sum::<u64>() + bus.appends,
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            compactions: shards.iter().map(|s| s.compactions).sum::<u64>() + bus.compactions,
            shards,
            bus,
        }
    }

    /// Detach the logging observers (used by tests simulating a crash:
    /// the files stay as-is, the in-memory halves keep working unlogged).
    /// Group-commit buffers are **not** flushed while a handle is alive —
    /// that is the point of a simulated crash.
    pub fn detach(&self) {
        self.repo.set_observer(None);
        self.bus.set_observer(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "psf-wal-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cred(issuer: &Entity, subject: &Entity, role: &str) -> SignedDelegation {
        DelegationBuilder::new(issuer)
            .subject_entity(subject)
            .role(issuer.role(role))
            .sign()
    }

    fn repo_fingerprint(repo: &Repository) -> Vec<String> {
        repo.all_credentials().iter().map(|c| c.id()).collect()
    }

    /// Open `dir` as a one-shard durable directory at the default policy.
    fn open_one(dir: &Path) -> (ShardedDurableRepository, RecoveryReport) {
        ShardedDurableRepository::open(dir, 1, WalConfig::default()).unwrap()
    }

    /// The log of shard segment `shard`.
    fn shard_log(dir: &Path, shard: usize) -> PathBuf {
        dir.join(shard_dir_name(shard)).join(LOG_FILE)
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let ops = [
            WalOp::Publish {
                home: ny.name.clone(),
                tag: DiscoveryTag::Both,
                cred: cred(&ny, &alice, "Member"),
            },
            WalOp::Revoke {
                id: "abc123".into(),
            },
            WalOp::PurgeExpired { now: 42 },
        ];
        let mut log = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            put_frame(&mut log, &encode_payload(i as u64 + 7, op));
        }
        let scan = scan_log(&log);
        assert!(scan.corruption.is_none());
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records[0].epoch, 7);
        assert!(matches!(scan.records[1].op, WalOp::Revoke { ref id } if id == "abc123"));
        assert!(matches!(
            scan.records[2].op,
            WalOp::PurgeExpired { now: 42 }
        ));
    }

    #[test]
    fn empty_log_recovers_empty() {
        let dir = tmpdir("empty");
        let (_, report) = open_one(&dir);
        assert_eq!(report.records_replayed, 0);
        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert!(repo.is_empty());
        assert_eq!(bus.revoked_count(), 0);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn publish_revoke_survive_reopen() {
        let dir = tmpdir("reopen");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let c = cred(&ny, &alice, "Member");
        let id = c.id();
        {
            let (d, _) = open_one(&dir);
            d.repository().publish_at_issuer(c.clone());
            d.bus().revoke(&id);
            d.detach(); // simulate crash
        }
        let (d2, report) = open_one(&dir);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.publishes, 1);
        assert_eq!(report.revocations_restored, 1);
        assert_eq!(d2.repository().len(), 1);
        assert!(d2.bus().is_revoked(&id));
        let found = d2.repository().query_by_subject(&alice.as_subject());
        assert_eq!(found.len(), 1);
        assert_eq!(**found.first().unwrap(), c);
    }

    #[test]
    fn torn_tail_truncated_committed_prefix_survives() {
        let dir = tmpdir("torn");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let bob = Entity::with_seed("Bob", b"wal");
        {
            let (d, _) = open_one(&dir);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.repository().publish_at_issuer(cred(&ny, &bob, "Member"));
        }
        // Tear the log mid-record: append a partial frame.
        let log = shard_log(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0x44, 0x01, 0x00, 0x00, 0xde, 0xad]).unwrap();
        drop(f);
        let before = std::fs::metadata(&log).unwrap().len();

        let (d2, report) = open_one(&dir);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.truncated_bytes, 6);
        assert_eq!(d2.repository().len(), 2);
        // The torn tail was physically removed.
        let after = std::fs::metadata(&log).unwrap().len();
        assert_eq!(after, before - 6);
    }

    #[test]
    fn corrupt_record_stops_scan_at_checksum() {
        let dir = tmpdir("corrupt");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let bob = Entity::with_seed("Bob", b"wal");
        {
            let (d, _) = open_one(&dir);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.repository().publish_at_issuer(cred(&ny, &bob, "Member"));
            d.repository().publish_at_issuer(cred(&ny, &bob, "Partner"));
        }
        let log = shard_log(&dir, 0);
        let mut image = std::fs::read(&log).unwrap();
        let scan = scan_log(&image);
        assert_eq!(scan.records.len(), 3);
        // Flip one payload byte inside the second record.
        let off = scan.records[1].offset as usize + 12;
        image[off] ^= 0xff;
        std::fs::write(&log, &image).unwrap();

        let verify = verify_sharded_dir(&dir).unwrap();
        assert!(!verify.is_clean());
        assert_eq!(verify.damaged(), vec![0]);
        let shard = &verify.shards[0];
        assert_eq!(shard.log_records, 1);
        assert!(shard.truncated_bytes > 0);
        assert!(shard.corruption.as_deref().unwrap().contains("checksum"));

        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(repo.len(), 1);
        // recover_sharded() is read-only: the corrupt image is untouched.
        assert_eq!(std::fs::read(&log).unwrap(), image);
    }

    #[test]
    fn snapshot_plus_tail_replay() {
        let dir = tmpdir("snap");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let bob = Entity::with_seed("Bob", b"wal");
        let carol = Entity::with_seed("Carol", b"wal");
        let c_alice = cred(&ny, &alice, "Member");
        let revoked_id;
        {
            let (d, _) = open_one(&dir);
            d.repository().publish_at_issuer(c_alice.clone());
            let c_bob = cred(&ny, &bob, "Member");
            revoked_id = c_bob.id();
            d.repository().publish_at_issuer(c_bob);
            d.bus().revoke(&revoked_id);
            let r = d.compact().unwrap();
            assert_eq!(r.snapshot_entries, 2);
            assert_eq!(r.snapshot_revocations, 1);
            assert_eq!(std::fs::metadata(shard_log(&dir, 0)).unwrap().len(), 0);
            // Tail after the snapshot.
            d.repository()
                .publish_at_issuer(cred(&ny, &carol, "Partner"));
        }
        let (d2, report) = open_one(&dir);
        assert_eq!(report.snapshot_entries, 2);
        assert_eq!(report.snapshot_revocations, 1);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(d2.repository().len(), 3);
        assert!(d2.bus().is_revoked(&revoked_id));
        // Tag reconstruction: alice still findable via directed query.
        d2.repository().reset_stats();
        let found = d2.repository().query_by_subject(&alice.as_subject());
        assert_eq!(found.len(), 1);
        assert_eq!(d2.repository().stats().directed, 1);
    }

    #[test]
    fn snapshot_log_overlap_deduplicated() {
        // Simulate a crash between snapshot rename and log truncation:
        // both cover the same publish.
        let dir = tmpdir("overlap");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        {
            let (d, _) = open_one(&dir);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            let log_before = std::fs::read(shard_log(&dir, 0)).unwrap();
            d.compact().unwrap();
            // Put the pre-compaction log back (the "un-truncated" state).
            std::fs::write(shard_log(&dir, 0), &log_before).unwrap();
        }
        let (d2, report) = open_one(&dir);
        assert_eq!(report.snapshot_entries, 1);
        assert_eq!(report.duplicates_skipped, 1);
        assert_eq!(d2.repository().len(), 1, "no double-publish");
    }

    #[test]
    fn corrupt_snapshot_ignored_log_still_replayed() {
        let dir = tmpdir("badsnap");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        {
            let (d, _) = open_one(&dir);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.compact().unwrap();
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Partner"));
        }
        // Corrupt the shard segment's snapshot body.
        let snap = dir.join(shard_dir_name(0)).join(SNAPSHOT_FILE);
        let mut image = std::fs::read(&snap).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0xff;
        std::fs::write(&snap, &image).unwrap();

        let verify = verify_sharded_dir(&dir).unwrap();
        assert!(verify.shards[0].snapshot_corrupt);
        assert!(!verify.is_clean());
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert!(report.snapshot_corrupt);
        assert_eq!(report.snapshot_entries, 0);
        // Only the post-compaction tail survives — the report says so.
        assert_eq!(report.records_replayed, 1);
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn purge_expired_replays() {
        let dir = tmpdir("purge");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        {
            let (d, _) = open_one(&dir);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            let doomed = DelegationBuilder::new(&ny)
                .subject_entity(&alice)
                .role(ny.role("Guest"))
                .expires(100)
                .sign();
            d.repository().publish_at_issuer(doomed);
            assert_eq!(d.repository().purge_expired(200), 1);
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.purges, 1);
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn recovered_epoch_strictly_above_logged_epochs() {
        let dir = tmpdir("epoch");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let logged_epoch;
        {
            let (d, _) = open_one(&dir);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            logged_epoch = d.repository().epoch();
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert!(
            report.epoch > logged_epoch,
            "epoch {} must exceed pre-crash {}",
            report.epoch,
            logged_epoch
        );
        assert_eq!(repo.epoch(), report.epoch);
    }

    #[test]
    fn fsync_policies_all_recover() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(3),
            FsyncPolicy::Never,
        ] {
            let dir = tmpdir("policy");
            let ny = Entity::with_seed("Comp.NY", b"wal");
            let cfg = WalConfig {
                fsync: policy,
                auto_compact_appends: None,
            };
            {
                let (d, _) = ShardedDurableRepository::open(&dir, 1, cfg).unwrap();
                for i in 0..5 {
                    let who = Entity::with_seed(format!("U{i}"), b"wal");
                    d.repository().publish_at_issuer(cred(&ny, &who, "Member"));
                }
                let stats = d.stats();
                assert_eq!(stats.appends, 5);
                match policy {
                    FsyncPolicy::Always => assert_eq!(stats.fsyncs, 5),
                    FsyncPolicy::EveryN(3) => assert_eq!(stats.fsyncs, 1),
                    _ => assert_eq!(stats.fsyncs, 0),
                }
            } // dropping the last handle flushes what the policy buffered
            let (repo, _, _) = Repository::recover_sharded(&dir).unwrap();
            assert_eq!(repo.len(), 5, "policy {policy:?}");
        }
    }

    #[test]
    fn auto_compaction_triggers_and_recovers() {
        let dir = tmpdir("auto");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: Some(4),
        };
        let oracle_ids;
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 1, cfg).unwrap();
            for i in 0..10 {
                let who = Entity::with_seed(format!("U{i}"), b"wal");
                d.repository().publish_at_issuer(cred(&ny, &who, "Member"));
            }
            assert!(d.stats().compactions >= 2, "10 appends / threshold 4");
            oracle_ids = repo_fingerprint(d.repository());
        }
        let (repo, _, _) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(repo_fingerprint(&repo), oracle_ids);
    }

    #[test]
    fn recovered_state_matches_never_crashed_oracle() {
        let dir = tmpdir("oracle");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let oracle_repo = Repository::new();
        let oracle_bus = RevocationBus::new();
        {
            let (d, _) = open_one(&dir);
            for i in 0..6 {
                let who = Entity::with_seed(format!("U{i}"), b"wal");
                let c = cred(&ny, &who, "Member");
                oracle_repo.publish_at_issuer(c.clone());
                d.repository().publish_at_issuer(c.clone());
                if i % 2 == 0 {
                    oracle_bus.revoke(&c.id());
                    d.bus().revoke(&c.id());
                }
            }
        }
        let (repo, bus, _) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(repo_fingerprint(&repo), repo_fingerprint(&oracle_repo));
        assert_eq!(bus.revoked_ids(), oracle_bus.revoked_ids());
    }

    /// publish C → purge removes it → publish C again: the recovered
    /// repository must hold C (the dedup map forgets purged pairs instead
    /// of mistaking the re-publish for a duplicate).
    fn republish_after_purge_survives(shards: usize) {
        let dir = tmpdir("repurge");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let doomed = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Guest"))
            .expires(100)
            .sign();
        {
            let (d, _) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            d.repository().publish_at_issuer(doomed.clone());
            assert_eq!(d.repository().purge_expired(200), 1);
            // Same (home, id) published again after the purge.
            d.repository().publish_at_issuer(doomed.clone());
            assert_eq!(d.repository().len(), 1);
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(
            report.duplicates_skipped, 0,
            "re-publish is not a duplicate"
        );
        assert_eq!(repo.len(), 1, "re-published credential lost by replay");
    }

    #[test]
    fn republished_after_purge_survives_replay() {
        republish_after_purge_survives(1);
    }

    #[test]
    fn revoke_batch_record_roundtrip() {
        let ids: Vec<String> = (0..100).map(|i| format!("id-{i:03}")).collect();
        let mut log = Vec::new();
        put_frame(
            &mut log,
            &encode_payload(5, &WalOp::RevokeBatch { ids: ids.clone() }),
        );
        let scan = scan_log(&log);
        assert!(scan.corruption.is_none());
        assert_eq!(scan.records.len(), 1);
        match &scan.records[0].op {
            WalOp::RevokeBatch { ids: got } => assert_eq!(*got, ids),
            other => panic!("wrong op {other:?}"),
        }
    }

    #[test]
    fn dropped_handle_flushes_buffered_records() {
        // Dropping the last handle without detach() must flush the
        // group-commit buffers and release the segments: the logging
        // observers may not keep the repository alive.
        let dir = tmpdir("drop");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        };
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 4, cfg).unwrap();
            for i in 0..10 {
                let who = Entity::with_seed(format!("U{i}"), b"wal");
                d.repository().publish_at_issuer(cred(&ny, &who, "Member"));
            }
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.publishes, 10);
        assert_eq!(repo.len(), 10);
    }

    #[test]
    fn single_log_directory_is_rejected() {
        for legacy in [LOG_FILE, SNAPSHOT_FILE] {
            let dir = tmpdir("legacy");
            std::fs::write(dir.join(legacy), b"old single-log bytes").unwrap();
            let rejected = |e: std::io::Error| {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                assert!(e.to_string().contains("single-log layout"), "{e}");
            };
            rejected(
                ShardedDurableRepository::open(&dir, 1, WalConfig::default())
                    .err()
                    .unwrap(),
            );
            rejected(Repository::recover_sharded(&dir).err().unwrap());
            rejected(verify_sharded_dir(&dir).err().unwrap());
            // Nothing was migrated or laid over the old files.
            assert!(!dir.join(SHARD_META_FILE).exists());
            assert!(!dir.join(BUS_DIR).exists());
        }
    }

    // -- multi-shard layouts -----------------------------------------------

    fn sharded_workload(d: &ShardedDurableRepository, ny: &Entity, users: usize) -> Vec<String> {
        let mut revoked = Vec::new();
        for i in 0..users {
            let who = Entity::with_seed(format!("U{i}"), b"swal");
            let c = cred(ny, &who, "Member");
            if i % 3 == 0 {
                revoked.push(c.id());
            }
            d.repository().publish_at_issuer(c);
        }
        d.bus().revoke_all(revoked.iter().map(|s| s.as_str()));
        revoked
    }

    #[test]
    fn sharded_publish_and_batch_revoke_survive_reopen() {
        let dir = tmpdir("sh-reopen");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let revoked;
        {
            let (d, report) =
                ShardedDurableRepository::open(&dir, 8, WalConfig::default()).unwrap();
            assert_eq!(report.records_replayed, 0);
            revoked = sharded_workload(&d, &ny, 24);
            assert_eq!(d.repository().len(), 24);
            d.detach();
        }
        assert!(dir.join(SHARD_META_FILE).is_file());
        let (d2, report) = ShardedDurableRepository::open(&dir, 8, WalConfig::default()).unwrap();
        // 24 publishes spread across shard segments + 1 RevokeBatch frame.
        assert_eq!(report.publishes, 24);
        assert_eq!(report.revocations_restored, revoked.len());
        assert_eq!(d2.repository().len(), 24);
        assert_eq!(d2.repository().shard_count(), 8);
        for id in &revoked {
            assert!(d2.bus().is_revoked(id));
        }
        // Appends spread across more than one shard segment.
        let stats = d2.stats();
        assert_eq!(stats.shards.len(), 8);
        let populated = stats.shards.iter().filter(|s| s.log_bytes > 0).count();
        assert!(populated > 1, "24 subjects must span multiple segments");
        assert!(
            stats.bus.log_bytes > 0,
            "RevokeBatch landed in the bus segment"
        );
    }

    #[test]
    fn sharded_meta_overrides_requested_count() {
        let dir = tmpdir("sh-meta");
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 4, WalConfig::default()).unwrap();
            assert_eq!(d.repository().shard_count(), 4);
        }
        // Reopen asking for a different count: disk wins.
        let (d2, _) = ShardedDurableRepository::open(&dir, 64, WalConfig::default()).unwrap();
        assert_eq!(d2.repository().shard_count(), 4);
    }

    #[test]
    fn sharded_torn_shard_tail_truncated_others_survive() {
        let dir = tmpdir("sh-torn");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 4, WalConfig::default()).unwrap();
            sharded_workload(&d, &ny, 16);
        }
        // Tear one populated shard's log mid-record.
        let victim = (0..4)
            .map(|i| dir.join(shard_dir_name(i)).join(LOG_FILE))
            .find(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .expect("some shard holds records");
        let image = std::fs::read(&victim).unwrap();
        let scan = scan_log(&image);
        let whole = scan.records.len();
        assert!(whole >= 1);
        // Cut into the last record's body.
        std::fs::write(&victim, &image[..image.len() - 3]).unwrap();

        let verify = verify_sharded_dir(&dir).unwrap();
        assert!(!verify.is_clean());
        assert_eq!(verify.damaged().len(), 1);

        let (d2, report) = ShardedDurableRepository::open(&dir, 4, WalConfig::default()).unwrap();
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.publishes, 15, "only the torn record is lost");
        assert_eq!(d2.repository().len(), 15);
        // The torn tail was physically removed: directory is clean now.
        drop(d2);
        assert!(verify_sharded_dir(&dir).unwrap().is_clean());
    }

    #[test]
    fn sharded_compact_and_reopen_matches_oracle() {
        let dir = tmpdir("sh-compact");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let oracle_ids;
        let revoked;
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 8, WalConfig::default()).unwrap();
            revoked = sharded_workload(&d, &ny, 20);
            let r = d.compact().unwrap();
            assert_eq!(r.snapshot_entries, 20);
            assert_eq!(r.snapshot_revocations, revoked.len());
            // Every shard log is now empty; publish a post-snapshot tail.
            let carol = Entity::with_seed("Carol", b"swal");
            d.repository()
                .publish_at_issuer(cred(&ny, &carol, "Partner"));
            oracle_ids = repo_fingerprint(d.repository());
        }
        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.snapshot_entries, 20);
        assert_eq!(report.records_replayed, 1, "only the tail replays");
        assert_eq!(repo_fingerprint(&repo), oracle_ids);
        for id in &revoked {
            assert!(bus.is_revoked(id));
        }
    }

    #[test]
    fn sharded_purge_replicates_to_all_segments() {
        let dir = tmpdir("sh-purge");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 4, WalConfig::default()).unwrap();
            for i in 0..12 {
                let who = Entity::with_seed(format!("U{i}"), b"swal");
                let mut b = DelegationBuilder::new(&ny)
                    .subject_entity(&who)
                    .role(ny.role("Member"));
                if i % 2 == 0 {
                    b = b.expires(100);
                }
                d.repository().publish_at_issuer(b.sign());
            }
            assert_eq!(d.repository().purge_expired(150), 6);
            assert_eq!(d.repository().len(), 6);
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        // One purge record per shard segment.
        assert_eq!(report.purges, 4);
        assert_eq!(repo.len(), 6);
    }

    #[test]
    fn sharded_group_commit_flushes_on_sync() {
        let dir = tmpdir("sh-group");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        };
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 4, cfg).unwrap();
            sharded_workload(&d, &ny, 10);
            // Buffered frames are not in the files yet (well under the
            // 64 KiB group threshold)...
            let on_disk: u64 = d.stats().shards.iter().map(|s| s.log_bytes).sum();
            assert_eq!(on_disk, 0, "group commit buffers in memory");
            // ...until an explicit sync.
            d.sync().unwrap();
            let on_disk: u64 = d.stats().shards.iter().map(|s| s.log_bytes).sum();
            assert!(on_disk > 0);
        }
        let (repo, _, _) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(repo.len(), 10);
    }

    #[test]
    fn sharded_republished_after_purge_survives_replay() {
        republish_after_purge_survives(4);
    }

    /// Publish, revoke, then withdraw through `d`: three users, the
    /// second one's credential revoked and withdrawn. Returns the
    /// withdrawn credential.
    fn withdraw_workload(d: &ShardedDurableRepository, ny: &Entity) -> SignedDelegation {
        let users: Vec<Entity> = (0..3)
            .map(|i| Entity::with_seed(format!("W{i}"), b"wwal"))
            .collect();
        for u in &users {
            d.repository().publish_at_issuer(cred(ny, u, "Member"));
        }
        let gone = cred(ny, &users[1], "Member");
        let id = gone.credential_id();
        d.bus().revoke(id.as_str());
        assert_eq!(d.repository().withdraw([(&gone.body.subject, id)]), 1);
        gone
    }

    /// The withdrawn credential is absent, still revoked, and the others
    /// are still stored.
    fn assert_withdrawn(d: &ShardedDurableRepository, gone: &SignedDelegation) {
        assert_eq!(d.repository().len(), 2);
        assert!(d
            .repository()
            .query_by_subject(&gone.body.subject)
            .is_empty());
        assert!(d.bus().is_revoked(&gone.id()));
    }

    #[test]
    fn withdraw_survives_reopen_and_compaction() {
        for shards in [1usize, 4] {
            let dir = tmpdir(&format!("withdraw-{shards}"));
            let ny = Entity::with_seed("Comp.NY", b"wwal");
            let gone;
            {
                let (d, _) =
                    ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
                gone = withdraw_workload(&d, &ny);
                assert_withdrawn(&d, &gone);
            }
            let (d, report) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            assert_eq!(report.publishes, 3, "shards={shards}");
            assert_eq!(report.withdrawals, 1, "shards={shards}");
            assert_withdrawn(&d, &gone);
            assert!(verify_sharded_dir(&dir).unwrap().is_clean());
            // A compacted snapshot never holds the credential, and a
            // re-publish after the withdrawal survives replay.
            d.compact().unwrap();
            drop(d);
            let (d, report) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            assert_eq!(report.snapshot_entries, 2, "shards={shards}");
            assert_withdrawn(&d, &gone);
            d.repository().publish_at_issuer(gone.clone());
            drop(d);
            let (d, _) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            assert_eq!(d.repository().len(), 3, "shards={shards}");
        }
    }

    #[test]
    fn withdraw_replayed_over_an_older_snapshot() {
        let ny = Entity::with_seed("Comp.NY", b"wwal");
        // The snapshot predates the withdrawal: it holds the credential,
        // the log removes it.
        let dir = tmpdir("withdraw-after-snapshot");
        let gone;
        {
            let (d, _) = open_one(&dir);
            for i in 0..3 {
                let u = Entity::with_seed(format!("W{i}"), b"wwal");
                d.repository().publish_at_issuer(cred(&ny, &u, "Member"));
            }
            d.compact_shard(0).unwrap();
            gone = cred(&ny, &Entity::with_seed("W1", b"wwal"), "Member");
            let id = gone.credential_id();
            d.bus().revoke(id.as_str());
            assert_eq!(d.repository().withdraw([(&gone.body.subject, id)]), 1);
        }
        let (d, report) = open_one(&dir);
        assert_eq!(report.snapshot_entries, 3);
        assert_eq!(report.withdrawals, 1);
        assert_withdrawn(&d, &gone);

        // A crash between snapshot rename and log truncation: the
        // snapshot is already without the credential, the surviving log
        // publishes it again and then withdraws it.
        let dir = tmpdir("withdraw-overlap");
        let gone;
        {
            let (d, _) = open_one(&dir);
            gone = withdraw_workload(&d, &ny);
            d.sync().unwrap();
            let log = std::fs::read(shard_log(&dir, 0)).unwrap();
            d.compact_shard(0).unwrap();
            d.detach();
            std::fs::write(shard_log(&dir, 0), log).unwrap();
        }
        let (d, report) = open_one(&dir);
        assert_eq!(report.snapshot_entries, 2);
        assert_eq!(report.duplicates_skipped, 2);
        assert_eq!(report.publishes, 1);
        assert_eq!(report.withdrawals, 1);
        assert_withdrawn(&d, &gone);
    }

    #[test]
    fn torn_withdraw_record_keeps_committed_prefix() {
        let dir = tmpdir("withdraw-torn");
        let ny = Entity::with_seed("Comp.NY", b"wwal");
        {
            let (d, _) = open_one(&dir);
            withdraw_workload(&d, &ny);
        }
        let log = shard_log(&dir, 0);
        let image = std::fs::read(&log).unwrap();
        let scan = scan_log(&image);
        assert_eq!(scan.records.len(), 4);
        let last = scan.records.last().unwrap();
        assert!(matches!(&last.op, WalOp::Withdraw { ids } if ids.len() == 1));
        // Cut the withdraw record anywhere inside it.
        for cut in [last.offset as usize + 3, image.len() - 1] {
            std::fs::write(&log, &image[..cut]).unwrap();
            // Three publishes survive in the shard log, the revocation
            // in the bus log.
            let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
            assert_eq!(report.records_replayed, 4, "cut at {cut}");
            assert_eq!(report.withdrawals, 0, "cut at {cut}");
            assert_eq!(repo.len(), 3, "cut at {cut}: the publishes survive");
            assert_eq!(bus.revoked_count(), 1, "cut at {cut}");
            assert!(!verify_sharded_dir(&dir).unwrap().is_clean());
        }
        let (d, report) = open_one(&dir);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(d.repository().len(), 3);
        assert!(verify_sharded_dir(&dir).unwrap().is_clean());
    }

    #[test]
    fn malformed_withdraw_payloads_fail_typed() {
        let id = cred(
            &Entity::with_seed("Comp.NY", b"wwal"),
            &Entity::with_seed("W0", b"wwal"),
            "Member",
        )
        .credential_id();
        let good = encode_payload(9, &WalOp::Withdraw { ids: vec![id, id] });
        assert!(matches!(
            decode_record(&good),
            Ok((9, WalOp::Withdraw { ids })) if ids == vec![id, id]
        ));
        // Every truncation is a typed error, never a panic.
        for cut in 0..good.len() {
            let err = decode_record(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, RecordError::Truncated | RecordError::Oversized { .. }),
                "cut at {cut}: {err}"
            );
        }
        // A huge declared count is refused before anything is allocated
        // for it: with_capacity(u32::MAX) ids would abort the process.
        let mut huge = good[..9].to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(id.as_str().as_bytes());
        assert_eq!(
            decode_record(&huge).unwrap_err(),
            RecordError::Oversized {
                declared: u64::from(u32::MAX) * 16,
                available: 16,
            }
        );
        // The same bound holds for revoke batches.
        let mut batch = encode_payload(9, &WalOp::RevokeBatch { ids: vec![] });
        batch[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_record(&batch).unwrap_err(),
            RecordError::Oversized { .. }
        ));
        // Ids must be lowercase hex; unknown kinds and trailing bytes fail.
        let mut bad_id = good.clone();
        bad_id[13] = b'Z';
        assert!(matches!(
            decode_record(&bad_id).unwrap_err(),
            RecordError::Malformed(_)
        ));
        let mut unknown = good.clone();
        unknown[8] = 0xee;
        assert_eq!(
            decode_record(&unknown).unwrap_err(),
            RecordError::UnknownKind(0xee)
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode_record(&trailing).unwrap_err(),
            RecordError::TrailingBytes
        );
        // Framed in a log, a malformed record stops the scan cleanly.
        let mut log = Vec::new();
        put_frame(&mut log, &good);
        put_frame(&mut log, &huge);
        let scan = scan_log(&log);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.corruption.unwrap().contains("undecodable"));
    }
}
