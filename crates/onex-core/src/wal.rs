//! Write-ahead journal for live maintenance: crash-safe durability for the
//! mutations a snapshot cannot capture.
//!
//! A snapshot is a full checkpoint; everything that happens between
//! checkpoints — [`crate::Explorer::append_series`],
//! [`crate::Explorer::remove_series`], [`crate::Explorer::refine_to`] — is
//! journaled here as one CRC-framed record per operation in a **sidecar
//! log** next to the snapshot file (`<snapshot>.wal`, see
//! [`sidecar_path`]). The record is appended and fsynced *before* the
//! successor base is hot-swapped in, so a crash at any instant loses at
//! most an operation the caller never saw succeed.
//!
//! ## File format
//!
//! ```text
//! header:  b"OWAL" version:u8(=1)
//! record:  len:u32  payload  crc32(payload):u32     (all LE)
//! payload: epoch:u64 op:u8 body
//!   op 1 append-series: label?:u8 [label:i32] count:u32 values:f64×count
//!   op 2 remove-series: index:u64
//!   op 3 refine-to:     st:f64
//! ```
//!
//! `epoch` is the epoch the operation **produces** (base epoch + 1), which
//! makes replay idempotent: records at or below the recovered base's epoch
//! are skipped, the next record must produce exactly `epoch + 1`, and any
//! gap is corruption.
//!
//! ## Torn tails
//!
//! Appends can be interrupted by a crash, so a truncated or CRC-failing
//! **final** record is expected damage: replay drops it and reports how
//! many bytes were cut — never an error. Damage *before* the final record
//! cannot come from an append crash and is rejected as
//! [`OnexError::SnapshotCorrupt`]. Everything recovered must then pass
//! [`OnexBase::validate_invariants`] before it is served.

use crate::snapshot::crc32;
use crate::{maintain, refine, OnexBase, OnexError, Result};
use onex_ts::TimeSeries;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic + format version.
const MAGIC: &[u8; 4] = b"OWAL";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 5;
/// Per-record framing overhead: length prefix + CRC-32 suffix.
const FRAME_OVERHEAD: usize = 8;

const OP_APPEND: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_REFINE: u8 = 3;

/// The sidecar journal path for a snapshot at `path`: the same file name
/// with `.wal` appended (`base.onex` → `base.onex.wal`), so the pair
/// travels together.
pub fn sidecar_path(path: impl AsRef<Path>) -> PathBuf {
    let path = path.as_ref();
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".wal");
    path.with_file_name(name)
}

/// One journaled maintenance operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// [`crate::Explorer::append_series`], with the caller's raw series
    /// (normalization is re-applied on replay, so replay equals the live
    /// path bit for bit).
    Append(TimeSeries),
    /// [`crate::Explorer::remove_series`].
    Remove(usize),
    /// [`crate::Explorer::refine_to`].
    Refine(f64),
}

/// Encodes one framed record: `len payload crc`, where the payload stamps
/// the epoch the operation produces.
pub(crate) fn encode_record(op: &WalOp, epoch: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&epoch.to_le_bytes());
    match op {
        WalOp::Append(series) => {
            payload.push(OP_APPEND);
            match series.label() {
                Some(label) => {
                    payload.push(1);
                    payload.extend_from_slice(&label.to_le_bytes());
                }
                None => payload.push(0),
            }
            payload.extend_from_slice(&(series.len() as u32).to_le_bytes());
            for &v in series.values() {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        WalOp::Remove(index) => {
            payload.push(OP_REMOVE);
            payload.extend_from_slice(&(*index as u64).to_le_bytes());
        }
        WalOp::Refine(st) => {
            payload.push(OP_REFINE);
            payload.extend_from_slice(&st.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_payload(payload: &[u8], at: usize) -> Result<(u64, WalOp)> {
    let corrupt =
        |what: &str| OnexError::SnapshotCorrupt(format!("wal record at byte {at}: {what}"));
    let epoch_bytes: [u8; 8] = payload
        .get(..8)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| corrupt("payload shorter than its epoch stamp"))?;
    let epoch = u64::from_le_bytes(epoch_bytes);
    let op_byte = *payload.get(8).ok_or_else(|| corrupt("missing op byte"))?;
    let body = &payload[9..];
    let op = match op_byte {
        OP_APPEND => {
            let labeled = *body.first().ok_or_else(|| corrupt("missing label flag"))?;
            let mut rest = &body[1..];
            let label = match labeled {
                0 => None,
                1 => {
                    let bytes: [u8; 4] = rest
                        .get(..4)
                        .and_then(|b| b.try_into().ok())
                        .ok_or_else(|| corrupt("truncated label"))?;
                    rest = &rest[4..];
                    Some(i32::from_le_bytes(bytes))
                }
                _ => return Err(corrupt("label flag is neither 0 nor 1")),
            };
            let count_bytes: [u8; 4] = rest
                .get(..4)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| corrupt("truncated value count"))?;
            let count = u32::from_le_bytes(count_bytes) as usize;
            rest = &rest[4..];
            if rest.len() != count * 8 {
                return Err(corrupt("value block does not match its count"));
            }
            let values: Vec<f64> = rest
                .chunks_exact(8)
                .map(|c| {
                    // chunks_exact(8) yields exactly 8 bytes per chunk.
                    // audit:allow(no-panic-in-lib): infallible, see above
                    f64::from_le_bytes(c.try_into().expect("8-byte chunk"))
                })
                .collect();
            let series = match label {
                Some(l) => TimeSeries::with_label(values, l),
                None => TimeSeries::new(values),
            }
            .map_err(|e| corrupt(&format!("append payload is not a valid series: {e}")))?;
            WalOp::Append(series)
        }
        OP_REMOVE => {
            let bytes: [u8; 8] = body
                .get(..8)
                .and_then(|b| b.try_into().ok())
                .filter(|_| body.len() == 8)
                .ok_or_else(|| corrupt("remove body is not a u64 index"))?;
            WalOp::Remove(u64::from_le_bytes(bytes) as usize)
        }
        OP_REFINE => {
            let bytes: [u8; 8] = body
                .get(..8)
                .and_then(|b| b.try_into().ok())
                .filter(|_| body.len() == 8)
                .ok_or_else(|| corrupt("refine body is not an f64 threshold"))?;
            WalOp::Refine(f64::from_le_bytes(bytes))
        }
        other => return Err(corrupt(&format!("unknown op byte {other}"))),
    };
    Ok((epoch, op))
}

/// A decoded journal: its records and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecodedLog {
    /// Every intact record, in append order.
    pub records: Vec<(u64, WalOp)>,
    /// Byte length of the intact prefix (header + intact records) — the
    /// resume point a writer must truncate to before appending again.
    pub valid_len: usize,
    /// Bytes of torn tail dropped (0 for a cleanly closed log).
    pub torn_bytes: usize,
}

/// Decodes a journal byte-for-byte, applying the torn-tail rule: a
/// truncated or CRC-failing **final** record is dropped (a crash tears
/// only the tail of an append-only log); the same damage before the final
/// record is corruption. A file shorter than the header is treated as a
/// torn (empty) log; a present-but-wrong header is corruption.
pub(crate) fn decode_log(bytes: &[u8]) -> Result<DecodedLog> {
    if bytes.len() < HEADER_LEN {
        // A crash while creating the sidecar can tear the header itself;
        // nothing was journaled yet, so recover an empty log.
        return Ok(DecodedLog {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len(),
        });
    }
    if &bytes[..4] != MAGIC {
        return Err(OnexError::SnapshotCorrupt(
            "wal header: bad magic (not an ONEX wal file)".to_string(),
        ));
    }
    if bytes[4] != VERSION {
        return Err(OnexError::SnapshotCorrupt(format!(
            "wal header: unsupported version {} (this build reads v{VERSION})",
            bytes[4]
        )));
    }
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let frame_start = at;
        let Some(len_bytes) = bytes
            .get(at..at + 4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
        else {
            // Torn mid-length-prefix: drop the tail.
            return Ok(DecodedLog {
                records,
                valid_len: frame_start,
                torn_bytes: bytes.len() - frame_start,
            });
        };
        let len = u32::from_le_bytes(len_bytes) as usize;
        let end = frame_start + 4 + len + 4;
        if end > bytes.len() || len > bytes.len() {
            // Torn mid-payload (or a length prefix itself torn into
            // garbage): either way the damage reaches EOF, so drop it.
            return Ok(DecodedLog {
                records,
                valid_len: frame_start,
                torn_bytes: bytes.len() - frame_start,
            });
        }
        let payload = &bytes[frame_start + 4..frame_start + 4 + len];
        let stored_bytes: [u8; 4] = bytes[frame_start + 4 + len..end]
            .try_into()
            // The slice above is exactly 4 bytes by construction.
            // audit:allow(no-panic-in-lib): infallible, see above
            .expect("4-byte crc slice");
        let stored = u32::from_le_bytes(stored_bytes);
        if crc32(payload) != stored {
            if end == bytes.len() {
                // CRC failure on the final record: a crash landed between
                // the payload bytes and the sync — drop the tail.
                return Ok(DecodedLog {
                    records,
                    valid_len: frame_start,
                    torn_bytes: bytes.len() - frame_start,
                });
            }
            return Err(OnexError::SnapshotCorrupt(format!(
                "wal record at byte {frame_start}: CRC mismatch before the final record \
                 (mid-log damage, not a torn append)"
            )));
        }
        records.push(decode_payload(payload, frame_start)?);
        at = end;
    }
    Ok(DecodedLog {
        records,
        valid_len: bytes.len(),
        torn_bytes: 0,
    })
}

/// The result of [`replay`]: the recovered base and epoch, plus what the
/// recovery had to do to get there.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The base with every journaled operation re-applied.
    pub base: OnexBase,
    /// The epoch after replay.
    pub epoch: u64,
    /// Operations applied (records at or below the snapshot epoch are
    /// skipped idempotently and not counted).
    pub applied: usize,
    /// Byte length of the intact journal prefix (the writer's resume
    /// point).
    pub valid_len: u64,
    /// Bytes of torn tail dropped.
    pub torn_bytes: usize,
}

/// Replays the journal at `path` on top of `(base, epoch)`. Records the
/// snapshot already covers (epoch ≤ the snapshot's) are skipped; each
/// remaining record must produce exactly the next epoch; a torn tail is
/// dropped per [`decode_log`]. When anything was applied, the recovered
/// base must pass [`OnexBase::validate_invariants`] before it is returned
/// — recovery never serves a structurally damaged base.
pub(crate) fn replay(path: &Path, base: OnexBase, epoch: u64) -> Result<Recovery> {
    let bytes = std::fs::read(path)
        .map_err(|e| OnexError::Io(format!("reading wal {}: {e}", path.display())))?;
    let decoded = decode_log(&bytes)?;
    let mut base = base;
    let mut epoch = epoch;
    let mut applied = 0usize;
    for (record_epoch, op) in decoded.records {
        if record_epoch <= epoch {
            // Already folded into the snapshot (or a duplicate append of
            // the same record): replay is idempotent, skip it.
            continue;
        }
        if record_epoch != epoch + 1 {
            return Err(OnexError::SnapshotCorrupt(format!(
                "wal {}: epoch gap — record produces epoch {record_epoch} but the \
                 recovered base is at {epoch}",
                path.display()
            )));
        }
        base = match op {
            WalOp::Append(series) => {
                maintain::append_series_impl(base.into_predecessor(), series)?.0
            }
            WalOp::Remove(index) => maintain::remove_series_impl(base.into_predecessor(), index)?.0,
            WalOp::Refine(st) => refine::refine_impl(&base, st)?,
        };
        epoch = record_epoch;
        applied += 1;
    }
    if applied > 0 {
        base.validate_invariants()?;
    }
    Ok(Recovery {
        base,
        epoch,
        applied,
        valid_len: decoded.valid_len as u64,
        torn_bytes: decoded.torn_bytes,
    })
}

/// An open journal accepting appends; owned by the `Explorer` that has a
/// WAL attached and shared by its clones under the writer lock.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
}

impl WalWriter {
    /// Creates (or truncates to `resume_len` and reopens) the journal at
    /// `path` for appending. A fresh or shorter-than-header file gets a
    /// new header; `resume_len` is [`Recovery::valid_len`] — everything
    /// past it is a dropped torn tail and must not survive into the next
    /// append.
    pub fn open(path: &Path, resume_len: u64) -> Result<Self> {
        let io = |what: &str, e: std::io::Error| {
            OnexError::Io(format!("{what} wal {}: {e}", path.display()))
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io("opening", e))?;
        if resume_len >= HEADER_LEN as u64 {
            file.set_len(resume_len).map_err(|e| io("truncating", e))?;
        } else {
            file.set_len(0).map_err(|e| io("truncating", e))?;
        }
        let mut writer = WalWriter {
            file,
            path: path.to_path_buf(),
        };
        if resume_len < HEADER_LEN as u64 {
            writer.write_sync(&[MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION], "header")?;
        } else {
            use std::io::Seek;
            writer
                .file
                .seek(std::io::SeekFrom::End(0))
                .map_err(|e| io("seeking", e))?;
        }
        Ok(writer)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one operation producing `epoch`, fsyncing before returning
    /// — the write-ahead contract: once this returns, the operation
    /// survives a crash. Honors the `wal-append` fault point: a torn
    /// injection writes a seeded prefix of the record and fails, exactly
    /// the damage [`decode_log`]'s torn-tail rule recovers from.
    pub fn append(&mut self, op: &WalOp, epoch: u64) -> Result<()> {
        let record = encode_record(op, epoch);
        match crate::fault::probe(crate::fault::WAL_APPEND, record.len()) {
            None => self.write_sync(&record, "appending record to"),
            Some(crate::fault::Injection::Fail) => Err(OnexError::Io(format!(
                "appending record to wal {}: injected fault before write",
                self.path.display()
            ))),
            Some(crate::fault::Injection::Torn { keep }) => {
                let keep = keep.min(record.len());
                let _ = self.write_sync(&record[..keep], "appending record to");
                Err(OnexError::Io(format!(
                    "appending record to wal {}: injected fault tore the append after \
                     {keep} of {} bytes",
                    self.path.display(),
                    record.len()
                )))
            }
        }
    }

    /// Truncates the journal back to an empty (header-only) log — called
    /// after a successful snapshot checkpoint folds every record in.
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(HEADER_LEN as u64)
            .map_err(|e| OnexError::Io(format!("truncating wal {}: {e}", self.path.display())))?;
        use std::io::Seek;
        self.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| OnexError::Io(format!("seeking wal {}: {e}", self.path.display())))?;
        self.file
            .sync_all()
            .map_err(|e| OnexError::Io(format!("syncing wal {}: {e}", self.path.display())))
    }

    fn write_sync(&mut self, bytes: &[u8], what: &str) -> Result<()> {
        let io =
            |e: std::io::Error| OnexError::Io(format!("{what} wal {}: {e}", self.path.display()));
        self.file.write_all(bytes).map_err(io)?;
        self.file.sync_all().map_err(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        TimeSeries::new((0..n).map(|i| i as f64 / n as f64).collect()).unwrap()
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let ops = [
            WalOp::Append(series(9)),
            WalOp::Append(TimeSeries::with_label(vec![0.5, 0.25], -3).unwrap()),
            WalOp::Remove(7),
            WalOp::Refine(0.35),
        ];
        let mut bytes = vec![MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION];
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(op, i as u64 + 1));
        }
        let decoded = decode_log(&bytes).unwrap();
        assert_eq!(decoded.torn_bytes, 0);
        assert_eq!(decoded.valid_len, bytes.len());
        assert_eq!(decoded.records.len(), ops.len());
        for (i, (epoch, op)) in decoded.records.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1);
            assert_eq!(op, &ops[i]);
        }
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let mut bytes = vec![MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION];
        bytes.extend_from_slice(&encode_record(&WalOp::Remove(1), 1));
        let intact = bytes.len();
        bytes.extend_from_slice(&encode_record(&WalOp::Refine(0.3), 2));
        // Every strict prefix of the final record decodes to exactly the
        // first record plus a dropped tail.
        for cut in intact..bytes.len() - 1 {
            let decoded = decode_log(&bytes[..cut]).unwrap();
            assert_eq!(decoded.records.len(), 1, "cut at {cut}");
            assert_eq!(decoded.valid_len, intact, "cut at {cut}");
            assert_eq!(decoded.torn_bytes, cut - intact, "cut at {cut}");
        }
    }

    #[test]
    fn mid_log_damage_is_corruption_but_final_record_damage_is_torn() {
        let mut bytes = vec![MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION];
        bytes.extend_from_slice(&encode_record(&WalOp::Remove(1), 1));
        let first_end = bytes.len();
        bytes.extend_from_slice(&encode_record(&WalOp::Refine(0.3), 2));
        // Flip a payload bit of the FINAL record: dropped as torn.
        let mut final_flip = bytes.clone();
        final_flip[first_end + 6] ^= 0x04;
        let decoded = decode_log(&final_flip).unwrap();
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.valid_len, first_end);
        // Flip the same relative bit of the FIRST record: corruption.
        let mut mid_flip = bytes.clone();
        mid_flip[HEADER_LEN + 6] ^= 0x04;
        let err = decode_log(&mid_flip).unwrap_err();
        assert!(matches!(err, OnexError::SnapshotCorrupt(_)), "{err:?}");
        // A wrong header is corruption too, never a silent empty log.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode_log(&bad_magic).is_err());
        let mut bad_version = bytes;
        bad_version[4] = 9;
        assert!(decode_log(&bad_version).is_err());
    }

    #[test]
    fn header_shorter_than_five_bytes_recovers_as_empty() {
        for cut in 0..HEADER_LEN {
            let decoded = decode_log(&vec![b'O'; cut]).unwrap();
            assert!(decoded.records.is_empty());
            assert_eq!(decoded.valid_len, 0);
        }
    }

    #[test]
    fn hostile_length_prefix_is_a_torn_tail_not_a_huge_allocation() {
        let mut bytes = vec![MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 16]);
        let decoded = decode_log(&bytes).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.valid_len, HEADER_LEN);
    }
}
