//! Versioned binary snapshot of an [`OnexBase`], so the expensive offline
//! construction runs once and the base is reloaded across sessions — the
//! "powerful one-time preprocessing step" of the paper's abstract made
//! durable.
//!
//! The format is hand-rolled over the `bytes` crate (no external
//! serialization format in the sanctioned dependency set): little-endian,
//! length-prefixed, with a magic header and version byte. Envelopes and
//! the group-id directory are *not* stored — they are deterministic
//! functions of the groups and are rebuilt on load — and neither is the
//! SP-Space, which a loaded base computes on first read.
//!
//! Five versions exist on disk:
//!
//! * **v1** — `magic · version · payload`. Per-group records, no integrity
//!   protection beyond structural validation; still fully readable.
//! * **v2** — `magic · version · epoch(u64) · payload · crc32(u32)`. Same
//!   per-group payload as v1, plus the writer's epoch and a CRC-32 footer
//!   (IEEE polynomial, computed over every preceding byte including the
//!   header) that turns silent bit rot into a clean
//!   [`OnexError::SnapshotCorrupt`]. Still fully readable; write it with
//!   [`encode_v2_with_epoch`] for downgrade scenarios.
//! * **v3** — v2's envelope (epoch + CRC-32 footer) around a *columnar*
//!   payload mirroring the in-memory [`crate::store::GroupStore`]: per
//!   length, the member counts, envelope radii and member entries as bulk
//!   arrays followed by the representative and running-sum slabs as single
//!   contiguous `f64` blocks. Decoding reassembles each
//!   [`crate::store::LengthSlab`] with bulk extends instead of thousands
//!   of per-group vector builds. Write it with [`encode_v3_with_epoch`]
//!   for downgrade scenarios.
//! * **v4** — v3 plus the **PAA sketch planes** as bulk blocks per length
//!   (sketch width, representative sketch slab, PAA'd envelope lo/hi
//!   slabs, and the flat member-sketch planes in member-list order), and
//!   the `paa_width` knob in the config header. Loading installs the
//!   planes directly; loading any *older* version recomputes every sketch
//!   from the decoded groups (bit-identical by construction) and defaults
//!   `paa_width` to 16. Write it with [`encode_v4_with_epoch`] for
//!   downgrade scenarios.
//! * **v5** (current) — v4 plus the **symbolic word planes** as bulk
//!   blocks per length (the packed representative words, then each
//!   group's member words in member-list order) and the `sax_alphabet`
//!   knob in the config header. Loading installs the word planes
//!   directly and re-verifies them word-by-word against the sketch
//!   planes in the post-load deep audit; loading any *older* version
//!   recomputes every word from the decoded sketches (bit-identical by
//!   construction) and defaults `sax_alphabet` to 4. The
//!   [`crate::symindex::SymIndex`] probe structures are *not* stored —
//!   they are deterministic functions of the word planes and are rebuilt
//!   on load.
//!
//! Every version's config must pass [`OnexConfig::validate`] as it is
//! parsed, and every version is audited after decoding against every check of
//! [`OnexBase::validate_invariants`] but Def. 8. A
//! [`crate::BuildMode::Strict`] base that an earlier version saved with
//! members beyond `√L · ST/2` (its refine merges skipped the Strict repair)
//! is repaired on load, length by length, instead of rejected.
//!
//! The file-level entry points are [`crate::engine::Explorer::save`] /
//! [`crate::engine::Explorer::load`].

use crate::crc::crc32;
use crate::store::LengthSlab;
use crate::{IoError, OnexBase, OnexConfig, OnexError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onex_dist::Window;
use onex_ts::normalize::MinMaxParams;
use onex_ts::{Dataset, Decomposition, SubseqRef, TimeSeries};
use std::fs::File;
use std::path::Path;

const MAGIC: &[u8; 4] = b"ONEX";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;
const VERSION_V3: u8 = 3;
const VERSION_V4: u8 = 4;
const VERSION_V5: u8 = 5;
/// v2+ fixed overhead: magic + version + epoch + crc footer.
const FOOTER_OVERHEAD: usize = 4 + 1 + 8 + 4;

/// Serializes a base to bytes in the current (v5) format with epoch 0.
pub fn encode(base: &OnexBase) -> Bytes {
    encode_with_epoch(base, 0)
}

/// Serializes a base to bytes in the current (v5, columnar + sketch
/// planes + symbolic word planes) format, stamping the writer's epoch and
/// appending the CRC-32 integrity footer.
pub fn encode_with_epoch(base: &OnexBase, epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(1 << 16);
    out.put_slice(MAGIC);
    out.put_u8(VERSION_V5);
    out.put_u64_le(epoch);
    encode_header(&mut out, base, true, true);
    encode_store_columnar(&mut out, base, true, true);
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out.freeze()
}

/// Serializes a base in the legacy v4 format (columnar payload with
/// sketch planes but no word planes, epoch + CRC-32 footer). Kept so a v4
/// consumer can still be fed and the cross-version load-equivalence tests
/// have a writer.
pub fn encode_v4_with_epoch(base: &OnexBase, epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(1 << 16);
    out.put_slice(MAGIC);
    out.put_u8(VERSION_V4);
    out.put_u64_le(epoch);
    encode_header(&mut out, base, true, false);
    encode_store_columnar(&mut out, base, true, false);
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out.freeze()
}

/// Serializes a base in the legacy v3 format (columnar payload without
/// sketch planes, epoch + CRC-32 footer). Kept so a v3 consumer can still
/// be fed and the cross-version load-equivalence tests have a writer.
pub fn encode_v3_with_epoch(base: &OnexBase, epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(1 << 16);
    out.put_slice(MAGIC);
    out.put_u8(VERSION_V3);
    out.put_u64_le(epoch);
    encode_header(&mut out, base, false, false);
    encode_store_columnar(&mut out, base, false, false);
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out.freeze()
}

/// Serializes a base in the legacy v2 format (per-group records, epoch +
/// CRC-32 footer). Kept so a v2 consumer can still be fed and the
/// cross-version load-equivalence tests have a writer.
pub fn encode_v2_with_epoch(base: &OnexBase, epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(1 << 16);
    out.put_slice(MAGIC);
    out.put_u8(VERSION_V2);
    out.put_u64_le(epoch);
    encode_payload_grouped(&mut out, base);
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out.freeze()
}

/// Serializes a base in the legacy v1 format (no epoch, no checksum). Kept
/// so read-compatibility with pre-v2 snapshots stays testable and a v1
/// consumer can still be fed; new code should use [`encode_with_epoch`].
pub fn encode_v1(base: &OnexBase) -> Bytes {
    let mut out = BytesMut::with_capacity(1 << 16);
    out.put_slice(MAGIC);
    out.put_u8(VERSION_V1);
    encode_payload_grouped(&mut out, base);
    out.freeze()
}

/// Deserializes a base from bytes (any version), discarding the epoch.
pub fn decode(buf: &[u8]) -> Result<OnexBase> {
    decode_with_epoch(buf).map(|(base, _)| base)
}

/// Post-decode deep audit: a snapshot can be bit-intact (the CRC passes)
/// yet structurally wrong — stale sums, out-of-order member lists, sketch
/// planes that drifted from their sources. Every decode path runs every
/// check of [`OnexBase::validate_invariants`] but Def. 8 after the
/// structural parse and reports failures as [`OnexError::SnapshotCorrupt`],
/// so loading is a trust boundary in both senses: transport (CRC) and logic
/// (invariants). Def. 8 is then repaired, not checked: earlier versions
/// saved Strict bases that break it, and those still load
/// ([`OnexBase::close_def8`]).
fn validated(base: OnexBase) -> Result<OnexBase> {
    match base.validate_structure() {
        Ok(()) => Ok(base.close_def8()),
        Err(e) => Err(OnexError::SnapshotCorrupt(format!(
            "post-load validation failed: {e}"
        ))),
    }
}

/// Deserializes a base from bytes, returning the stored epoch (0 for v1
/// snapshots, which predate epochs). v2+ inputs are checksum-verified
/// before any structural parsing; a mismatch is reported as
/// [`OnexError::SnapshotCorrupt`].
pub fn decode_with_epoch(buf: &[u8]) -> Result<(OnexBase, u64)> {
    let mut cur = buf;
    let magic = take(&mut cur, 4)?;
    if magic != MAGIC {
        return Err(OnexError::SnapshotCorrupt("bad magic".to_string()));
    }
    match get_u8(&mut cur)? {
        VERSION_V1 => Ok((validated(decode_payload_grouped(&mut cur)?)?, 0)),
        version @ (VERSION_V2 | VERSION_V3 | VERSION_V4 | VERSION_V5) => {
            if buf.len() < FOOTER_OVERHEAD {
                return Err(OnexError::SnapshotCorrupt(format!(
                    "truncated v{version} snapshot: {} bytes, need at least {FOOTER_OVERHEAD}",
                    buf.len()
                )));
            }
            let (body, footer) = buf.split_at(buf.len() - 4);
            // split_at over a >= FOOTER_OVERHEAD buffer yields exactly 4 bytes.
            #[expect(clippy::expect_used, reason = "infallible, see above")]
            let stored = u32::from_le_bytes(footer.try_into().expect("4 bytes"));
            let computed = crc32(body);
            if stored != computed {
                return Err(OnexError::SnapshotCorrupt(format!(
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
            let epoch = get_u64(&mut cur)?;
            let mut payload = &cur[..cur.len() - 4];
            let base = if version == VERSION_V2 {
                decode_payload_grouped(&mut payload)?
            } else {
                decode_payload_columnar(&mut payload, version)?
            };
            Ok((validated(base)?, epoch))
        }
        version => Err(OnexError::SnapshotCorrupt(format!(
            "unsupported version {version}"
        ))),
    }
}

/// The file writer behind [`crate::engine::Explorer::save`].
///
/// The write is **atomic**: bytes go to a `.tmp` sibling first, are fsynced,
/// and only then renamed over the destination (followed by a best-effort
/// parent-directory fsync so the rename itself is durable). A crash at any
/// instant leaves either the complete old snapshot or the complete new one
/// — never a torn file — which the `snapshot-write` fault point proves by
/// tearing the temp file and checking the destination still loads.
pub(crate) fn write_snapshot(base: &OnexBase, epoch: u64, path: impl AsRef<Path>) -> Result<()> {
    use std::io::Write;

    let path = path.as_ref();
    let io = |op: &'static str, e: std::io::Error| OnexError::Io(IoError::new(op, path, e));
    let bytes = encode_with_epoch(base, epoch);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    match crate::fault::probe(crate::fault::SNAPSHOT_WRITE, bytes.len()) {
        None => {}
        Some(crate::fault::Injection::Fail) => {
            return Err(OnexError::Io(IoError::new(
                "writing snapshot",
                path,
                "injected fault before write",
            )));
        }
        Some(crate::fault::Injection::Torn { keep }) => {
            // Simulated crash mid-write: a torn temp file is left behind
            // and the rename never happens, so the destination is intact.
            let keep = keep.min(bytes.len());
            if let Ok(mut f) = File::create(&tmp) {
                let _ = f.write_all(&bytes[..keep]);
                let _ = f.sync_all();
            }
            return Err(OnexError::Io(IoError::new(
                "writing snapshot",
                path,
                format_args!(
                    "injected fault tore the write after {keep} of {} bytes",
                    bytes.len()
                ),
            )));
        }
    }
    let mut file = File::create(&tmp).map_err(|e| io("creating temp file for snapshot", e))?;
    file.write_all(&bytes)
        .map_err(|e| io("writing snapshot", e))?;
    file.sync_all().map_err(|e| io("syncing snapshot", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io("renaming temp file into snapshot", e))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Best-effort: make the rename itself durable. Some platforms
        // refuse to fsync a directory handle; the data is already synced.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The file reader behind [`crate::engine::Explorer::load`].
///
/// Misuse that `std::fs::read` reports confusingly (or not at all) is
/// pre-checked into typed [`OnexError::Io`] values naming the path: a
/// directory, or a zero-length file (which can never be a snapshot and
/// usually means a botched copy).
pub(crate) fn read_snapshot(path: impl AsRef<Path>) -> Result<(OnexBase, u64)> {
    let path = path.as_ref();
    if let Ok(meta) = std::fs::metadata(path) {
        if meta.is_dir() {
            return Err(OnexError::Io(IoError::new(
                "reading snapshot",
                path,
                "path is a directory, not a snapshot file",
            )));
        }
        if meta.len() == 0 {
            return Err(OnexError::Io(IoError::new(
                "reading snapshot",
                path,
                "file is empty (zero bytes)",
            )));
        }
    }
    let data = std::fs::read(path)
        .map_err(|e| OnexError::Io(IoError::new("reading snapshot", path, e)))?;
    decode_with_epoch(&data)
}

/// Encodes the shared prefix of every payload version: config, normalizer
/// and dataset. `with_paa` selects the v4+ config layout (which carries
/// the `paa_width` knob; v1–v3 predate it) and `with_sax` the v5 layout
/// (which appends `sax_alphabet`).
fn encode_header(out: &mut BytesMut, base: &OnexBase, with_paa: bool, with_sax: bool) {
    encode_config(out, base.config(), with_paa, with_sax);
    match base.normalizer() {
        Some(p) => {
            out.put_u8(1);
            out.put_f64_le(p.min);
            out.put_f64_le(p.max);
        }
        None => out.put_u8(0),
    }
    encode_dataset(out, base.dataset());
}

/// Decodes the shared payload prefix.
fn decode_header(
    buf: &mut &[u8],
    with_paa: bool,
    with_sax: bool,
) -> Result<(OnexConfig, Option<MinMaxParams>, Dataset)> {
    let config = decode_config(buf, with_paa, with_sax)?;
    let norm = match get_u8(buf)? {
        0 => None,
        1 => Some(MinMaxParams {
            min: get_f64(buf)?,
            max: get_f64(buf)?,
        }),
        t => {
            return Err(OnexError::SnapshotCorrupt(format!(
                "bad normalizer tag {t}"
            )))
        }
    };
    let dataset = decode_dataset(buf)?;
    Ok((config, norm, dataset))
}

// ---- v1/v2 payload: per-group records ----

/// Encodes the legacy per-group payload (v1 and v2): header, then for each
/// length its groups one record at a time.
fn encode_payload_grouped(out: &mut BytesMut, base: &OnexBase) {
    encode_header(out, base, false, false);
    let slabs = base.store().slabs();
    out.put_u64_le(slabs.len() as u64);
    let mut groups = base.groups();
    for slab in slabs {
        out.put_u64_le(slab.subseq_len() as u64);
        out.put_u64_le(slab.group_count() as u64);
        for g in groups.by_ref().take(slab.group_count()) {
            out.put_u64_le(g.member_count() as u64);
            for &(r, d) in g.members() {
                out.put_u32_le(r.series);
                out.put_u32_le(r.start);
                out.put_f64_le(d);
            }
            for &v in g.representative() {
                out.put_f64_le(v);
            }
            for &v in g.sum() {
                out.put_f64_le(v);
            }
            out.put_u64_le(g.env_radius() as u64);
        }
    }
}

/// Decodes a legacy per-group payload (v1/v2), requiring it to be fully
/// consumed.
fn decode_payload_grouped(buf: &mut &[u8]) -> Result<OnexBase> {
    let (config, norm, dataset) = decode_header(buf, false, false)?;
    // Each length entry needs at least its 16-byte header.
    let n_lengths = {
        let c = get_u64(buf)?;
        checked_count(buf, c, 16)?
    };
    let mut slabs = Vec::with_capacity(n_lengths);
    for _ in 0..n_lengths {
        let len = get_u64(buf)? as usize;
        // Each group needs at least a member count + one member + radius.
        let n_groups = {
            let c = get_u64(buf)?;
            checked_count(buf, c, 32)?
        };
        let mut slab = LengthSlab::new(len, config.paa_width, config.sax_alphabet);
        for _ in 0..n_groups {
            decode_group_into(buf, len, &dataset, &mut slab)?;
        }
        slabs.push(slab);
    }
    if buf.has_remaining() {
        return Err(OnexError::SnapshotCorrupt(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(OnexBase::assemble(dataset, norm, config, slabs))
}

/// Decodes `count` member entries (series, start, raw ED), validating each
/// reference against the dataset so corrupt refs can't panic later. Shared
/// by the per-group (v1/v2) and columnar (v3) payload decoders.
fn decode_members(
    buf: &mut &[u8],
    count: usize,
    len: usize,
    dataset: &Dataset,
) -> Result<Vec<(SubseqRef, f64)>> {
    let mut members = Vec::with_capacity(count);
    for _ in 0..count {
        let series = get_u32(buf)?;
        let start = get_u32(buf)?;
        let d = get_finite_f64(buf)?;
        let r = SubseqRef::new(series, start, len as u32);
        dataset
            .subseq(r)
            .map_err(|e| OnexError::SnapshotCorrupt(e.to_string()))?;
        members.push((r, d));
    }
    Ok(members)
}

fn decode_group_into(
    buf: &mut &[u8],
    len: usize,
    dataset: &Dataset,
    slab: &mut LengthSlab,
) -> Result<()> {
    let n_members = {
        let c = get_u64(buf)?;
        checked_count(buf, c, 16)?
    };
    let members = decode_members(buf, n_members, len, dataset)?;
    if n_members == 0 {
        return Err(OnexError::SnapshotCorrupt("empty group".to_string()));
    }
    // rep + sum need 16 bytes per point of the recorded group length.
    let len = checked_count(buf, len as u64, 16)?;
    let mut rep = Vec::with_capacity(len);
    for _ in 0..len {
        rep.push(get_finite_f64(buf)?);
    }
    let mut sum = Vec::with_capacity(len);
    for _ in 0..len {
        sum.push(get_finite_f64(buf)?);
    }
    let radius = get_radius(buf)?;
    slab.push_from_parts(dataset, members, rep, sum, radius);
    Ok(())
}

// ---- v3/v4 payload: columnar slab blocks ----

/// Encodes the store as bulk per-length blocks: member counts, envelope
/// radii and member entries as arrays, then the representative and
/// running-sum slabs as single contiguous `f64` blocks — the on-disk mirror
/// of the in-memory columnar layout. With `with_sketches` (v4+) each length
/// block is followed by its sketch planes: the resolved sketch width, the
/// representative sketch slab, the PAA'd envelope lo/hi slabs, and the
/// flat member-sketch planes in member-list order. With `with_words` (v5)
/// the symbolic word planes follow: the packed representative words, then
/// each group's member words in member-list order.
fn encode_store_columnar(
    out: &mut BytesMut,
    base: &OnexBase,
    with_sketches: bool,
    with_words: bool,
) {
    let slabs = base.store().slabs();
    out.put_u64_le(slabs.len() as u64);
    for slab in slabs {
        let len = slab.subseq_len();
        let g = slab.group_count();
        out.put_u64_le(len as u64);
        out.put_u64_le(g as u64);
        for local in 0..g {
            out.put_u64_le(slab.member_count(local) as u64);
        }
        for local in 0..g {
            out.put_u64_le(slab.env_radius(local) as u64);
        }
        for local in 0..g {
            for &(r, d) in slab.members(local) {
                out.put_u32_le(r.series);
                out.put_u32_le(r.start);
                out.put_f64_le(d);
            }
        }
        for &v in slab.rep_slab() {
            out.put_f64_le(v);
        }
        for local in 0..g {
            for &v in slab.sum_row(local) {
                out.put_f64_le(v);
            }
        }
        if with_sketches {
            out.put_u64_le(slab.paa_width() as u64);
            for &v in slab.paa_rep_slab() {
                out.put_f64_le(v);
            }
            for &v in slab.paa_env_lo_slab() {
                out.put_f64_le(v);
            }
            for &v in slab.paa_env_hi_slab() {
                out.put_f64_le(v);
            }
            for local in 0..g {
                for &v in slab.member_paa_plane(local) {
                    out.put_f64_le(v);
                }
            }
        }
        if with_words {
            for &word in slab.rep_words_slab() {
                out.put_u64_le(word);
            }
            for local in 0..g {
                for &word in slab.member_words(local) {
                    out.put_u64_le(word);
                }
            }
        }
    }
}

/// Decodes a v3/v4/v5 columnar payload, requiring it to be fully consumed.
/// v4+ installs the persisted sketch planes (v3 recomputes them from the
/// decoded groups); v5 additionally installs the persisted word planes
/// (older versions recompute them from the sketches).
fn decode_payload_columnar(buf: &mut &[u8], version: u8) -> Result<OnexBase> {
    let with_sketches = version >= VERSION_V4;
    let with_words = version >= VERSION_V5;
    let (config, norm, dataset) = decode_header(buf, with_sketches, with_words)?;
    // Each length block needs at least len + group count.
    let n_lengths = {
        let c = get_u64(buf)?;
        checked_count(buf, c, 16)?
    };
    let mut slabs = Vec::with_capacity(n_lengths);
    for _ in 0..n_lengths {
        // Bound the slab length against the remaining bytes (a group's rep
        // + sum rows cost 16 bytes per point and every slab holds at least
        // one group), exactly like the v1/v2 per-group decoder — a hostile
        // length would otherwise overflow the cell-count multiply below or
        // panic slicing the rep slab.
        let len = {
            let c = get_u64(buf)?;
            checked_count(buf, c, 16)?
        };
        if len == 0 {
            return Err(OnexError::SnapshotCorrupt("zero slab length".to_string()));
        }
        // Each group costs at least its count + radius entries (16 bytes).
        let n_groups = {
            let c = get_u64(buf)?;
            checked_count(buf, c, 16)?
        };
        let mut counts = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let c = get_u64(buf)?;
            if c == 0 {
                return Err(OnexError::SnapshotCorrupt("empty group".to_string()));
            }
            counts.push(checked_count(buf, c, 16)?);
        }
        let mut radii = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            radii.push(get_radius(buf)?);
        }
        let mut member_lists = Vec::with_capacity(n_groups);
        for &count in &counts {
            member_lists.push(decode_members(buf, count, len, &dataset)?);
        }
        // The two contiguous slabs: n_groups·len f64 each. Both factors are
        // bounded by the remaining-byte checks above, but reject a product
        // overflow explicitly rather than trusting that arithmetic.
        let cells = n_groups
            .checked_mul(len)
            .ok_or_else(|| OnexError::SnapshotCorrupt("slab cell count overflow".to_string()))?;
        let cells = checked_count(buf, cells as u64, 8)?;
        let mut reps = Vec::with_capacity(cells);
        for _ in 0..cells {
            reps.push(get_finite_f64(buf)?);
        }
        let mut sums = Vec::with_capacity(cells);
        for _ in 0..cells {
            sums.push(get_finite_f64(buf)?);
        }
        let mut slab = if with_sketches {
            // The sketch width is derived state (min(config.paa_width,
            // len)); a different stored value means the writer and this
            // payload disagree — corruption, not a tunable.
            let expect_w = config.paa_width.clamp(1, len);
            let stored_w = get_u64(buf)?;
            if stored_w != expect_w as u64 {
                return Err(OnexError::SnapshotCorrupt(format!(
                    "sketch width {stored_w} does not match min(paa_width, len) = {expect_w}"
                )));
            }
            let w = expect_w;
            let sketch_cells = n_groups.checked_mul(w).ok_or_else(|| {
                OnexError::SnapshotCorrupt("sketch cell count overflow".to_string())
            })?;
            let sketch_cells = checked_count(buf, sketch_cells as u64, 8)?;
            fn read_plane(buf: &mut &[u8], cells: usize) -> Result<Vec<f64>> {
                let mut plane = Vec::with_capacity(cells);
                for _ in 0..cells {
                    plane.push(get_finite_f64(buf)?);
                }
                Ok(plane)
            }
            let paa_reps = read_plane(buf, sketch_cells)?;
            let paa_env_lo = read_plane(buf, sketch_cells)?;
            let paa_env_hi = read_plane(buf, sketch_cells)?;
            let mut member_paa = Vec::with_capacity(n_groups);
            for &count in &counts {
                let cells = count.checked_mul(w).ok_or_else(|| {
                    OnexError::SnapshotCorrupt("sketch cell count overflow".to_string())
                })?;
                let cells = checked_count(buf, cells as u64, 8)?;
                member_paa.push(read_plane(buf, cells)?);
            }
            LengthSlab::from_bulk_parts_with_sketches(
                len,
                config.paa_width,
                config.sax_alphabet,
                member_lists,
                radii,
                reps,
                sums,
                paa_reps,
                paa_env_lo,
                paa_env_hi,
                member_paa,
            )
        } else {
            LengthSlab::from_bulk_parts(
                &dataset,
                len,
                config.paa_width,
                config.sax_alphabet,
                member_lists,
                radii,
                reps,
                sums,
            )
        };
        if with_words {
            // Word shapes are pinned by the group/member counts decoded
            // above; word *content* is re-verified word-by-word against
            // the sketch planes by the post-load deep audit, so a
            // tampered-but-decodable block still fails the load.
            let n_rep_words = checked_count(buf, n_groups as u64, 8)?;
            let mut rep_words = Vec::with_capacity(n_rep_words);
            for _ in 0..n_rep_words {
                rep_words.push(get_u64(buf)?);
            }
            let mut member_words = Vec::with_capacity(n_groups);
            for &count in &counts {
                let n_words = checked_count(buf, count as u64, 8)?;
                let mut words = Vec::with_capacity(n_words);
                for _ in 0..n_words {
                    words.push(get_u64(buf)?);
                }
                member_words.push(words);
            }
            slab.install_words(rep_words, member_words);
        }
        slabs.push(slab);
    }
    if buf.has_remaining() {
        return Err(OnexError::SnapshotCorrupt(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(OnexBase::assemble(dataset, norm, config, slabs))
}

// ---- component encoders/decoders ----

/// Encodes the config. `with_paa` selects the v4+ layout, which appends
/// the `paa_width` knob after the fields every older version wrote;
/// `with_sax` the v5 layout, which appends `sax_alphabet` after that.
fn encode_config(out: &mut BytesMut, c: &OnexConfig, with_paa: bool, with_sax: bool) {
    out.put_f64_le(c.st);
    match c.window {
        Window::Unconstrained => out.put_u8(0),
        Window::Band(r) => {
            out.put_u8(1);
            out.put_u64_le(r as u64);
        }
        Window::Ratio(f) => {
            out.put_u8(2);
            out.put_f64_le(f);
        }
    }
    out.put_u64_le(c.decomposition.min_len as u64);
    match c.decomposition.max_len {
        Some(m) => {
            out.put_u8(1);
            out.put_u64_le(m as u64);
        }
        None => out.put_u8(0),
    }
    out.put_u64_le(c.decomposition.len_stride as u64);
    out.put_u64_le(c.decomposition.start_stride as u64);
    out.put_u8(match c.build_mode {
        crate::BuildMode::Paper => 0,
        crate::BuildMode::Strict => 1,
    });
    match c.cluster {
        crate::ClusterStrategy::OnlineGreedy => out.put_u8(0),
        crate::ClusterStrategy::KMeansRefined { iters } => {
            out.put_u8(1);
            out.put_u64_le(iters as u64);
        }
    }
    out.put_u64_le(c.walk_patience as u64);
    out.put_u8(c.exhaustive_group_search as u8);
    out.put_u8(c.stop_at_first_qualifying as u8);
    out.put_u64_le(c.explore_top_groups as u64);
    out.put_u8(c.rank_normalized as u8);
    out.put_u64_le(c.seed);
    out.put_u64_le(c.threads as u64);
    if with_paa {
        out.put_u64_le(c.paa_width as u64);
    }
    if with_sax {
        out.put_u64_le(c.sax_alphabet as u64);
    }
}

fn decode_config(buf: &mut &[u8], with_paa: bool, with_sax: bool) -> Result<OnexConfig> {
    let st = get_f64(buf)?;
    let window = match get_u8(buf)? {
        0 => Window::Unconstrained,
        1 => Window::Band(get_u64(buf)? as usize),
        2 => Window::Ratio(get_f64(buf)?),
        t => return Err(OnexError::SnapshotCorrupt(format!("bad window tag {t}"))),
    };
    let min_len = get_u64(buf)? as usize;
    let max_len = match get_u8(buf)? {
        1 => Some(get_u64(buf)? as usize),
        0 => None,
        t => return Err(OnexError::SnapshotCorrupt(format!("bad max_len tag {t}"))),
    };
    let len_stride = get_u64(buf)? as usize;
    let start_stride = get_u64(buf)? as usize;
    let build_mode = match get_u8(buf)? {
        0 => crate::BuildMode::Paper,
        1 => crate::BuildMode::Strict,
        t => return Err(OnexError::SnapshotCorrupt(format!("bad mode tag {t}"))),
    };
    let cluster = match get_u8(buf)? {
        0 => crate::ClusterStrategy::OnlineGreedy,
        1 => crate::ClusterStrategy::KMeansRefined {
            iters: get_u64(buf)? as usize,
        },
        t => return Err(OnexError::SnapshotCorrupt(format!("bad cluster tag {t}"))),
    };
    let walk_patience = get_u64(buf)? as usize;
    let exhaustive_group_search = get_u8(buf)? != 0;
    let stop_at_first_qualifying = get_u8(buf)? != 0;
    let explore_top_groups = get_u64(buf)? as usize;
    let rank_normalized = get_u8(buf)? != 0;
    let seed = get_u64(buf)?;
    let threads = get_u64(buf)? as usize;
    // v4 appends the sketch-width knob; older versions predate sketches
    // and load with the default width (their sketches are recomputed).
    let paa_width = if with_paa {
        let w = get_u64(buf)?;
        if w == 0 || w > u32::MAX as u64 {
            return Err(OnexError::SnapshotCorrupt(format!(
                "paa_width {w} out of range"
            )));
        }
        w as usize
    } else {
        OnexConfig::default().paa_width
    };
    // v5 appends the word-alphabet knob; older versions predate the
    // symbolic index and load with the default alphabet (their word
    // planes are recomputed).
    let sax_alphabet = if with_sax {
        let a = get_u64(buf)?;
        if !(2..=64).contains(&a) {
            return Err(OnexError::SnapshotCorrupt(format!(
                "sax_alphabet {a} outside 2..=64"
            )));
        }
        a as usize
    } else {
        OnexConfig::default().sax_alphabet
    };
    let config = OnexConfig {
        st,
        window,
        decomposition: Decomposition {
            min_len,
            max_len,
            len_stride,
            start_stride,
        },
        build_mode,
        cluster,
        walk_patience,
        exhaustive_group_search,
        stop_at_first_qualifying,
        explore_top_groups,
        rank_normalized,
        paa_width,
        sax_alphabet,
        seed,
        threads,
        // Runtime-only serving knobs, deliberately not persisted: a snapshot
        // moved across machines should query with the *host's* parallelism
        // and overload policy, not the builder's, and both knobs are
        // accuracy-neutral so the loaded base answers byte-identically
        // either way.
        query_threads: 0,
        max_inflight: 0,
    };
    // A CRC-valid file can still carry a config no build accepts (a zero
    // stride, a non-finite threshold), and everything after the parse
    // assumes a valid one.
    config
        .validate()
        .map_err(|e| OnexError::SnapshotCorrupt(format!("config: {e}")))?;
    Ok(config)
}

fn encode_dataset(out: &mut BytesMut, d: &Dataset) {
    let name = d.name().as_bytes();
    out.put_u64_le(name.len() as u64);
    out.put_slice(name);
    out.put_u64_le(d.len() as u64);
    for ts in d.series() {
        match ts.label() {
            Some(l) => {
                out.put_u8(1);
                out.put_i32_le(l);
            }
            None => out.put_u8(0),
        }
        out.put_u64_le(ts.len() as u64);
        for &v in ts.values() {
            out.put_f64_le(v);
        }
    }
}

fn decode_dataset(buf: &mut &[u8]) -> Result<Dataset> {
    let name_len = get_u64(buf)? as usize;
    let name_bytes = take(buf, name_len)?;
    let name = String::from_utf8(name_bytes.to_vec())
        .map_err(|e| OnexError::SnapshotCorrupt(format!("dataset name: {e}")))?;
    // Each series needs at least a label tag + length field.
    let n = {
        let c = get_u64(buf)?;
        checked_count(buf, c, 9)?
    };
    let mut series = Vec::with_capacity(n);
    for _ in 0..n {
        let label = match get_u8(buf)? {
            1 => Some(get_i32(buf)?),
            0 => None,
            t => return Err(OnexError::SnapshotCorrupt(format!("bad label tag {t}"))),
        };
        let len = {
            let c = get_u64(buf)?;
            checked_count(buf, c, 8)?
        };
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(get_f64(buf)?);
        }
        let ts = match label {
            Some(l) => TimeSeries::with_label(values, l),
            None => TimeSeries::new(values),
        }
        .map_err(|e| OnexError::SnapshotCorrupt(e.to_string()))?;
        series.push(ts);
    }
    Ok(Dataset::new(name, series))
}

/// Validates a decoded element count against the bytes actually remaining:
/// every element needs at least `min_size` bytes, so a count that implies
/// more data than the buffer holds is corruption — caught *before* any
/// `Vec::with_capacity` call (a hostile count would otherwise abort with a
/// capacity overflow or balloon memory).
fn checked_count(buf: &[u8], count: u64, min_size: usize) -> Result<usize> {
    let max = (buf.remaining() / min_size.max(1)) as u64;
    if count > max {
        return Err(OnexError::SnapshotCorrupt(format!(
            "count {count} exceeds what {} remaining bytes can hold",
            buf.remaining()
        )));
    }
    Ok(count as usize)
}

// ---- checked primitive readers ----

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.remaining() < n {
        return Err(OnexError::SnapshotCorrupt(format!(
            "truncated: wanted {n} bytes, have {}",
            buf.remaining()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    Ok(take(buf, 1)?[0])
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(
        // take() just returned exactly 4 bytes.
        #[expect(clippy::expect_used, reason = "infallible, see above")]
        take(buf, 4)?.try_into().expect("4 bytes"),
    ))
}

fn get_i32(buf: &mut &[u8]) -> Result<i32> {
    Ok(i32::from_le_bytes(
        // take() just returned exactly 4 bytes.
        #[expect(clippy::expect_used, reason = "infallible, see above")]
        take(buf, 4)?.try_into().expect("4 bytes"),
    ))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(
        // take() just returned exactly 8 bytes.
        #[expect(clippy::expect_used, reason = "infallible, see above")]
        take(buf, 8)?.try_into().expect("8 bytes"),
    ))
}

fn get_f64(buf: &mut &[u8]) -> Result<f64> {
    Ok(f64::from_le_bytes(
        // take() just returned exactly 8 bytes.
        #[expect(clippy::expect_used, reason = "infallible, see above")]
        take(buf, 8)?.try_into().expect("8 bytes"),
    ))
}

/// Reads an envelope radius, rejecting values that cannot round-trip
/// through the store's u32 radius column. No legitimate writer produces
/// them (subsequence lengths are u32-bounded and band radii are resolved
/// against them), so anything larger is corruption — caught here rather
/// than silently truncated or handed to the envelope builder.
fn get_radius(buf: &mut &[u8]) -> Result<usize> {
    let r = get_u64(buf)?;
    if r > u32::MAX as u64 {
        return Err(OnexError::SnapshotCorrupt(format!(
            "envelope radius {r} out of range"
        )));
    }
    Ok(r as usize)
}

/// `get_f64` that additionally rejects NaN/∞ — used for group state, whose
/// finiteness every distance kernel relies on.
fn get_finite_f64(buf: &mut &[u8]) -> Result<f64> {
    let v = get_f64(buf)?;
    if !v.is_finite() {
        return Err(OnexError::SnapshotCorrupt(format!(
            "non-finite value {v} in group data"
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Explorer, QueryOptions};
    use crate::MatchMode;
    use onex_ts::synth;

    fn base() -> OnexBase {
        let d = synth::sine_mix(5, 12, 2, 17);
        OnexBase::build(&d, OnexConfig::default()).unwrap()
    }

    #[test]
    fn round_trip_preserves_base() {
        let b = base();
        let bytes = encode(&b);
        assert_eq!(bytes[4], VERSION_V5);
        let r = decode(&bytes).unwrap();
        assert_eq!(b, r);
    }

    #[test]
    fn round_trip_via_file_carries_epoch() {
        let b = base();
        let dir = std::env::temp_dir().join(format!("onex_snapshot_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.onex");
        write_snapshot(&b, 7, &path).unwrap();
        let (r, epoch) = read_snapshot(&path).unwrap();
        assert_eq!(b, r);
        assert_eq!(epoch, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_snapshots_still_load() {
        let b = base();
        let v1 = encode_v1(&b);
        assert_eq!(v1[4], VERSION_V1);
        let (r, epoch) = decode_with_epoch(&v1).unwrap();
        assert_eq!(b, r);
        assert_eq!(epoch, 0, "v1 predates epochs");
    }

    #[test]
    fn v2_snapshots_still_load() {
        let b = base();
        let v2 = encode_v2_with_epoch(&b, 5);
        assert_eq!(v2[4], VERSION_V2);
        let (r, epoch) = decode_with_epoch(&v2).unwrap();
        assert_eq!(b, r);
        assert_eq!(epoch, 5);
    }

    #[test]
    fn v3_snapshots_still_load() {
        let b = base();
        let v3 = encode_v3_with_epoch(&b, 9);
        assert_eq!(v3[4], VERSION_V3);
        let (r, epoch) = decode_with_epoch(&v3).unwrap();
        assert_eq!(b, r, "v3 load recomputes sketches bit-identically");
        assert_eq!(epoch, 9);
    }

    #[test]
    fn v4_snapshots_still_load() {
        let b = base();
        let v4 = encode_v4_with_epoch(&b, 11);
        assert_eq!(v4[4], VERSION_V4);
        let (r, epoch) = decode_with_epoch(&v4).unwrap();
        assert_eq!(b, r, "v4 load recomputes word planes bit-identically");
        assert_eq!(epoch, 11);
    }

    #[test]
    fn checksum_catches_every_single_bit_flip_in_checksummed_versions() {
        let b = base();
        for bytes in [
            encode_with_epoch(&b, 3).to_vec(),
            encode_v4_with_epoch(&b, 3).to_vec(),
            encode_v3_with_epoch(&b, 3).to_vec(),
            encode_v2_with_epoch(&b, 3).to_vec(),
        ] {
            // CRC-32 detects all single-bit errors; sample positions across
            // the whole snapshot including header, epoch, payload, footer.
            for at in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
                for bit in [0u8, 7] {
                    let mut mutated = bytes.clone();
                    mutated[at] ^= 1 << bit;
                    assert!(
                        matches!(
                            decode_with_epoch(&mutated),
                            Err(OnexError::SnapshotCorrupt(_))
                        ),
                        "flip at byte {at} bit {bit} must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_and_wal_bytes_are_pinned() {
        // `(len, stored crc)` of every checksummed writer's output for one
        // fixed base, and of one WAL record per op kind, recorded from the
        // bytewise CRC kernel. Each stored CRC must also equal the current
        // kernel's CRC of the bytes it covers, so an encoder change that
        // moves a byte, or a kernel that computes a different value, fails
        // here.
        use crate::wal::{encode_record, WalOp};
        let b = base();
        let series = TimeSeries::with_label(vec![0.25, -1.5, 3.0, 0.0, 7.125], -2).unwrap();
        // (name, bytes, first byte the CRC covers): a snapshot's CRC covers
        // everything before it, a WAL record's skips the length prefix.
        let outputs: [(&str, Vec<u8>, usize); 7] = [
            ("v5", encode_with_epoch(&b, 1).to_vec(), 0),
            ("v4", encode_v4_with_epoch(&b, 1).to_vec(), 0),
            ("v3", encode_v3_with_epoch(&b, 1).to_vec(), 0),
            ("v2", encode_v2_with_epoch(&b, 1).to_vec(), 0),
            ("wal append", encode_record(&WalOp::Append(series), 2), 4),
            ("wal remove", encode_record(&WalOp::Remove(3), 3), 4),
            ("wal refine", encode_record(&WalOp::Refine(0.3), 4), 4),
        ];
        let pinned: [(&str, usize, u32); 7] = [
            ("v5", 51_337, 0x9C10_9B0F),
            ("v4", 47_793, 0x9D8A_53EE),
            ("v3", 18_209, 0xCAE7_6A84),
            ("v2", 18_209, 0xBE7B_A5F7),
            ("wal append", 66, 0x88BC_659F),
            ("wal remove", 25, 0x3A0C_855C),
            ("wal refine", 25, 0xAD0C_01D4),
        ];
        let mut actual = Vec::new();
        for (name, bytes, from) in &outputs {
            let (body, footer) = bytes.split_at(bytes.len() - 4);
            let stored = u32::from_le_bytes(footer.try_into().unwrap());
            assert_eq!(crc32(&body[*from..]), stored, "{name}: stored crc");
            actual.push((*name, bytes.len(), stored));
        }
        assert_eq!(actual, pinned, "stored bytes moved: {actual:#x?}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn loaded_base_answers_queries_identically() {
        let b = base();
        let r = decode(&encode(&b)).unwrap();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[0..6].to_vec();
        let m1 = Explorer::from_base(b)
            .best_match(&q, MatchMode::Exact(6), QueryOptions::default())
            .unwrap();
        let m2 = Explorer::from_base(r)
            .best_match(&q, MatchMode::Exact(6), QueryOptions::default())
            .unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn all_versions_decode_to_the_same_base() {
        let b = base();
        let from_v1 = decode(&encode_v1(&b)).unwrap();
        let from_v2 = decode(&encode_v2_with_epoch(&b, 0)).unwrap();
        let from_v3 = decode(&encode_v3_with_epoch(&b, 0)).unwrap();
        let from_v4 = decode(&encode_v4_with_epoch(&b, 0)).unwrap();
        let from_v5 = decode(&encode(&b)).unwrap();
        assert_eq!(from_v1, from_v5, "v1 → v5 load equivalence");
        assert_eq!(from_v2, from_v5, "v2 → v5 load equivalence");
        assert_eq!(from_v3, from_v5, "v3 → v5 load equivalence");
        assert_eq!(from_v4, from_v5, "v4 → v5 load equivalence");
        assert_eq!(b, from_v5);
    }

    #[test]
    fn validator_rejects_crc_valid_snapshot_with_tampered_word() {
        // The v5 payload ends with the last group's member words; XOR the
        // final payload u64 (a packed word — any bit pattern decodes
        // structurally) and re-seal the CRC. Only the word-vs-sketch
        // recompute in the post-load deep audit can catch it.
        let b = base();
        let mut bytes = encode_with_epoch(&b, 1).to_vec();
        let at = bytes.len() - 4 - 8;
        bytes[at] ^= 1;
        assert_rejected_by_validator(bytes);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let b = base();
        let bytes = encode(&b);
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(OnexError::SnapshotCorrupt(_))));
        // truncate at every eighth boundary: must never panic
        for cut in (0..bytes.len().min(512)).step_by(8) {
            let _ = decode(&bytes[..cut]);
        }
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]),
            Err(OnexError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let b = base();
        let mut bytes = encode(&b).to_vec();
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(OnexError::SnapshotCorrupt(_))));
    }

    #[test]
    fn rejects_unsupported_version() {
        let b = base();
        let mut bytes = encode(&b).to_vec();
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(OnexError::SnapshotCorrupt(_))));
    }

    #[test]
    fn columnar_decoder_rejects_hostile_slab_length_with_valid_crc() {
        // A crafted v4 snapshot whose CRC is *valid* but whose first slab
        // length is absurd must be rejected as corrupt, not overflow the
        // cell-count multiply or panic slicing the rep slab. (`len as u32`
        // can still alias a real subsequence length, which is exactly why
        // the length needs its own remaining-bytes bound.)
        let b = base();
        let mut bytes = encode_with_epoch(&b, 1).to_vec();
        // Locate the first slab's `len` field: it follows the fixed header
        // (magic + version + epoch), the config/norm/dataset prefix, and
        // the u64 length count.
        let mut prefix = BytesMut::with_capacity(1 << 12);
        encode_header(&mut prefix, &b, true, true);
        let len_at = 4 + 1 + 8 + prefix.len() + 8;
        let huge = (1u64 << 62) + 2; // `as u32` == 2, a real indexed length
        bytes[len_at..len_at + 8].copy_from_slice(&huge.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            decode_with_epoch(&bytes),
            Err(OnexError::SnapshotCorrupt(_))
        ));
    }

    /// Flips the low mantissa bit of the (single) occurrence of `value` in
    /// `bytes` — a 1-ulp nudge the structural parser cannot notice. Returns
    /// `false` when the 8-byte pattern is absent or ambiguous, so callers
    /// can fall back to a different probe value.
    fn flip_unique_f64(bytes: &mut [u8], value: f64) -> bool {
        let pat = value.to_le_bytes();
        let hits: Vec<usize> = (0..bytes.len().saturating_sub(7))
            .filter(|&i| bytes[i..i + 8] == pat)
            .collect();
        let [at] = hits[..] else { return false };
        bytes[at..at + 8].copy_from_slice(&f64::from_bits(value.to_bits() ^ 1).to_le_bytes());
        true
    }

    /// Re-seals a mutated snapshot body with a freshly computed CRC, then
    /// asserts the decoder rejects it *for invariant reasons* — proving the
    /// corruption sailed past both the checksum and the structural parse
    /// and was caught by `OnexBase::validate_invariants` alone.
    fn assert_rejected_by_validator(mut bytes: Vec<u8>) {
        reseal(&mut bytes);
        match decode_with_epoch(&bytes) {
            Err(OnexError::SnapshotCorrupt(msg)) => {
                assert!(
                    msg.contains("post-load validation"),
                    "rejected, but not by the validator: {msg}"
                );
            }
            Ok(_) => panic!("hostile snapshot decoded cleanly"),
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    #[test]
    fn validator_rejects_crc_valid_snapshot_with_corrupt_member_ed() {
        // Nudge one stored member ED by 1 ulp: the payload stays perfectly
        // decodable and the CRC is re-sealed, so only the bit-exact
        // ED-vs-recompute invariant can catch it.
        let b = base();
        let bytes = encode_with_epoch(&b, 1).to_vec();
        let mut flipped = None;
        'outer: for g in b.groups() {
            for &(_, d) in g.members() {
                if d > 0.0 {
                    let mut attempt = bytes.clone();
                    if flip_unique_f64(&mut attempt, d) {
                        flipped = Some(attempt);
                        break 'outer;
                    }
                }
            }
        }
        assert_rejected_by_validator(flipped.expect("some member ED has a unique byte pattern"));
    }

    #[test]
    fn validator_rejects_crc_valid_snapshot_with_corrupt_sum() {
        // Same trick against a running-sum cell: the representative was
        // frozen as `sum · (1/n)`, so a 1-ulp drift in the sum breaks that
        // bit-exact relation (and nothing else the parser checks).
        let b = base();
        let bytes = encode_with_epoch(&b, 1).to_vec();
        let mut flipped = None;
        'outer: for slab in b.store().slabs() {
            for local in 0..slab.group_count() {
                if slab.member_count(local) < 2 {
                    continue; // singleton sums equal raw values elsewhere
                }
                for &s in slab.sum_row(local) {
                    if s != 0.0 {
                        let mut attempt = bytes.clone();
                        if flip_unique_f64(&mut attempt, s) {
                            flipped = Some(attempt);
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert_rejected_by_validator(flipped.expect("some sum cell has a unique byte pattern"));
    }

    #[test]
    fn no_valid_crc_u64_patch_can_panic_the_columnar_decoder() {
        // Adversarial robustness sweep: overwrite every u64-aligned payload
        // position with u64::MAX, 0 and 1, *recompute the CRC* (so the
        // integrity footer passes), and decode. Every outcome must be a
        // clean `Result` — hostile counts, lengths, radii, refs or config
        // fields may yield `SnapshotCorrupt`, but never a panic or overflow.
        // One thread per value: a panic in any of them fails the scope.
        let b = base();
        let bytes = encode_with_epoch(&b, 1).to_vec();
        let body_end = bytes.len() - 4;
        std::thread::scope(|scope| {
            for value in [u64::MAX, 0, 1] {
                let bytes = &bytes;
                scope.spawn(move || {
                    for at in (4 + 1 + 8..body_end).step_by(8) {
                        let end = (at + 8).min(body_end);
                        let mut mutated = bytes.clone();
                        mutated[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
                        reseal(&mut mutated);
                        let _ = decode_with_epoch(&mutated); // must not panic
                    }
                });
            }
        });
    }

    /// Rewrites the CRC footer over everything before it.
    fn reseal(bytes: &mut [u8]) {
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Patches the 8 bytes at `at` of `base()`'s v5 snapshot with each of
    /// `values`, re-seals the CRC, and requires a `config:` rejection.
    /// `at` counts from the config's first byte; `was` is the field's
    /// stored value, which pins the offset.
    fn assert_config_patch_rejected(at: usize, was: [u8; 8], values: &[[u8; 8]]) {
        let bytes = encode_with_epoch(&base(), 1).to_vec();
        let at = 4 + 1 + 8 + at;
        assert_eq!(bytes[at..at + 8], was, "field offset");
        for value in values {
            let mut patched = bytes.clone();
            patched[at..at + 8].copy_from_slice(value);
            reseal(&mut patched);
            match decode_with_epoch(&patched) {
                Err(OnexError::SnapshotCorrupt(msg)) => {
                    assert!(msg.starts_with("config: "), "{value:?}: {msg}")
                }
                other => panic!("{value:?}: {:?}", other.map(|_| ())),
            }
        }
    }

    /// Config offsets of `base()`'s default config: `st`, then a banded
    /// window (tag + radius), `min_len`, `max_len = None` (tag only), then
    /// the two strides.
    const LEN_STRIDE_AT: usize = 8 + 9 + 8 + 1;
    const START_STRIDE_AT: usize = LEN_STRIDE_AT + 8;

    #[test]
    fn crc_valid_snapshot_with_zero_len_stride_is_corrupt() {
        // Used to panic in `step_by(0)` while assembling the base.
        assert_config_patch_rejected(LEN_STRIDE_AT, 1u64.to_le_bytes(), &[0u64.to_le_bytes()]);
    }

    #[test]
    fn crc_valid_snapshot_with_zero_start_stride_is_corrupt() {
        // Used to loop forever collecting the membership audit's refs,
        // until the allocation failed and aborted the process.
        assert_config_patch_rejected(START_STRIDE_AT, 1u64.to_le_bytes(), &[0u64.to_le_bytes()]);
    }

    #[test]
    fn crc_valid_snapshot_with_non_finite_or_non_positive_st_is_corrupt() {
        // Used to load and serve.
        let st = OnexConfig::default().st;
        assert_config_patch_rejected(
            0,
            st.to_le_bytes(),
            &[f64::NAN, f64::INFINITY, -1.0, 0.0].map(f64::to_le_bytes),
        );
    }

    #[test]
    fn explorer_load_refuses_a_zero_stride_snapshot() {
        let mut bytes = encode_with_epoch(&base(), 1).to_vec();
        let at = 4 + 1 + 8 + START_STRIDE_AT;
        bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        reseal(&mut bytes);
        let dir = std::env::temp_dir().join(format!("onex_zero_stride_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.onex");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = Explorer::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            matches!(loaded, Err(OnexError::SnapshotCorrupt(ref m)) if m.starts_with("config: ")),
            "{:?}",
            loaded.map(|_| ())
        );
    }
}
