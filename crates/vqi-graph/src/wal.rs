//! Write-ahead log: durable, epoch-tagged record framing with
//! torn-tail recovery.
//!
//! A long-lived VQI service survives `kill -9` by writing every update
//! batch to an append-only log *before* publishing the epoch it
//! produces (`vqi-serve` wires this through its snapshot store; see
//! DESIGN §13). This module owns the storage-level half of that story:
//!
//! * **Framing** — each record is `len: u32 LE | epoch: u64 LE |
//!   payload | digest: u64 LE`, where the digest is the splitmix64 fold
//!   of [`bytes_digest`] over the epoch and the payload. A segment file
//!   starts with the 8-byte magic `VQIWAL01`.
//! * **Durability** — [`WalWriter::append`] pushes the frame to the OS
//!   with plain `write(2)` calls and [`WalWriter::sync`] runs
//!   `fdatasync`; callers publish an epoch only after the sync returns
//!   (the fsync-before-publish ordering argument lives in DESIGN §13).
//! * **Recovery** — [`read_segment`] replays a segment and *truncates*
//!   any torn or corrupt tail record instead of failing: a crash
//!   mid-append must cost at most the batch that was being appended,
//!   never the log. Corruption is detected by the per-record digest, a
//!   length field pointing past end-of-file, or a missing trailer.
//! * **Codecs** — little-endian serializers for the two batch
//!   vocabularies that flow through logs: [`EdgeDelta`] (the
//!   incremental-maintenance batches of [`crate::delta`]) and whole
//!   [`Graph`]s (collection additions), both reconstructing
//!   insertion-order-identical values so replay is bit-identical.
//!
//! Crash points: under an armed [`vqi_runtime::fault::FaultPlan`] with
//! a `crash_rate`, `append` can die mid-record (site `wal.append.mid`,
//! after the header and payload but before the digest trailer) or tear
//! the frame at a seeded byte offset (site `wal.append.torn`). Both
//! leave exactly the torn tail the recovery path must truncate.

use crate::delta::EdgeDelta;
use crate::graph::{Graph, NodeId};
use rand::splitmix64;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vqi_runtime::VqiError;

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"VQIWAL01";

/// Upper bound on a single record's payload (1 GiB). A length field
/// above this is treated as tail corruption, not an allocation request.
pub const MAX_RECORD_BYTES: usize = 1 << 30;

const FRAME_HEADER: usize = 4 + 8; // len + epoch
const FRAME_TRAILER: usize = 8; // digest

/// Splitmix64 fold over a byte slice: 8-byte little-endian chunks, then
/// the zero-padded tail, then the length — the digest used by WAL
/// records and the `vqi-serve` checkpoint container.
pub fn bytes_digest(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    let mut fold = |x: u64| h = splitmix64(h ^ x);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        fold(u64::from_le_bytes(c.try_into().expect("8 bytes")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        fold(u64::from_le_bytes(tail));
    }
    fold(bytes.len() as u64);
    h
}

fn record_digest(epoch: u64, payload: &[u8]) -> u64 {
    bytes_digest(0x57_A1D1_6E57 ^ splitmix64(epoch), payload)
}

fn io_err(path: &Path, what: &str, e: std::io::Error) -> VqiError {
    VqiError::Parse {
        line: 0,
        reason: format!("{what} {}: {e}", path.display()),
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch the payload publishes.
    pub epoch: u64,
    /// The opaque batch bytes (see the codecs below).
    pub payload: Vec<u8>,
}

/// What [`read_segment`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records with valid digests, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic included); everything
    /// past it is a torn or corrupt tail.
    pub valid_len: u64,
    /// Bytes past the valid prefix (0 on a clean segment).
    pub torn_bytes: u64,
}

impl SegmentScan {
    /// True when the segment ended with a torn or corrupt record.
    pub fn truncated(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// An append-only WAL segment writer. One writer owns one segment file;
/// rotation (new segment per checkpoint) is the caller's business.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
}

impl WalWriter {
    /// Creates a fresh segment at `path` (truncating any existing file)
    /// and writes the magic. The magic is not synced by itself — the
    /// first [`WalWriter::sync`] covers it.
    pub fn create(path: impl AsRef<Path>) -> Result<WalWriter, VqiError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(|e| io_err(&path, "cannot create", e))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| io_err(&path, "cannot write", e))?;
        Ok(WalWriter {
            file,
            path,
            len: WAL_MAGIC.len() as u64,
        })
    }

    /// Reopens an existing segment for appending, first truncating it
    /// to `valid_len` (the [`SegmentScan`] verdict) so a torn tail is
    /// physically removed before new records go after it.
    pub fn reopen(path: impl AsRef<Path>, valid_len: u64) -> Result<WalWriter, VqiError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, "cannot open", e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err(&path, "cannot truncate", e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err(&path, "cannot seek", e))?;
        Ok(WalWriter {
            file,
            path,
            len: valid_len,
        })
    }

    /// The segment path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended so far (magic included) — record this before an
    /// append to be able to [`WalWriter::truncate_to`] it away.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the segment holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Physically truncates the segment back to `len` — how a caller
    /// discards a record whose batch failed to take effect (the record
    /// was never acted on, so removing it keeps log and state agreed).
    pub fn truncate_to(&mut self, len: u64) -> Result<(), VqiError> {
        assert!(len >= WAL_MAGIC.len() as u64, "cannot truncate the magic");
        self.file
            .set_len(len)
            .map_err(|e| io_err(&self.path, "cannot truncate", e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&self.path, "cannot seek", e))?;
        self.len = len;
        Ok(())
    }

    /// Appends one record. The frame reaches the OS before this
    /// returns, but is *not* durable until [`WalWriter::sync`]; callers
    /// must sync before acting on the record (publishing its epoch).
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<(), VqiError> {
        assert!(payload.len() <= MAX_RECORD_BYTES, "record too large");
        let digest = record_digest(epoch, payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len() + FRAME_TRAILER);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&epoch.to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&digest.to_le_bytes());

        if vqi_runtime::fault::active() {
            // torn-write crash point: push a seeded prefix of the frame
            // to the OS, make it durable, and die — the canonical torn
            // tail the recovery suite must truncate
            if let Some(cut) = vqi_runtime::fault::torn_write("wal.append.torn", epoch, frame.len())
            {
                let _ = self.file.write_all(&frame[..cut]);
                let _ = self.file.sync_data();
                vqi_runtime::fault::crash_now("wal.append.torn", epoch);
            }
        }

        let write_all = |f: &mut File, bytes: &[u8]| -> Result<(), VqiError> {
            f.write_all(bytes)
                .map_err(|e| io_err(&self.path, "cannot append to", e))
        };
        // mid-append crash point: header and payload are on their way
        // to the OS, the digest trailer is not — a structurally torn
        // record, distinct from the seeded torn-write cut above
        write_all(&mut self.file, &frame[..FRAME_HEADER + payload.len()])?;
        if vqi_runtime::fault::active() {
            let _ = self.file.sync_data();
            vqi_runtime::fault::maybe_crash("wal.append.mid", epoch);
        }
        write_all(&mut self.file, &frame[FRAME_HEADER + payload.len()..])?;
        self.len += frame.len() as u64;
        vqi_observe::incr("wal.append", 1);
        vqi_observe::incr("wal.append_bytes", frame.len() as u64);
        Ok(())
    }

    /// Makes every appended record durable (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), VqiError> {
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "cannot fsync", e))?;
        vqi_observe::incr("wal.fsync", 1);
        Ok(())
    }
}

/// Reads a segment, validating the magic and every record digest.
/// Returns the valid prefix and the length of the torn/corrupt tail, if
/// any — the *only* error case is an unreadable file or a bad magic
/// (the file is not a WAL segment at all); mid-file damage is, by the
/// tail-truncation rule, the end of the log.
pub fn read_segment(path: impl AsRef<Path>) -> Result<SegmentScan, VqiError> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, "cannot read", e))?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(VqiError::Parse {
            line: 1,
            reason: format!("{} is not a VQIWAL01 segment", path.display()),
        });
    }
    let mut scan = SegmentScan {
        valid_len: WAL_MAGIC.len() as u64,
        ..Default::default()
    };
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER + FRAME_TRAILER {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_BYTES || rest.len() < FRAME_HEADER + len + FRAME_TRAILER {
            break; // corrupt length or torn payload/trailer
        }
        let epoch = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        let stored = u64::from_le_bytes(
            rest[FRAME_HEADER + len..FRAME_HEADER + len + FRAME_TRAILER]
                .try_into()
                .expect("8 bytes"),
        );
        if record_digest(epoch, payload) != stored {
            break; // bit rot or a reused torn region
        }
        scan.records.push(WalRecord {
            epoch,
            payload: payload.to_vec(),
        });
        pos += FRAME_HEADER + len + FRAME_TRAILER;
        scan.valid_len = pos as u64;
    }
    scan.torn_bytes = bytes.len() as u64 - scan.valid_len;
    vqi_observe::incr("wal.replayed", scan.records.len() as u64);
    if scan.truncated() {
        vqi_observe::incr("wal.truncated", 1);
    }
    Ok(scan)
}

// ---- payload codecs -----------------------------------------------------

fn take_u32(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32, VqiError> {
    let end = pos.checked_add(4).filter(|&e| e <= bytes.len());
    match end {
        Some(e) => {
            let v = u32::from_le_bytes(bytes[*pos..e].try_into().expect("4 bytes"));
            *pos = e;
            Ok(v)
        }
        None => Err(VqiError::Parse {
            line: 0,
            reason: format!("payload truncated reading {what}"),
        }),
    }
}

/// Serializes an [`EdgeDelta`] batch: delete count, insert count, then
/// the endpoint pairs in batch order (deletes first).
pub fn encode_delta(delta: &EdgeDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * (delta.deletes.len() + delta.inserts.len()));
    out.extend_from_slice(&(delta.deletes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(delta.inserts.len() as u32).to_le_bytes());
    for &(u, v) in delta.deletes.iter().chain(delta.inserts.iter()) {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes [`encode_delta`] bytes; pair order (and therefore replay
/// behavior) is preserved exactly.
pub fn decode_delta(bytes: &[u8]) -> Result<EdgeDelta, VqiError> {
    let mut pos = 0usize;
    let nd = take_u32(bytes, &mut pos, "delete count")? as usize;
    let ni = take_u32(bytes, &mut pos, "insert count")? as usize;
    let need = nd
        .checked_add(ni)
        .and_then(|p| p.checked_mul(8))
        .and_then(|b| b.checked_add(8));
    if need != Some(bytes.len()) {
        return Err(VqiError::Parse {
            line: 0,
            reason: format!(
                "delta payload length {} does not match {nd} deletes + {ni} inserts",
                bytes.len()
            ),
        });
    }
    let pair = |pos: &mut usize| -> Result<(u32, u32), VqiError> {
        Ok((
            take_u32(bytes, pos, "endpoint")?,
            take_u32(bytes, pos, "endpoint")?,
        ))
    };
    let mut delta = EdgeDelta::new();
    for _ in 0..nd {
        delta.deletes.push(pair(&mut pos)?);
    }
    for _ in 0..ni {
        delta.inserts.push(pair(&mut pos)?);
    }
    Ok(delta)
}

/// Serializes a labeled [`Graph`]: node count, edge count, node labels,
/// then `(u, v, label)` per edge in insertion order — the order
/// [`Graph::add_edge`] replays to a bit-identical graph.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 * g.node_count() + 12 * g.edge_count());
    out.extend_from_slice(&(g.node_count() as u32).to_le_bytes());
    out.extend_from_slice(&(g.edge_count() as u32).to_le_bytes());
    for v in g.nodes() {
        out.extend_from_slice(&g.node_label(v).to_le_bytes());
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        out.extend_from_slice(&u.0.to_le_bytes());
        out.extend_from_slice(&v.0.to_le_bytes());
        out.extend_from_slice(&g.edge_label(e).to_le_bytes());
    }
    out
}

/// Decodes [`encode_graph`] bytes into a graph with identical ids,
/// labels, and adjacency-row order. Validates counts against the
/// payload size *before* allocating, and every edge against
/// [`Graph::add_edge`]'s acceptance rules (no self-loops, endpoints in
/// range, no duplicates).
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, VqiError> {
    let mut pos = 0usize;
    let n = take_u32(bytes, &mut pos, "node count")? as usize;
    let m = take_u32(bytes, &mut pos, "edge count")? as usize;
    let need = n
        .checked_mul(4)
        .and_then(|nb| m.checked_mul(12).map(|mb| (nb, mb)))
        .and_then(|(nb, mb)| nb.checked_add(mb))
        .and_then(|b| b.checked_add(8));
    if need != Some(bytes.len()) {
        return Err(VqiError::Parse {
            line: 0,
            reason: format!(
                "graph payload length {} does not match n={n}, m={m}",
                bytes.len()
            ),
        });
    }
    let mut g = Graph::with_capacity(n, m);
    for _ in 0..n {
        g.add_node(take_u32(bytes, &mut pos, "node label")?);
    }
    for i in 0..m {
        let u = take_u32(bytes, &mut pos, "edge endpoint")?;
        let v = take_u32(bytes, &mut pos, "edge endpoint")?;
        let l = take_u32(bytes, &mut pos, "edge label")?;
        if u as usize >= n || v as usize >= n {
            return Err(VqiError::Parse {
                line: 0,
                reason: format!("edge {i} endpoint out of range: ({u}, {v}) with n={n}"),
            });
        }
        if g.add_edge(NodeId(u), NodeId(v), l).is_none() {
            return Err(VqiError::Parse {
                line: 0,
                reason: format!("edge {i} rejected (self-loop or duplicate): ({u}, {v})"),
            });
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{assign_labels, erdos_renyi};
    use crate::index::Fingerprint;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vqi_wal_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn sample_graph(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = erdos_renyi(24, 0.2, 0, &mut rng);
        assign_labels(&mut g, 3, 2, &mut rng);
        g
    }

    #[test]
    fn wal_roundtrips_records_in_order() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("seg.wal");
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![7u8; 300]];
        {
            let mut w = WalWriter::create(&path).expect("create");
            for (i, p) in payloads.iter().enumerate() {
                w.append(i as u64 + 1, p).expect("append");
            }
            w.sync().expect("sync");
        }
        let scan = read_segment(&path).expect("read");
        assert!(!scan.truncated());
        assert_eq!(scan.records.len(), 3);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.epoch, i as u64 + 1);
            assert_eq!(r.payload, payloads[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_and_corrupt_tails_are_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let path = dir.join("seg.wal");
        let mut w = WalWriter::create(&path).expect("create");
        w.append(1, b"first").expect("append");
        w.append(2, b"second record").expect("append");
        w.sync().expect("sync");
        let clean = std::fs::read(&path).expect("read back");
        let clean_scan = read_segment(&path).expect("scan");
        assert_eq!(clean_scan.valid_len, clean.len() as u64);

        // every strict prefix that cuts into record 2 yields exactly
        // record 1 plus a torn tail — the truncation sweep
        let rec1_end = WAL_MAGIC.len() + FRAME_HEADER + 5 + FRAME_TRAILER;
        for cut in rec1_end + 1..clean.len() {
            std::fs::write(&path, &clean[..cut]).expect("write torn");
            let scan = read_segment(&path).expect("torn scan");
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, rec1_end as u64, "cut at {cut}");
            assert!(scan.truncated(), "cut at {cut}");
        }

        // a flipped payload bit in the *last* record kills only it
        let mut flipped = clean.clone();
        let off = rec1_end + FRAME_HEADER + 3;
        flipped[off] ^= 0x40;
        std::fs::write(&path, &flipped).expect("write flipped");
        let scan = read_segment(&path).expect("flipped scan");
        assert_eq!(scan.records.len(), 1);
        assert!(scan.truncated());

        // an absurd length field is corruption, not an allocation
        let mut huge = clean[..rec1_end].to_vec();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &huge).expect("write huge");
        let scan = read_segment(&path).expect("huge scan");
        assert_eq!(scan.records.len(), 1);
        assert!(scan.truncated());

        // reopen truncates the torn tail physically and appends cleanly
        std::fs::write(&path, &clean[..clean.len() - 3]).expect("write torn again");
        let scan = read_segment(&path).expect("scan before reopen");
        let mut w = WalWriter::reopen(&path, scan.valid_len).expect("reopen");
        w.append(2, b"second again").expect("append");
        w.sync().expect("sync");
        let healed = read_segment(&path).expect("healed scan");
        assert!(!healed.truncated());
        assert_eq!(healed.records.len(), 2);
        assert_eq!(healed.records[1].payload, b"second again");

        // a file that is not a WAL at all is the one hard error
        std::fs::write(&path, b"NOTAWAL!xxxx").expect("write junk");
        assert!(matches!(
            read_segment(&path),
            Err(VqiError::Parse { line: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_codec_roundtrips_and_rejects_damage() {
        let delta = EdgeDelta {
            deletes: vec![(3, 9), (0, 1)],
            inserts: vec![(5, 2), (7, 7), (1, 4)],
        };
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).expect("decode");
        assert_eq!(back.deletes, delta.deletes);
        assert_eq!(back.inserts, delta.inserts);
        assert!(decode_delta(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_delta(&bytes[..3]).is_err());
        let mut lying = bytes.clone();
        lying[0] = lying[0].wrapping_add(1); // delete count lies
        assert!(decode_delta(&lying).is_err());
        // a count that would overflow the size check must error, not OOM
        let mut huge = bytes;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_delta(&huge).is_err());
    }

    #[test]
    fn graph_codec_is_bit_identical_and_rejects_damage() {
        for seed in 0..6u64 {
            let g = sample_graph(seed);
            let bytes = encode_graph(&g);
            let back = decode_graph(&bytes).expect("decode");
            assert_eq!(back.node_count(), g.node_count());
            assert_eq!(back.edge_count(), g.edge_count());
            for v in g.nodes() {
                assert_eq!(back.node_label(v), g.node_label(v));
                assert_eq!(back.neighbor_slice(v), g.neighbor_slice(v));
            }
            for e in g.edges() {
                assert_eq!(back.endpoints(e), g.endpoints(e));
                assert_eq!(back.edge_label(e), g.edge_label(e));
            }
            assert_eq!(Fingerprint::of(&back), Fingerprint::of(&g));
        }
        let g = sample_graph(1);
        let bytes = encode_graph(&g);
        for cut in [0usize, 3, 7, bytes.len() - 1] {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut huge = bytes.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_graph(&huge).is_err(), "edge-count lie must error");
        // an out-of-range endpoint is rejected by validation, not a panic
        let mut bad = bytes;
        let edge0 = 8 + 4 * g.node_count();
        bad[edge0..edge0 + 4].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(decode_graph(&bad).is_err());
    }

    #[test]
    fn bytes_digest_separates_lengths_and_seeds() {
        assert_ne!(bytes_digest(1, b"ab"), bytes_digest(1, b"abc"));
        assert_ne!(bytes_digest(1, b"ab"), bytes_digest(2, b"ab"));
        assert_ne!(
            bytes_digest(1, &[0u8; 8]),
            bytes_digest(1, &[0u8; 16]),
            "zero padding must not collide across lengths"
        );
        assert_eq!(bytes_digest(9, b"same"), bytes_digest(9, b"same"));
    }
}
