//! Crash-safe persistent cache tier: an append-only segment log.
//!
//! Every successful job execution is appended to the current segment
//! under `--cache-dir` as one length-framed, CRC-checked record, then
//! flushed with `sync_data` before the response leaves the server. On
//! startup, [`DiskCache::open`] replays every segment once and returns
//! each recovered key's stats bytes and [`RecordLoc`], truncating a torn
//! tail (a record cut short by a crash mid-write) and quarantining any
//! record whose CRC does not match its payload — corrupt bytes are
//! counted and preserved in `quarantine.log` for forensics, but **never
//! served**. The caller (the worker) fills its memory tier with the
//! stats; a record's JSONL stays in the log, and [`DiskCache::read`]
//! reads it back, checked again, only when a request asks for it.
//!
//! # Record format
//!
//! All integers little-endian:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 key][u32 stats_len][stats_json][u32 jsonl_len][jsonl]
//! ```
//!
//! Segments are named `segment-NNNNN.log` and rotated at
//! [`SEGMENT_ROTATE_BYTES`]; recovery replays them in name order, so a
//! later record for the same key wins (there is at most one writer, so
//! duplicates only arise from a retry racing a crash — both carry the
//! same bytes anyway, because the engine is deterministic).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Rotate to a fresh segment once the current one exceeds this size.
pub const SEGMENT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Upper bound on a single record's payload: [`DiskCache::append`]
/// refuses a larger one, and recovery treats a larger length in a
/// segment header as tail corruption and truncates it.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

const HEADER_BYTES: usize = 8;
/// Minimum payload: key (8) + two length prefixes (4 + 4).
const MIN_PAYLOAD_BYTES: usize = 16;

const CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
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

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One cache record's bytes: what an execution produces, what
/// [`DiskCache::append`] writes and what [`DiskCache::read`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskRecord {
    /// Canonical `SimStats` JSON, byte-identical to the original run.
    pub stats_json: String,
    /// Labelled JSONL event text captured during the original run.
    pub jsonl: String,
}

/// Where one record sits in the segment log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLoc {
    /// Segment number: the record is in `segment-NNNNN.log`.
    pub segment: u32,
    /// Byte offset of the record's header in the segment.
    pub offset: u64,
    /// Record length on disk, including its 8-byte header.
    pub len: u32,
}

/// What [`DiskCache::open`] recovered: each key's stats bytes and the
/// location of its record.
pub type Recovered = HashMap<u64, (String, RecordLoc)>;

/// What [`DiskCache::open`] found while replaying the segment log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records recovered (one per key).
    pub records: u64,
    /// Records with intact framing but a CRC mismatch — quarantined.
    pub corrupt: u64,
    /// Segments whose tail was truncated at a torn record.
    pub truncated_tails: u64,
    /// Segment files scanned.
    pub segments: u64,
}

#[derive(Debug)]
struct SegmentWriter {
    file: File,
    seq: u32,
    written: u64,
}

#[derive(Debug)]
struct DiskInner {
    writer: Option<SegmentWriter>,
    next_seq: u32,
    records: u64,
}

/// The persistent tier: an append-only segment log. It holds no record
/// bytes in memory; [`DiskCache::open`] hands the recovered stats and
/// locations to the caller, and [`DiskCache::read`] reads one record
/// back.
///
/// All methods take `&self`; the single internal lock covers the active
/// segment writer and the record count, so appends are serialized.
/// Reads open the segment by name and take no lock.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    inner: Mutex<DiskInner>,
}

fn segment_path(dir: &Path, seq: u32) -> PathBuf {
    dir.join(format!("segment-{seq:05}.log"))
}

fn encode_record(key: u64, stats_json: &str, jsonl: &str) -> Vec<u8> {
    let payload_len = MIN_PAYLOAD_BYTES + stats_json.len() + jsonl.len();
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // CRC backfilled below.
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(stats_json.len() as u32).to_le_bytes());
    buf.extend_from_slice(stats_json.as_bytes());
    buf.extend_from_slice(&(jsonl.len() as u32).to_le_bytes());
    buf.extend_from_slice(jsonl.as_bytes());
    let crc = crc32(&buf[HEADER_BYTES..]);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4-byte slice"))
}

/// Splits a CRC-checked payload into its key, stats JSON and JSONL.
fn decode_payload(payload: &[u8]) -> Option<(u64, &str, &str)> {
    if payload.len() < MIN_PAYLOAD_BYTES {
        return None;
    }
    let key = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let stats_len = le_u32(payload, 8) as usize;
    let stats_end = 12usize.checked_add(stats_len)?;
    if stats_end + 4 > payload.len() {
        return None;
    }
    let stats_json = std::str::from_utf8(&payload[12..stats_end]).ok()?;
    let jsonl_len = le_u32(payload, stats_end) as usize;
    let jsonl_end = (stats_end + 4).checked_add(jsonl_len)?;
    if jsonl_end != payload.len() {
        return None;
    }
    let jsonl = std::str::from_utf8(&payload[stats_end + 4..jsonl_end]).ok()?;
    Some((key, stats_json, jsonl))
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory, replays every
    /// segment, and returns the log, what recovery found, and each
    /// recovered key's stats bytes and record location (a later record
    /// for a key wins).
    ///
    /// Recovery is idempotent: torn tails are physically truncated, so
    /// a second open of the same directory reports zero repairs.
    ///
    /// Only one `DiskCache` may be open on a directory at a time: an
    /// open during another's append would truncate the record being
    /// written as a torn tail.
    pub fn open(dir: &Path) -> io::Result<(DiskCache, RecoveryReport, Recovered)> {
        // A new directory's name is durable only once its parent is
        // synced, like a new segment's (DESIGN §12.1): sync the parent
        // of every level this call creates.
        let missing: Vec<&Path> = dir
            .ancestors()
            .take_while(|level| !level.as_os_str().is_empty() && !level.exists())
            .collect();
        std::fs::create_dir_all(dir)?;
        for level in missing {
            let parent = level
                .parent()
                .filter(|parent| !parent.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            File::open(parent)?.sync_all()?;
        }
        let mut segments: Vec<(u32, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("segment-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u32>().ok())
            {
                segments.push((seq, entry.path()));
            }
        }
        segments.sort_by_key(|(seq, _)| *seq);

        let mut report = RecoveryReport::default();
        let mut records = HashMap::new();
        let mut quarantined: Vec<u8> = Vec::new();
        for (seq, path) in &segments {
            report.segments += 1;
            Self::replay_segment(*seq, path, &mut records, &mut report, &mut quarantined)?;
        }
        if !quarantined.is_empty() {
            let mut qfile = OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("quarantine.log"))?;
            qfile.write_all(&quarantined)?;
            qfile.sync_data()?;
        }
        report.records = records.len() as u64;
        let next_seq = segments.last().map_or(0, |(seq, _)| seq + 1);
        Ok((
            DiskCache {
                dir: dir.to_path_buf(),
                inner: Mutex::new(DiskInner {
                    writer: None,
                    next_seq,
                    records: report.records,
                }),
            },
            report,
            records,
        ))
    }

    fn replay_segment(
        seq: u32,
        path: &Path,
        records: &mut Recovered,
        report: &mut RecoveryReport,
        quarantined: &mut Vec<u8>,
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        let mut off = 0usize;
        let mut truncate_at: Option<usize> = None;
        while off < buf.len() {
            let remaining = buf.len() - off;
            if remaining < HEADER_BYTES {
                truncate_at = Some(off);
                break;
            }
            let len = le_u32(&buf, off);
            let crc = le_u32(&buf, off + 4);
            if len > MAX_RECORD_BYTES || (len as usize) > remaining - HEADER_BYTES {
                // Implausible or cut-short record: everything from here
                // on is a torn tail.
                truncate_at = Some(off);
                break;
            }
            let body = &buf[off + HEADER_BYTES..off + HEADER_BYTES + len as usize];
            let record_end = off + HEADER_BYTES + len as usize;
            if crc32(body) != crc {
                report.corrupt += 1;
                quarantined.extend_from_slice(&buf[off..record_end]);
            } else if let Some((key, stats_json, _)) = decode_payload(body) {
                let loc = RecordLoc {
                    segment: seq,
                    offset: off as u64,
                    len: HEADER_BYTES as u32 + len,
                };
                records.insert(key, (stats_json.to_owned(), loc));
            } else {
                // Framing and CRC agree but the payload structure is
                // nonsense — quarantine rather than guess.
                report.corrupt += 1;
                quarantined.extend_from_slice(&buf[off..record_end]);
            }
            off = record_end;
        }
        if let Some(cut) = truncate_at {
            report.truncated_tails += 1;
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(cut as u64)?;
            file.sync_data()?;
        }
        Ok(())
    }

    /// Records on disk: those recovered at open plus every successful
    /// append since.
    pub fn records(&self) -> u64 {
        self.inner.lock().expect("disk cache poisoned").records
    }

    /// Appends one record and fsyncs it. Returns where the record sits;
    /// its `len` is the number of bytes written to the segment log. A
    /// payload over [`MAX_RECORD_BYTES`], which recovery would truncate
    /// as a torn tail, is refused before any byte is written.
    pub fn append(&self, key: u64, stats_json: &str, jsonl: &str) -> io::Result<RecordLoc> {
        let payload_len = MIN_PAYLOAD_BYTES + stats_json.len() + jsonl.len();
        if payload_len > MAX_RECORD_BYTES as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record {key:016x}: {payload_len}-byte payload exceeds {MAX_RECORD_BYTES}"),
            ));
        }
        let encoded = encode_record(key, stats_json, jsonl);
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let loc = Self::write(&self.dir, &mut inner, &encoded)?;
        inner.records += 1;
        Ok(loc)
    }

    /// Chaos hook: writes only the first `keep_bytes` bytes of the
    /// record (simulating a crash mid-append), does **not** count it,
    /// and rotates to a fresh segment so later appends land after the
    /// torn tail exactly as they would after a real crash and restart.
    pub fn append_torn(
        &self,
        key: u64,
        stats_json: &str,
        jsonl: &str,
        keep_bytes: usize,
    ) -> io::Result<u64> {
        let encoded = encode_record(key, stats_json, jsonl);
        let cut = keep_bytes.min(encoded.len().saturating_sub(1)).max(1);
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let written = Self::write(&self.dir, &mut inner, &encoded[..cut]);
        // Force rotation: the torn bytes must stay a *tail*.
        inner.writer = None;
        written.map(|_| cut as u64)
    }

    /// Writes `bytes` at the end of the active segment and fsyncs them.
    /// A failed write or sync drops the writer, so any partial bytes
    /// stay a torn tail and the next append opens a fresh segment.
    fn write(dir: &Path, inner: &mut DiskInner, bytes: &[u8]) -> io::Result<RecordLoc> {
        let writer = Self::writer_for(dir, inner, bytes.len() as u64)?;
        let loc = RecordLoc {
            segment: writer.seq,
            offset: writer.written,
            len: bytes.len() as u32,
        };
        match writer
            .file
            .write_all(bytes)
            .and_then(|()| writer.file.sync_data())
        {
            Ok(()) => {
                writer.written += bytes.len() as u64;
                Ok(loc)
            }
            Err(err) => {
                inner.writer = None;
                Err(err)
            }
        }
    }

    /// Reads back the record for `key` at `loc` and checks its framing,
    /// CRC and key. An error names the record; damaged bytes are never
    /// returned.
    pub fn read(&self, key: u64, loc: RecordLoc) -> io::Result<DiskRecord> {
        let name = format!(
            "record {key:016x} at segment-{:05}.log offset {}",
            loc.segment, loc.offset
        );
        let mut buf = vec![0u8; loc.len as usize];
        File::open(segment_path(&self.dir, loc.segment))
            .and_then(|mut file| {
                file.seek(SeekFrom::Start(loc.offset))?;
                file.read_exact(&mut buf)
            })
            .map_err(|err| io::Error::new(err.kind(), format!("{name}: {err}")))?;
        let damaged =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {what}"));
        if buf.len() < HEADER_BYTES || le_u32(&buf, 0) as usize != buf.len() - HEADER_BYTES {
            return Err(damaged("length mismatch"));
        }
        let payload = &buf[HEADER_BYTES..];
        if crc32(payload) != le_u32(&buf, 4) {
            return Err(damaged("CRC mismatch"));
        }
        match decode_payload(payload) {
            Some((found, stats_json, jsonl)) if found == key => Ok(DiskRecord {
                stats_json: stats_json.to_owned(),
                jsonl: jsonl.to_owned(),
            }),
            Some(_) => Err(damaged("key mismatch")),
            None => Err(damaged("malformed payload")),
        }
    }

    fn writer_for<'a>(
        dir: &Path,
        inner: &'a mut DiskInner,
        incoming: u64,
    ) -> io::Result<&'a mut SegmentWriter> {
        let rotate = inner
            .writer
            .as_ref()
            .is_some_and(|w| w.written + incoming > SEGMENT_ROTATE_BYTES && w.written > 0);
        if rotate {
            inner.writer = None;
        }
        if inner.writer.is_none() {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(dir, seq))?;
            // `sync_data` on the segment makes its bytes durable, not its
            // name: sync the directory once, before the first record in
            // the segment can be acknowledged (DESIGN §12.1).
            File::open(dir)?.sync_all()?;
            inner.writer = Some(SegmentWriter {
                file,
                seq,
                written: 0,
            });
        }
        Ok(inner.writer.as_mut().expect("writer just ensured"))
    }

    /// Path of the active segment (opens one if none is active yet);
    /// exposed for tests that corrupt the log in place.
    pub fn active_segment_path(&self) -> io::Result<PathBuf> {
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let writer = Self::writer_for(&self.dir, &mut inner, 0)?;
        Ok(segment_path(&self.dir, writer.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("schedtask-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_append_reopen() {
        let dir = tmp_dir("roundtrip");
        let appended = {
            let (cache, report, records) = DiskCache::open(&dir).expect("open");
            assert_eq!(report, RecoveryReport::default());
            assert!(records.is_empty());
            let first = cache.append(7, "{\"a\":1}", "line1\n").expect("append");
            let second = cache.append(9, "{\"b\":2}", "").expect("append");
            assert_eq!(cache.records(), 2);
            assert_eq!((first.segment, first.offset), (0, 0));
            assert_eq!(second.offset, u64::from(first.len));
            vec![(7, first), (9, second)]
        };
        let (cache, report, records) = DiskCache::open(&dir).expect("reopen");
        assert_eq!(report.records, 2);
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.truncated_tails, 0);
        assert_eq!(cache.records(), 2);
        for (key, loc) in appended {
            assert_eq!(records[&key].1, loc, "recovery finds the appended record");
        }
        assert_eq!(records[&7].0, "{\"a\":1}");
        let rec = cache.read(7, records[&7].1).expect("read back");
        assert_eq!(rec.stats_json, "{\"a\":1}");
        assert_eq!(rec.jsonl, "line1\n");
        assert_eq!(cache.read(9, records[&9].1).expect("read back").jsonl, "");
        assert!(!records.contains_key(&42));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn open_creates_every_missing_level() {
        let root = tmp_dir("nested");
        let dir = root.join("a").join("b");
        let (cache, _, _) = DiskCache::open(&dir).expect("open");
        cache.append(5, "{}", "").expect("append");
        let (_, report, _) = DiskCache::open(&dir).expect("reopen");
        assert_eq!(report.records, 1);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn read_refuses_a_damaged_or_mismatched_record() {
        let dir = tmp_dir("read");
        let (cache, _, _) = DiskCache::open(&dir).expect("open");
        let loc = cache.append(3, "{\"s\":3}", "stream\n").expect("append");
        let err = cache.read(4, loc).expect_err("another key's record");
        assert!(err.to_string().contains("key mismatch"), "{err}");
        let short = RecordLoc {
            len: loc.len - 1,
            ..loc
        };
        let err = cache.read(3, short).expect_err("wrong length");
        assert!(err.to_string().contains("length mismatch"), "{err}");
        let seg = cache.active_segment_path().expect("segment path");
        let mut bytes = std::fs::read(&seg).expect("read segment");
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).expect("write corrupted");
        let err = cache.read(3, loc).expect_err("flipped JSONL byte");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("record 0000000000000003 at segment-00000.log offset 0"),
            "{err}"
        );
        std::fs::remove_file(&seg).expect("remove segment");
        let err = cache.read(3, loc).expect_err("missing segment");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_append_rotates_to_a_fresh_segment() {
        let dir = tmp_dir("full");
        let (cache, _, _) = DiskCache::open(&dir).expect("open");
        // The first segment is a full disk until it is removed.
        let full = segment_path(&dir, 0);
        std::os::unix::fs::symlink("/dev/full", &full).expect("symlink /dev/full");
        cache
            .append(1, "{\"a\":1}", "x\n")
            .expect_err("a full disk fails the append");
        std::fs::remove_file(&full).expect("remove the full segment");
        let loc = cache
            .append(2, "{\"b\":2}", "y\n")
            .expect("the disk has space again");
        assert_eq!(loc.segment, 1, "the failed segment is not written again");
        assert_eq!(cache.records(), 1);
        drop(cache);
        let (cache, report, records) = DiskCache::open(&dir).expect("reopen");
        assert_eq!(report.records, 1);
        assert_eq!(
            cache.read(2, records[&2].1).expect("read back").jsonl,
            "y\n"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn oversized_append_is_refused_before_any_byte_is_written() {
        let dir = tmp_dir("oversized");
        let sizes = || {
            let mut sizes: Vec<(PathBuf, u64)> = std::fs::read_dir(&dir)
                .expect("list cache dir")
                .map(|e| {
                    let e = e.expect("dir entry");
                    (e.path(), e.metadata().expect("stat").len())
                })
                .collect();
            sizes.sort();
            sizes
        };
        {
            let (cache, _, _) = DiskCache::open(&dir).expect("open");
            cache.append(1, "{\"a\":1}", "x\n").expect("append");
            let before = sizes();
            // One byte over the payload bound recovery accepts.
            let jsonl = "y".repeat(MAX_RECORD_BYTES as usize - MIN_PAYLOAD_BYTES - 2 + 1);
            let err = cache
                .append(2, "{}", &jsonl)
                .expect_err("a record recovery would drop is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(sizes(), before, "no byte written, no segment opened");
            assert_eq!(cache.records(), 1);
            cache.append(3, "{\"c\":3}", "z\n").expect("append");
        }
        let (cache, report, records) = DiskCache::open(&dir).expect("reopen");
        assert_eq!(report.truncated_tails, 0);
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.records, 2);
        assert!(!records.contains_key(&2));
        assert_eq!(records[&1].0, "{\"a\":1}");
        assert_eq!(
            cache.read(3, records[&3].1).expect("read back").jsonl,
            "z\n"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_truncated_and_prior_records_survive() {
        let dir = tmp_dir("torn");
        {
            let (cache, _, _) = DiskCache::open(&dir).expect("open");
            cache.append(1, "{\"ok\":1}", "x\n").expect("append");
            cache
                .append_torn(2, "{\"torn\":1}", "never\n", 5)
                .expect("torn append");
            assert_eq!(cache.records(), 1, "a torn append is not a record");
        }
        let (_, report, records) = DiskCache::open(&dir).expect("recover");
        assert_eq!(report.records, 1);
        assert_eq!(report.truncated_tails, 1);
        assert_eq!(records[&1].0, "{\"ok\":1}");
        assert!(!records.contains_key(&2), "torn record must not be served");
        // Recovery is idempotent: the tail was physically truncated.
        let (_, report, _) = DiskCache::open(&dir).expect("recover again");
        assert_eq!(report.truncated_tails, 0);
        assert_eq!(report.records, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_record_is_quarantined_not_served() {
        let dir = tmp_dir("corrupt");
        let seg = {
            let (cache, _, _) = DiskCache::open(&dir).expect("open");
            cache.append(1, "{\"first\":1}", "").expect("append");
            cache.append(2, "{\"second\":2}", "").expect("append");
            cache.active_segment_path().expect("segment path")
        };
        // Flip one byte inside the first record's payload.
        let mut bytes = std::fs::read(&seg).expect("read segment");
        bytes[HEADER_BYTES + 2] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("write corrupted");
        let (_, report, records) = DiskCache::open(&dir).expect("recover");
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.records, 1);
        assert!(
            !records.contains_key(&1),
            "corrupt bytes must never be served"
        );
        assert_eq!(records[&2].0, "{\"second\":2}");
        assert!(
            dir.join("quarantine.log").exists(),
            "corrupt bytes preserved for forensics"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn later_record_wins_for_duplicate_key() {
        let dir = tmp_dir("dup");
        {
            let (cache, _, _) = DiskCache::open(&dir).expect("open");
            cache.append(5, "{\"v\":1}", "").expect("append");
            cache.append(5, "{\"v\":2}", "").expect("append");
        }
        let (_, report, records) = DiskCache::open(&dir).expect("recover");
        assert_eq!(report.records, 1);
        assert_eq!(records[&5].0, "{\"v\":2}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn appends_after_torn_write_land_in_new_segment() {
        let dir = tmp_dir("rotate");
        {
            let (cache, _, _) = DiskCache::open(&dir).expect("open");
            cache.append_torn(1, "{\"t\":1}", "", 3).expect("torn");
            cache.append(2, "{\"ok\":2}", "").expect("append");
        }
        let (_, report, records) = DiskCache::open(&dir).expect("recover");
        assert_eq!(report.segments, 2);
        assert_eq!(report.truncated_tails, 1);
        assert_eq!(records[&2].0, "{\"ok\":2}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
