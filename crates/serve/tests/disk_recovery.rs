//! Property tests for the persistent cache tier's crash discipline.
//!
//! Three invariants, each driven by proptest-chosen damage:
//!
//! 1. **Round-trip**: whatever was appended is recovered byte-identical
//!    by a reopen, with a clean recovery report.
//! 2. **Torn tail**: cutting the segment at an arbitrary byte keeps
//!    every record that was fully on disk before the cut, loses only
//!    the torn suffix, and a second open finds nothing left to repair.
//! 3. **Corruption**: flipping a byte inside a record quarantines that
//!    record — it is never recovered, so never served — while every
//!    other record is still recovered byte-identical.
//!
//! "Recovered byte-identical" means: recovery returns the appended
//! stats bytes, and [`DiskCache::read`] at the location it returns
//! reads back the appended stats and JSONL.

use std::path::PathBuf;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use schedtask_serve::disk::Recovered;
use schedtask_serve::{DiskCache, RecoveryReport};

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "schedtask-diskprop-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Appends `records` under distinct keys, returning the encoded length
/// of each record so damage offsets can be mapped to record boundaries.
fn fill(cache: &DiskCache, records: &[(String, String)]) -> Vec<u64> {
    records
        .iter()
        .enumerate()
        .map(|(i, (stats, jsonl))| {
            let loc = cache
                .append(i as u64 + 1, stats, jsonl)
                .expect("append succeeds");
            u64::from(loc.len)
        })
        .collect()
}

/// Checks that record `i` of `records` was recovered byte-identical.
fn check_recovered(
    cache: &DiskCache,
    recovered: &Recovered,
    records: &[(String, String)],
    i: usize,
) -> Result<(), TestCaseError> {
    let key = i as u64 + 1;
    let (stats, jsonl) = &records[i];
    let (recovered_stats, loc) = recovered
        .get(&key)
        .ok_or_else(|| TestCaseError::Fail(format!("record {i} was not recovered")))?;
    prop_assert_eq!(recovered_stats, stats);
    let record = cache
        .read(key, *loc)
        .map_err(|e| TestCaseError::Fail(format!("record {i} does not read back: {e}")))?;
    prop_assert_eq!(&record.stats_json, stats);
    prop_assert_eq!(&record.jsonl, jsonl);
    Ok(())
}

/// Printable-ASCII strings up to `max` bytes (the vendored proptest has
/// no regex string strategy).
fn text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn record_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((text(60), text(80)), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn reopen_serves_every_record_byte_identical(
        records in record_strategy(),
        case in 0u64..1_000_000,
    ) {
        let dir = tmp_dir("roundtrip", case);
        {
            let (cache, report, recovered) = DiskCache::open(&dir).expect("open fresh");
            prop_assert_eq!(report, RecoveryReport::default());
            prop_assert!(recovered.is_empty());
            fill(&cache, &records);
        }
        let (cache, report, recovered) = DiskCache::open(&dir).expect("reopen");
        prop_assert_eq!(report.records, records.len() as u64);
        prop_assert_eq!(report.corrupt, 0);
        prop_assert_eq!(report.truncated_tails, 0);
        prop_assert_eq!(recovered.len(), records.len());
        for i in 0..records.len() {
            check_recovered(&cache, &recovered, &records, i)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_keeps_exactly_the_records_before_the_cut(
        records in record_strategy(),
        cut_frac in 0.0f64..1.0,
        case in 0u64..1_000_000,
    ) {
        let dir = tmp_dir("torn", case);
        let (sizes, segment) = {
            let (cache, _, _) = DiskCache::open(&dir).expect("open fresh");
            let sizes = fill(&cache, &records);
            (sizes, cache.active_segment_path().expect("active segment"))
        };
        let total: u64 = sizes.iter().sum();
        let cut = ((total as f64) * cut_frac) as u64;
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .expect("open segment for damage");
        file.set_len(cut).expect("truncate at arbitrary byte");
        drop(file);

        // Records fully on disk before the cut survive; the torn suffix
        // is physically removed.
        let mut survivors = 0u64;
        let mut boundaries = vec![0u64];
        let mut end = 0u64;
        for len in &sizes {
            end += len;
            boundaries.push(end);
            if end <= cut {
                survivors += 1;
            }
        }
        // A cut exactly on a record boundary leaves no torn bytes; any
        // other cut leaves a partial record that must be truncated away.
        let torn_tail = !boundaries.contains(&cut);
        let (cache, report, recovered) = DiskCache::open(&dir).expect("recover");
        prop_assert_eq!(report.records, survivors);
        prop_assert_eq!(report.corrupt, 0);
        prop_assert_eq!(report.truncated_tails, u64::from(torn_tail));
        for i in 0..survivors as usize {
            check_recovered(&cache, &recovered, &records, i)?;
        }
        for i in survivors..sizes.len() as u64 {
            prop_assert!(!recovered.contains_key(&(i + 1)), "torn record must not be served");
        }

        // Recovery converges: the repair was physical, so a second open
        // has nothing left to do.
        drop(cache);
        let (_, second, _) = DiskCache::open(&dir).expect("reopen after repair");
        prop_assert_eq!(second.records, survivors);
        prop_assert_eq!(second.corrupt, 0);
        prop_assert_eq!(second.truncated_tails, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_quarantined_never_served(
        records in record_strategy(),
        victim_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        mask in 1u8..=255,
        case in 0u64..1_000_000,
    ) {
        let dir = tmp_dir("flip", case);
        let (sizes, segment) = {
            let (cache, _, _) = DiskCache::open(&dir).expect("open fresh");
            let sizes = fill(&cache, &records);
            (sizes, cache.active_segment_path().expect("active segment"))
        };
        // Flip one byte past the length word (CRC or payload), so the
        // framing stays intact and the scanner must rely on the CRC.
        let victim = ((sizes.len() as f64) * victim_frac) as usize % sizes.len();
        let start: u64 = sizes.iter().take(victim).sum();
        let span = sizes[victim] - 4;
        let offset = start + 4 + ((span as f64 * flip_frac) as u64).min(span - 1);
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&segment)
                .expect("open segment for damage");
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(offset)).expect("seek");
            file.read_exact(&mut byte).expect("read victim byte");
            byte[0] ^= mask;
            file.seek(SeekFrom::Start(offset)).expect("seek back");
            file.write_all(&byte).expect("flip byte");
        }

        let (cache, report, recovered) = DiskCache::open(&dir).expect("recover");
        prop_assert_eq!(report.corrupt, 1, "flipped record is quarantined");
        prop_assert_eq!(report.records, records.len() as u64 - 1);
        prop_assert_eq!(report.truncated_tails, 0);
        prop_assert!(
            !recovered.contains_key(&(victim as u64 + 1)),
            "corrupt bytes must never be served"
        );
        for i in (0..records.len()).filter(|&i| i != victim) {
            check_recovered(&cache, &recovered, &records, i)?;
        }
        let quarantine = dir.join("quarantine.log");
        let quarantined = std::fs::metadata(&quarantine).expect("quarantine file").len();
        prop_assert_eq!(quarantined, sizes[victim], "damaged bytes land in quarantine");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
