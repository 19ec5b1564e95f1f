//! The content-addressed result store.
//!
//! One campaign configuration — same sweep parameters, same workload
//! bytes — maps to one store key ([`CampaignConfig::store_key`]): the
//! FNV-1a fingerprint of the campaign's journal meta line. The store
//! keeps at most three files per key:
//!
//! * `<key>.csv` — the finished verdict CSV, published atomically
//!   ([`write_atomic`](tv_core::write_atomic)) so readers never observe
//!   a torn result;
//! * `<key>.sum` — the CSV's checksum sidecar (`crc32 fnv1a` of the CSV
//!   bytes), written with the CSV at publication;
//! * `<key>.journal` — the in-progress resume journal. It exists only
//!   while a campaign is executing (or after a crash); publication
//!   removes it. A restarted server resumes from it automatically, so a
//!   `kill -9` mid-campaign costs only the in-flight cells.
//!
//! Because the key covers workload *content* (not just names), editing a
//! built-in program's assembly changes the key: stale entries are simply
//! never addressed again rather than served incorrectly.
//!
//! # Integrity: verified reads and fsck
//!
//! Atomic publication keeps *writes* honest, but bytes at rest rot too —
//! bad disks, truncating backup tools, chaos injection. Every [`get`]
//! therefore verifies the sidecar's CRC-32 **and** FNV-1a fingerprint
//! against the CSV bytes before serving them, and **evicts** the entry
//! (CSV + sidecar) on any mismatch or a missing sidecar — a corrupt
//! result is re-executed, never served. [`fsck`] runs the same
//! verification over every entry at once; the server runs it at startup
//! and on `GET /fsck`.
//!
//! [`get`]: ResultStore::get
//! [`fsck`]: ResultStore::fsck
//! [`CampaignConfig::store_key`]: tv_core::CampaignConfig::store_key

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use tv_core::{fnv1a, write_atomic_str};
use tv_prng::crc32;

/// A directory of finished campaign CSVs keyed by configuration
/// fingerprint.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the error when the directory cannot be created.
    pub fn open(root: &Path) -> io::Result<ResultStore> {
        fs::create_dir_all(root)?;
        Ok(ResultStore {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the published CSV for `key`.
    pub fn csv_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.csv"))
    }

    /// Path of the resume journal for `key` — where an executing
    /// campaign for this key journals its rows.
    pub fn journal_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.journal"))
    }

    /// Path of the checksum sidecar for `key`.
    pub fn sum_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.sum"))
    }

    /// The published CSV for `key`, if one exists **and verifies**
    /// against its checksum sidecar. A corrupt or sidecar-less entry is
    /// evicted and reads as absent — the caller re-executes instead of
    /// serving damaged bytes.
    pub fn get(&self, key: &str) -> Option<String> {
        // Read bytes, not a string: corruption that lands a non-UTF-8
        // byte must still reach verification (and eviction), not read
        // as a silent miss leaving the damage on disk.
        let bytes = fs::read(self.csv_path(key)).ok()?;
        let verified = self
            .verify_bytes(key, &bytes)
            .and_then(|()| String::from_utf8(bytes).map_err(|_| "non-UTF-8 CSV".to_string()));
        match verified {
            Ok(csv) => Some(csv),
            Err(reason) => {
                eprintln!("[store] evicting corrupt entry {key} on read: {reason}");
                self.evict(key);
                None
            }
        }
    }

    /// Atomically publishes `csv` (and its checksum sidecar) as the
    /// result for `key` and retires the key's resume journal (the store
    /// copy supersedes it).
    ///
    /// # Errors
    ///
    /// Propagates the atomic writes' I/O errors; the journal is only
    /// removed after a fully successful publish, so a half-published
    /// entry (evicted by the next read or fsck) still resumes.
    pub fn publish(&self, key: &str, csv: &str) -> io::Result<()> {
        write_atomic_str(&self.csv_path(key), csv)?;
        write_atomic_str(&self.sum_path(key), &sum_line(csv.as_bytes()))?;
        fs::remove_file(self.journal_path(key)).ok();
        Ok(())
    }

    /// Verifies `bytes` against `key`'s checksum sidecar.
    fn verify_bytes(&self, key: &str, bytes: &[u8]) -> Result<(), String> {
        let sum = fs::read_to_string(self.sum_path(key))
            .map_err(|_| "missing checksum sidecar".to_string())?;
        let mut words = sum.split_whitespace();
        let (Some(crc_hex), Some(fnv_hex), None) = (words.next(), words.next(), words.next())
        else {
            return Err(format!("malformed checksum sidecar: {}", sum.trim_end()));
        };
        let want_crc = u32::from_str_radix(crc_hex, 16)
            .map_err(|_| format!("malformed sidecar crc: {crc_hex}"))?;
        let want_fnv = u64::from_str_radix(fnv_hex, 16)
            .map_err(|_| format!("malformed sidecar fingerprint: {fnv_hex}"))?;
        let got_crc = crc32(bytes);
        let got_fnv = fnv1a(bytes);
        if got_crc != want_crc {
            return Err(format!("crc mismatch: {got_crc:08x} != {want_crc:08x}"));
        }
        if got_fnv != want_fnv {
            return Err(format!("fingerprint mismatch: {got_fnv:016x} != {want_fnv:016x}"));
        }
        Ok(())
    }

    /// Removes a key's CSV and sidecar (its journal, if any, survives —
    /// it carries its own per-row CRCs and is the resume substrate).
    fn evict(&self, key: &str) {
        fs::remove_file(self.csv_path(key)).ok();
        fs::remove_file(self.sum_path(key)).ok();
    }

    /// Verifies every published entry against its sidecar and evicts the
    /// ones that fail — corrupt bytes, truncations, missing or damaged
    /// sidecars. Returns what it found; never fails (an unreadable store
    /// simply reports zero entries).
    pub fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        for key in self.keys() {
            report.checked += 1;
            let outcome = fs::read(self.csv_path(&key))
                .map_err(|e| format!("unreadable CSV: {e}"))
                .and_then(|bytes| self.verify_bytes(&key, &bytes));
            match outcome {
                Ok(()) => report.ok += 1,
                Err(reason) => {
                    eprintln!("[store] fsck: evicting {key}: {reason}");
                    self.evict(&key);
                    report.evicted.push(key);
                }
            }
        }
        report.journals = fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name().to_string_lossy().ends_with(".journal")
                    })
                    .count()
            })
            .unwrap_or(0);
        report
    }

    /// Number of published results.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Whether the store has no published results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of every published result (verified or not), sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        name.strip_suffix(".csv").map(str::to_string)
                    })
                    .filter(|stem| !stem.starts_with('.'))
                    .collect()
            })
            .unwrap_or_default();
        keys.sort();
        keys
    }
}

/// The checksum sidecar's one line: `crc32-hex8 fnv1a-hex16`.
fn sum_line(bytes: &[u8]) -> String {
    format!("{:08x} {:016x}\n", crc32(bytes), fnv1a(bytes))
}

/// What [`ResultStore::fsck`] found.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Published entries examined.
    pub checked: usize,
    /// Entries whose CSV verified against its sidecar.
    pub ok: usize,
    /// Entries evicted (corrupt CSV, missing/damaged sidecar), by key.
    pub evicted: Vec<String>,
    /// In-progress resume journals present (informational; journals
    /// carry their own per-row CRCs and heal on resume).
    pub journals: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("tv-store-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        ResultStore::open(&dir).expect("open store")
    }

    #[test]
    fn publish_then_get_round_trips_and_retires_the_journal() {
        let store = temp_store("roundtrip");
        let key = "00deadbeef00cafe";
        assert_eq!(store.get(key), None);
        fs::write(store.journal_path(key), "# meta\n0/CDS\trow\n").expect("seed journal");
        store.publish(key, "header\nrow\n").expect("publish");
        assert_eq!(store.get(key).as_deref(), Some("header\nrow\n"));
        assert!(
            !store.journal_path(key).exists(),
            "publication retires the resume journal"
        );
        assert_eq!(store.keys(), vec![key.to_string()]);
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn get_evicts_corrupt_entries_instead_of_serving_them() {
        let store = temp_store("evict");
        let key = "1111222233334444";
        let csv = "header\nrow-a\nrow-b\n";
        store.publish(key, csv).expect("publish");
        assert_eq!(store.get(key).as_deref(), Some(csv));

        // Flip one byte of the CSV at rest: the read must refuse AND
        // evict, so the next read is a clean miss (re-execution).
        let mut bytes = fs::read(store.csv_path(key)).unwrap();
        bytes[8] ^= 0x10;
        fs::write(store.csv_path(key), &bytes).unwrap();
        assert_eq!(store.get(key), None, "corrupt bytes must not be served");
        assert!(!store.csv_path(key).exists(), "corrupt entry evicted");
        assert!(!store.sum_path(key).exists(), "sidecar evicted with it");

        // A missing sidecar is indistinguishable from corruption.
        store.publish(key, csv).expect("republish");
        fs::remove_file(store.sum_path(key)).unwrap();
        assert_eq!(store.get(key), None, "sidecar-less entry must not be served");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn fsck_detects_and_evicts_every_injected_corruption() {
        let store = temp_store("fsck");
        let csv = "header\n0,paper,gcc,0.970,CDS,1,clean\n";
        // Entry 0 stays intact; the others get one corruption each.
        let keys = [
            "aaaaaaaaaaaaaaa0",
            "aaaaaaaaaaaaaaa1",
            "aaaaaaaaaaaaaaa2",
            "aaaaaaaaaaaaaaa3",
            "aaaaaaaaaaaaaaa4",
        ];
        for key in keys {
            store.publish(key, csv).expect("publish");
        }
        // 1: single bit flip mid-file.
        let mut b = fs::read(store.csv_path(keys[1])).unwrap();
        b[11] ^= 0x01;
        fs::write(store.csv_path(keys[1]), &b).unwrap();
        // 2: truncation.
        let b = fs::read(store.csv_path(keys[2])).unwrap();
        fs::write(store.csv_path(keys[2]), &b[..b.len() / 2]).unwrap();
        // 3: sidecar damaged.
        fs::write(store.sum_path(keys[3]), "deadbeef cafebabecafebabe\n").unwrap();
        // 4: sidecar missing.
        fs::remove_file(store.sum_path(keys[4])).unwrap();

        fs::write(store.journal_path("bbbbbbbbbbbbbbb0"), "# in flight\n").unwrap();
        let report = store.fsck();
        assert_eq!(report.checked, 5);
        assert_eq!(report.ok, 1);
        assert_eq!(
            report.evicted,
            vec![
                keys[1].to_string(),
                keys[2].to_string(),
                keys[3].to_string(),
                keys[4].to_string(),
            ],
        );
        assert_eq!(report.journals, 1);
        assert_eq!(store.keys(), vec![keys[0].to_string()], "survivor intact");
        assert_eq!(store.get(keys[0]).as_deref(), Some(csv));
        // A second pass over the healed store is clean.
        let again = store.fsck();
        assert_eq!((again.checked, again.ok, again.evicted.len()), (1, 1, 0));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn keys_ignore_journals_and_temp_files() {
        let store = temp_store("keys");
        store.publish("aaaa", "a\n").expect("publish");
        fs::write(store.journal_path("bbbb"), "# in flight\n").expect("journal");
        fs::write(store.root().join(".cccc.csv.tmp-1-2"), "torn").expect("temp");
        assert_eq!(store.keys(), vec!["aaaa".to_string()]);
        assert!(!store.is_empty());
        fs::remove_dir_all(store.root()).ok();
    }
}
