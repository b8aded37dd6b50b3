//! The on-disk registry: a JSONL file of [`Record`]s with a last-wins index.
//!
//! Layout: `<dir>/records.jsonl`, one record per line, append-ordered. Every
//! mutation rewrites the whole file through
//! [`avc_analysis::io::atomic_write`] (write temp sibling,
//! fsync, rename), so a reader — including a resumed sweep after `kill -9` —
//! always sees a complete prefix of history, never a torn line. A torn tail
//! can still exist if the file was ever appended by external tooling; the
//! loader tolerates exactly that case (an unparseable *final* line) and
//! treats it as absent.
//!
//! Duplicate hashes (a cell re-recorded, e.g. after a schema-compatible
//! rerun) resolve last-wins in the index; [`Store::compact`] rewrites the
//! file with only the surviving records.

use crate::record::Record;
use avc_analysis::io::atomic_write;
use avc_population::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// An open registry directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    records: Vec<Record>,
    /// hash → index of the latest record with that hash.
    index: BTreeMap<String, usize>,
}

impl Store {
    /// Opens (or initializes) the registry under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corrupt non-final lines and schema-foreign
    /// records are reported as [`io::ErrorKind::InvalidData`] with the line
    /// number, so silent data loss is impossible.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        let mut store = Store {
            dir,
            records: Vec::new(),
            index: BTreeMap::new(),
        };
        let path = store.records_path();
        if !path.exists() {
            return Ok(store);
        }
        let text = std::fs::read_to_string(&path)?;
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = Json::parse(line).and_then(|j| Record::from_json(&j));
            match parsed {
                Ok(record) => store.push(record),
                // A torn final line is the legacy-append crash signature:
                // drop it, the cell will simply rerun.
                Err(_) if i + 1 == lines.len() => break,
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}:{}: {e}", path.display(), i + 1),
                    ));
                }
            }
        }
        Ok(store)
    }

    /// The registry's JSONL path.
    #[must_use]
    pub fn records_path(&self) -> PathBuf {
        self.dir.join("records.jsonl")
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of loaded records (including superseded duplicates).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the registry holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The latest record for a cell hash.
    #[must_use]
    pub fn get(&self, hash: &str) -> Option<&Record> {
        self.index.get(hash).map(|&i| &self.records[i])
    }

    /// All latest records whose hash starts with `prefix`, in hash order.
    #[must_use]
    pub fn find_by_prefix(&self, prefix: &str) -> Vec<&Record> {
        self.index
            .range(prefix.to_string()..)
            .take_while(|(h, _)| h.starts_with(prefix))
            .map(|(_, &i)| &self.records[i])
            .collect()
    }

    /// Iterates the latest record of every cell, in hash order.
    pub fn iter_latest(&self) -> impl Iterator<Item = &Record> {
        self.index.values().map(|&i| &self.records[i])
    }

    /// Appends a record durably (whole-file write-temp-fsync-rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the on-disk registry is unchanged
    /// (the in-memory copy is rolled back too).
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        self.push(record);
        if let Err(e) = self.persist() {
            let record = self.records.pop().expect("just pushed");
            self.reindex_after_removal(&record.hash);
            return Err(e);
        }
        Ok(())
    }

    /// Drops superseded duplicates and rewrites the file. Returns how many
    /// records were removed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the rewrite.
    pub fn compact(&mut self) -> io::Result<usize> {
        let keep: Vec<bool> = (0..self.records.len())
            .map(|i| self.index.get(&self.records[i].hash) == Some(&i))
            .collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return Ok(0);
        }
        let mut iter = keep.into_iter();
        self.records.retain(|_| iter.next().expect("len match"));
        self.index = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.hash.clone(), i))
            .collect();
        self.persist()?;
        Ok(removed)
    }

    fn push(&mut self, record: Record) {
        self.index.insert(record.hash.clone(), self.records.len());
        self.records.push(record);
    }

    fn reindex_after_removal(&mut self, hash: &str) {
        match self.records.iter().rposition(|r| r.hash == hash) {
            Some(i) => {
                self.index.insert(hash.to_string(), i);
            }
            None => {
                self.index.remove(hash);
            }
        }
    }

    fn persist(&self) -> io::Result<()> {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json().to_string_compact());
            out.push('\n');
        }
        atomic_write(self.records_path(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::record::CellResult;
    use std::fs;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avc-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(experiment: &str, n: u64, note: &str) -> Record {
        let manifest = Manifest::new(experiment, [("n", n.to_string())]);
        let result = CellResult {
            notes: vec![note.to_string()],
            ..CellResult::default()
        };
        Record::new(manifest, result, 1)
    }

    #[test]
    fn append_reopen_roundtrip() {
        let dir = temp_store("roundtrip");
        let mut store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        store.append(record("fig3", 11, "a")).unwrap();
        store.append(record("fig3", 101, "b")).unwrap();

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        let hash = record("fig3", 101, "b").hash;
        assert_eq!(reopened.get(&hash).unwrap().result.notes, vec!["b"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_hash_resolves_last_wins_and_compacts() {
        let dir = temp_store("dup");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "old")).unwrap();
        store.append(record("fig3", 101, "other")).unwrap();
        store.append(record("fig3", 11, "new")).unwrap();
        let hash = record("fig3", 11, "x").hash;
        assert_eq!(store.get(&hash).unwrap().result.notes, vec!["new"]);
        assert_eq!(store.len(), 3);

        assert_eq!(store.compact().unwrap(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&hash).unwrap().result.notes, vec!["new"]);
        // Idempotent.
        assert_eq!(store.compact().unwrap(), 0);

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(&hash).unwrap().result.notes, vec!["new"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerates_torn_final_line() {
        let dir = temp_store("torn");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "whole")).unwrap();
        let path = store.records_path();
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"schema\":1,\"hash\":\"dead"); // torn mid-write
        fs::write(&path, &text).unwrap();

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_corrupt_interior_line() {
        let dir = temp_store("corrupt");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "a")).unwrap();
        let path = store.records_path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("not json\n{text}")).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_lookup() {
        let dir = temp_store("prefix");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "a")).unwrap();
        store.append(record("fig4", 11, "b")).unwrap();
        let hash = record("fig3", 11, "a").hash;
        let hits = store.find_by_prefix(&hash[..12]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].hash, hash);
        assert_eq!(store.find_by_prefix("").len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
