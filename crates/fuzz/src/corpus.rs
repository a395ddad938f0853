//! The triage corpus: a directory of minimized discrepancy cases.
//!
//! Files are named `<sha256-of-case>.case` and written through
//! `silentcert_obs::atomic_write`, so a crashed fuzz run never leaves a
//! half-written case and two concurrent runs that find the same
//! discrepancy converge on one file.

use crate::case::FuzzCase;
use std::path::{Path, PathBuf};

/// Store `case` in `dir`, creating the directory if needed. Returns the
/// final path and whether the file is new (false = already present, which
/// for a content-addressed name means an identical case).
pub fn store(dir: &Path, case: &FuzzCase) -> std::io::Result<(PathBuf, bool)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.case", case.id()));
    if path.exists() {
        return Ok((path, false));
    }
    silentcert_obs::atomic_write(&path, |out| out.write_all(case.to_text().as_bytes()))?;
    Ok((path, true))
}

/// Load every `*.case` file in `dir`, sorted by filename so replay order
/// is stable. A missing directory is an empty corpus; an unparseable case
/// file, or one not named `<case.id()>.case` as [`store`] names it, is an
/// error (the corpus is committed — damage, a hand edit or a rename means
/// a bad commit, not noise to skip).
pub fn load(dir: &Path) -> Result<Vec<(PathBuf, FuzzCase)>, String> {
    let mut paths = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "case") {
                    paths.push(path);
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("opening {}: {e}", dir.display())),
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let case =
            FuzzCase::from_text(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let id = case.id();
        if path.file_stem().and_then(|s| s.to_str()) != Some(id.as_str()) {
            return Err(format!(
                "{} is not named by its content address {id}.case",
                path.display()
            ));
        }
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_is_idempotent_and_load_is_sorted() {
        let dir = std::env::temp_dir().join(format!("silentcert-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = FuzzCase::bare(vec![1, 2, 3]);
        let b = FuzzCase::bare(vec![9]);
        let (pa, fresh) = store(&dir, &a).expect("store a");
        assert!(fresh);
        let (pa2, fresh2) = store(&dir, &a).expect("store a again");
        assert!(!fresh2);
        assert_eq!(pa, pa2);
        store(&dir, &b).expect("store b");
        let loaded = load(&dir).expect("load");
        assert_eq!(loaded.len(), 2);
        let mut names: Vec<_> = loaded.iter().map(|(p, _)| p.clone()).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
        assert!(loaded.iter().any(|(_, c)| *c == a));
        assert!(loaded.iter().any(|(_, c)| *c == b));
        // No tmp files left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(stray.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edited_or_renamed_case_is_rejected() {
        let dir =
            std::env::temp_dir().join(format!("silentcert-corpus-edit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (path, _) = store(&dir, &FuzzCase::bare(vec![0x30, 0x03])).expect("store");
        assert_eq!(load(&dir).expect("stored case loads").len(), 1);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("leaf 3003", "leaf 3004")).unwrap();
        let err = load(&dir).expect_err("edited case loads");
        assert!(err.contains("content address"), "{err}");

        std::fs::write(&path, text).unwrap();
        std::fs::rename(&path, dir.join(format!("{}.case", "0".repeat(64)))).unwrap();
        assert!(load(&dir).is_err(), "renamed case loads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_empty_corpus() {
        let dir = std::env::temp_dir().join("silentcert-corpus-never-created");
        assert!(load(&dir).expect("empty").is_empty());
    }
}
