//! Durability helpers for atomic file writes.
//!
//! POSIX `rename(tmp, path)` makes the new name *visible* atomically,
//! but the rename itself is not durable until the parent directory's
//! entry block reaches disk. A crash between the rename and a directory
//! fsync can resurrect the old file — or leave no file at all — after
//! the writer already reported success. Every temp-file+rename (and the
//! first creation of an append-mode file) must therefore fsync the
//! parent directory as well, or the `sync_all` on the file contents
//! promises durability the filesystem never gave.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// fsync the directory containing `path`, making a just-completed
/// rename (or file creation) in it durable.
///
/// A relative path with no parent component syncs `"."`. On non-Unix
/// hosts this is a no-op: directories there cannot be opened for
/// syncing, and NTFS journals the namespace change itself.
pub fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    #[cfg(unix)]
    {
        File::open(parent)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = parent;
        Ok(())
    }
}

/// Write `path` atomically and durably. `write_fn` streams the contents
/// through a buffer into a temp file beside `path`, named
/// `<path>.<pid>.tmp` so writers in different processes don't collide;
/// the temp file is fsync'd and renamed over `path`, and the parent
/// directory is fsync'd. A reader never observes a partial file, and a
/// crash after return cannot lose the write. On any failure the temp
/// file is removed, so `path` keeps its old contents or gets the new
/// ones, and nothing else is left behind.
pub fn atomic_write(
    path: &Path,
    write_fn: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_fn(&mut out)?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    fsync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Files in `dir` other than `keep`: a leaked temp file shows here.
    fn strays(dir: &Path, keep: &[&str]) -> Vec<std::ffi::OsString> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| !keep.iter().any(|k| name == k))
            .collect()
    }

    #[test]
    fn atomic_write_replaces_only_on_success_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("silentcert-fsio-aw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("ring.json");
        atomic_write(&file, |w| w.write_all(b"one")).unwrap();
        atomic_write(&file, |w| w.write_all(b"two")).unwrap();
        assert_eq!(fs::read(&file).unwrap(), b"two");
        assert!(strays(&dir, &["ring.json"]).is_empty());

        // A write that fails partway keeps the old contents and leaves
        // no temp file behind.
        let err = atomic_write(&file, |w| {
            w.write_all(&[b'x'; 20_000])?;
            Err(io::Error::other("sink failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "sink failed");
        assert_eq!(fs::read(&file).unwrap(), b"two", "old file clobbered");
        assert!(strays(&dir, &["ring.json"]).is_empty());

        // A failed write with no previous file creates nothing.
        atomic_write(&dir.join("fresh"), |_| Err(io::Error::other("boom"))).unwrap_err();
        assert!(strays(&dir, &["ring.json"]).is_empty());

        // A rename onto a directory fails after the temp file is
        // complete; that temp file goes too.
        fs::create_dir(dir.join("taken")).unwrap();
        atomic_write(&dir.join("taken"), |w| w.write_all(b"x")).unwrap_err();
        assert!(strays(&dir, &["ring.json", "taken"]).is_empty());

        assert!(atomic_write(&dir.join("missing").join("x"), |w| w.write_all(b"x")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn syncs_existing_parents_and_fails_on_missing_ones() {
        let dir = std::env::temp_dir().join(format!("silentcert-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("x.txt");
        std::fs::write(&file, "x").unwrap();
        fsync_parent_dir(&file).unwrap();
        // Bare file names sync the working directory.
        fsync_parent_dir(Path::new("bare.txt")).unwrap();
        assert!(fsync_parent_dir(&dir.join("missing").join("y.txt")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
