//! Atomic file replacement: the PR 5 atomic writer, promoted from the
//! evaluation harness into the store crate so every persistent artifact
//! (rule-store entries, the write journal, result files, benchmarks,
//! reports) shares one crash-safe write primitive.

use std::io;
use std::path::Path;

/// Atomically replaces `path` with `bytes`: the content lands in a
/// sibling temp file first and is renamed over the target, so a crash or
/// I/O error mid-write never leaves a torn result file — readers see
/// either the old complete file or the new one.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path.as_ref(), bytes, |p, b| std::fs::write(p, b))
}

/// [`write_atomic`] with an injectable write step, so tests can
/// substitute a writer that fails mid-stream. On any error the temp file
/// is removed and the destination is left untouched.
pub fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    write_fn: impl FnOnce(&Path, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    match write_fn(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_write_leaves_destination_untouched() {
        let dir = crate::test_dir("atomic");
        let path = dir.join("out.txt");
        std::fs::write(&path, b"old").unwrap();
        let err = write_atomic_with(&path, b"new", |_, _| Err(io::Error::other("boom")));
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!path.with_file_name("out.txt.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn successful_write_replaces() {
        let dir = crate::test_dir("atomic2");
        let path = dir.join("out.txt");
        write_atomic(&path, b"abc").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        write_atomic(&path, b"def").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"def");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
