//! Atomic hint-file hot-swap with generations and rollback.
//!
//! The consumer contract mirrors how a production loader would watch an
//! AutoFDO profile directory (paper §3.6): readers open
//! `<dir>/current.hints` at their convenience and must never observe a
//! torn file. Every write is therefore an [`apt_store::replace`], so a
//! reader sees the whole old file or the whole new file.
//!
//! Each swap first lands as an immutable numbered generation
//! (`gen-000001.hints`, `gen-000002.hints`, …) before `current.hints`
//! is repointed, and the active generation number is recorded in a
//! `CURRENT` state file. That makes two operations trivial and safe:
//!
//! * **Rollback** — repoint `current.hints` at the previous generation;
//!   the bytes are still on disk, nothing is regenerated.
//! * **Audit** — `swap.log` appends one line per swap or rollback (no
//!   wall-clock timestamps, so two runs that make the same decisions
//!   write the same log). It is an `apt-store` append log: a line torn
//!   by a crash is dropped on read and truncated before the next append.
//!
//! The directory is never swept for orphaned temp files: other processes
//! (`aptgetsim rollback`) write to it too.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use apt_store::replace;

/// File readers watch; always points at the active generation's bytes.
pub const CURRENT_HINTS: &str = "current.hints";
/// State file holding the active generation number in decimal.
pub const CURRENT_STATE: &str = "CURRENT";
/// Append-only audit log.
pub const SWAP_LOG: &str = "swap.log";

/// Manages one tenant's hint directory.
#[derive(Debug, Clone)]
pub struct HintSwapper {
    dir: PathBuf,
}

impl HintSwapper {
    /// Opens (creating if necessary) a hint directory and repairs a
    /// half-finished swap: if `CURRENT` names a generation whose bytes
    /// exist but `current.hints` is missing, the pointer is restored.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<HintSwapper> {
        let swapper = HintSwapper { dir: dir.into() };
        fs::create_dir_all(&swapper.dir)?;
        if let Some(gen) = swapper.current_generation() {
            let gen_path = swapper.generation_path(gen);
            let cur = swapper.dir.join(CURRENT_HINTS);
            if gen_path.exists() && !cur.exists() {
                replace(&cur, &fs::read(&gen_path)?)?;
            }
        }
        Ok(swapper)
    }

    /// The directory backing this swapper.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the file consumers watch.
    pub fn current_hints_path(&self) -> PathBuf {
        self.dir.join(CURRENT_HINTS)
    }

    /// Path of an immutable numbered generation.
    pub fn generation_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("gen-{gen:06}.hints"))
    }

    /// The active generation number, if any swap has happened.
    pub fn current_generation(&self) -> Option<u64> {
        let text = fs::read_to_string(self.dir.join(CURRENT_STATE)).ok()?;
        text.trim().parse().ok()
    }

    /// Installs new hint bytes: writes the next numbered generation,
    /// atomically repoints `current.hints`, records the generation in
    /// `CURRENT`, and appends to `swap.log`. Returns the new generation.
    pub fn swap_in(&self, hints: &[u8], note: &str) -> io::Result<u64> {
        apt_selfprof::prof_scope!("serve/swap");
        let gen = self.current_generation().unwrap_or(0) + 1;
        replace(&self.generation_path(gen), hints)?;
        replace(&self.current_hints_path(), hints)?;
        replace(&self.dir.join(CURRENT_STATE), format!("{gen}\n").as_bytes())?;
        self.log_line(&format!("swap gen={gen:06} bytes={} {note}", hints.len()))?;
        Ok(gen)
    }

    /// Repoints `current.hints` at the previous generation. Returns the
    /// generation now active, or `None` when there is nothing to roll
    /// back to (no swap yet, or already at generation 1).
    pub fn rollback(&self, note: &str) -> io::Result<Option<u64>> {
        let Some(gen) = self.current_generation() else {
            return Ok(None);
        };
        if gen <= 1 {
            return Ok(None);
        }
        let prev = gen - 1;
        let bytes = fs::read(self.generation_path(prev))?;
        replace(&self.current_hints_path(), &bytes)?;
        replace(
            &self.dir.join(CURRENT_STATE),
            format!("{prev}\n").as_bytes(),
        )?;
        self.log_line(&format!("rollback from={gen:06} to={prev:06} {note}"))?;
        Ok(Some(prev))
    }

    /// Atomically writes an informational sidecar (e.g. `drift.txt`)
    /// next to the hints.
    pub fn write_sidecar(&self, name: &str, contents: &str) -> io::Result<()> {
        replace(&self.dir.join(name), contents.as_bytes())
    }

    /// Reads the audit log's complete lines ([`apt_store::read_log`]: a
    /// torn final line is dropped, a missing log reads as empty).
    pub fn read_log(&self) -> io::Result<Vec<String>> {
        let text = apt_store::read_log(&self.dir.join(SWAP_LOG))?;
        Ok(text.lines().map(str::to_string).collect())
    }

    fn log_line(&self, line: &str) -> io::Result<()> {
        let (mut log, _) = apt_store::open_log(&self.dir.join(SWAP_LOG))?;
        writeln!(log, "{line}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apt-swap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn swaps_advance_generations_and_keep_history() {
        let dir = tmp_dir("gen");
        let sw = HintSwapper::open(&dir).unwrap();
        assert_eq!(sw.current_generation(), None);
        assert_eq!(sw.swap_in(b"v1", "first").unwrap(), 1);
        assert_eq!(sw.swap_in(b"v2", "second").unwrap(), 2);
        assert_eq!(sw.current_generation(), Some(2));
        assert_eq!(fs::read(sw.current_hints_path()).unwrap(), b"v2");
        assert_eq!(fs::read(sw.generation_path(1)).unwrap(), b"v1");
        assert_eq!(fs::read(sw.generation_path(2)).unwrap(), b"v2");
        let log = fs::read_to_string(dir.join(SWAP_LOG)).unwrap();
        assert!(log.contains("swap gen=000001 bytes=2 first"));
        assert!(log.contains("swap gen=000002 bytes=2 second"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_restores_previous_bytes() {
        let dir = tmp_dir("rb");
        let sw = HintSwapper::open(&dir).unwrap();
        assert_eq!(sw.rollback("nothing").unwrap(), None);
        sw.swap_in(b"v1", "").unwrap();
        assert_eq!(sw.rollback("at-first").unwrap(), None);
        sw.swap_in(b"v2", "").unwrap();
        assert_eq!(sw.rollback("regression").unwrap(), Some(1));
        assert_eq!(sw.current_generation(), Some(1));
        assert_eq!(fs::read(sw.current_hints_path()).unwrap(), b"v1");
        // The rolled-back generation's bytes are preserved for audit.
        assert!(sw.generation_path(2).exists());
        // The next swap supersedes it rather than reusing its number.
        assert_eq!(sw.swap_in(b"v3", "").unwrap(), 2);
        assert_eq!(fs::read(sw.generation_path(2)).unwrap(), b"v3");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_repairs_a_missing_current_pointer() {
        let dir = tmp_dir("repair");
        let sw = HintSwapper::open(&dir).unwrap();
        sw.swap_in(b"v1", "").unwrap();
        fs::remove_file(sw.current_hints_path()).unwrap();
        let sw = HintSwapper::open(&dir).unwrap();
        assert_eq!(fs::read(sw.current_hints_path()).unwrap(), b"v1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_log_drops_a_torn_final_line() {
        let dir = tmp_dir("tornlog");
        let sw = HintSwapper::open(&dir).unwrap();
        assert_eq!(sw.read_log().unwrap(), Vec::<String>::new());
        sw.swap_in(b"v1", "first").unwrap();
        sw.swap_in(b"v2", "second").unwrap();
        sw.rollback("regression").unwrap();
        let complete = sw.read_log().unwrap();
        assert_eq!(complete.len(), 3);
        assert_eq!(complete[2], "rollback from=000002 to=000001 regression");

        // Crash mid-append: a partial line (ending mid-UTF-8 sequence)
        // with no newline must not poison the complete history.
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(SWAP_LOG))
            .unwrap();
        f.write_all(b"swap gen=000003 byt\xe2\x82").unwrap();
        drop(f);
        assert_eq!(sw.read_log().unwrap(), complete);

        // The next append truncates the torn tail first, so its line
        // reads back intact and on its own.
        sw.swap_in(b"v3", "after-crash").unwrap();
        let mut expected = complete;
        expected.push("swap gen=000002 bytes=2 after-crash".to_string());
        assert_eq!(sw.read_log().unwrap(), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecars_write_atomically() {
        let dir = tmp_dir("sidecar");
        let sw = HintSwapper::open(&dir).unwrap();
        sw.write_sidecar("drift.txt", "report\n").unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("drift.txt")).unwrap(),
            "report\n"
        );
        sw.write_sidecar("drift.txt", "newer\n").unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("drift.txt")).unwrap(),
            "newer\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
