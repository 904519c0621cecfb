//! `apt-store`: the rules for every file the workspace persists, stated
//! once (DESIGN.md §3). Four things, no options:
//!
//! * **Word codec.** A binary format is an 8-byte magic followed by
//!   little-endian `u64` words ([`WordWriter`], [`WordReader`]). The
//!   reader is strict: a wrong magic, truncation, a count larger than the
//!   file, a repeated map key or trailing garbage all read as `None`.
//! * **Whole-file replace.** [`replace`] writes `<file name>.tmp.<pid>`
//!   beside the target and renames it over, so a reader sees the old
//!   bytes or the new bytes, never a torn file.
//! * **Orphan sweep.** [`sweep_orphans`] removes the `*.tmp.<digits>`
//!   files a writer that died mid-[`replace`] left behind.
//! * **Append log.** [`read_log`] keeps the lines up to the last newline;
//!   [`open_log`] truncates a torn final line before appending, so a
//!   line written after a crash starts on a line of its own.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

/// Builds a word-framed file: the magic, then one word per [`put`](Self::put).
#[derive(Debug)]
pub struct WordWriter(Vec<u8>);

impl WordWriter {
    pub fn new(magic: &[u8; 8]) -> WordWriter {
        WordWriter(magic.to_vec())
    }

    /// Appends one little-endian word.
    #[inline]
    pub fn put(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length word, then the string's bytes unpadded.
    pub fn put_str(&mut self, s: &str) {
        self.put(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    /// The encoded file.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

impl Extend<u64> for WordWriter {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, words: I) {
        for v in words {
            self.put(v);
        }
    }
}

/// Strict reader over a word-framed file; every read is `None` on damage.
#[derive(Debug)]
pub struct WordReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// A reader positioned after `magic`, or `None` when the file does
    /// not start with it.
    pub fn open(bytes: &'a [u8], magic: &[u8; 8]) -> Option<WordReader<'a>> {
        (bytes.get(..8)? == magic).then_some(WordReader { bytes, pos: 8 })
    }

    /// The next word.
    #[inline]
    pub fn word(&mut self) -> Option<u64> {
        let [w] = self.words()?;
        Some(w)
    }

    /// The next `N` words.
    #[inline]
    pub fn words<const N: usize>(&mut self) -> Option<[u64; N]> {
        let (words, _) = self.take(N * 8)?.as_chunks::<8>();
        Some(std::array::from_fn(|i| u64::from_le_bytes(words[i])))
    }

    /// A count word. Counts larger than the file are damage, so a
    /// corrupt count never triggers a giant allocation.
    #[inline]
    pub fn count(&mut self) -> Option<usize> {
        let n = self.word()?;
        (n <= self.bytes.len() as u64).then_some(n as usize)
    }

    /// A string written by [`WordWriter::put_str`].
    pub fn str(&mut self) -> Option<&'a str> {
        let n = self.count()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// A count, then that many items read by `item`.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// A count, then that many `(key, value)` entries read by `entry`.
    /// Canonical encodings write each key once; a repeat is damage.
    pub fn map<K: Ord, V>(
        &mut self,
        mut entry: impl FnMut(&mut Self) -> Option<(K, V)>,
    ) -> Option<BTreeMap<K, V>> {
        let mut out = BTreeMap::new();
        for _ in 0..self.count()? {
            let (k, v) = entry(self)?;
            if out.insert(k, v).is_some() {
                return None;
            }
        }
        Some(out)
    }

    /// `value` once every byte has been read; trailing garbage is damage.
    pub fn finish<T>(self, value: T) -> Option<T> {
        (self.pos == self.bytes.len()).then_some(value)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }
}

/// Replaces `path` with `bytes`: creates the parent directory, writes
/// `<file name>.tmp.<pid>` beside `path`, and renames it over `path`. On
/// any failure the temp file is removed and `path` keeps its old bytes.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Removes every `*.tmp.<digits>` file in `dir`; returns how many went.
/// Only a directory's single owner may run it, at start-up: a live
/// writer's temp file would be swept too, failing its rename.
pub fn sweep_orphans(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        let orphan = name
            .to_str()
            .and_then(|n| n.rsplit_once(".tmp."))
            .is_some_and(|(_, pid)| !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit()));
        if orphan && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Length of the complete lines in `bytes`, up to the last newline.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
}

/// Reads an append-only log's complete lines. A torn final line (a crash
/// mid-append, possibly mid-character) is dropped: the split happens on
/// bytes, before UTF-8 validation. A missing log reads as empty.
pub fn read_log(path: &Path) -> io::Result<String> {
    let mut bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(String::new()),
        Err(e) => return Err(e),
    };
    bytes.truncate(complete_len(&bytes));
    String::from_utf8(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("not UTF-8: {e}")))
}

/// Opens (creating if needed) an append-only log for appending and
/// returns it with its length. A torn final line is truncated first, so
/// the next append starts on a fresh line. Unless the tail is torn only
/// the final byte is read, so opening costs the same at any log length.
pub fn open_log(path: &Path) -> io::Result<(File, u64)> {
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let mut len = file.metadata()?.len();
    if len > 0 {
        let mut last = [0u8];
        file.seek(SeekFrom::Start(len - 1))?;
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            len = complete_len(&fs::read(path)?) as u64;
            file.set_len(len)?;
        }
    }
    Ok((file, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    const MAGIC: &[u8; 8] = b"TEST1\0\0\0";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apt-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Vec<u8> {
        let mut w = WordWriter::new(MAGIC);
        w.put(u64::MAX);
        w.put_str("épée");
        w.put(2);
        w.extend([7, 70, 8, 80]);
        w.finish()
    }

    fn read(bytes: &[u8]) -> Option<(u64, String, BTreeMap<u64, u64>)> {
        let mut r = WordReader::open(bytes, MAGIC)?;
        let max = r.word()?;
        let s = r.str()?.to_string();
        let m = r.map(|r| Some((r.word()?, r.word()?)))?;
        r.finish((max, s, m))
    }

    #[test]
    fn words_round_trip_little_endian() {
        let bytes = sample();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(&bytes[8..16], &[0xff; 8]);
        assert_eq!(&bytes[16..24], &6u64.to_le_bytes());
        assert_eq!(&bytes[24..30], "épée".as_bytes());
        let (max, s, m) = read(&bytes).expect("decodes");
        assert_eq!((max, s.as_str()), (u64::MAX, "épée"));
        assert_eq!(m, BTreeMap::from([(7, 70), (8, 80)]));
        let mut r = WordReader::open(&bytes[..24], MAGIC).unwrap();
        assert_eq!(r.words::<2>(), Some([u64::MAX, 6]));
        assert_eq!(r.finish("done"), Some("done"));
    }

    #[test]
    fn reader_rejects_every_kind_of_damage() {
        let bytes = sample();
        assert!(read(&bytes[..bytes.len() - 1]).is_none(), "truncation");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(read(&trailing).is_none(), "trailing garbage");
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(read(&magic).is_none(), "wrong magic");
        assert!(read(b"TEST").is_none(), "short magic");
        let mut huge = bytes.clone();
        huge[30..38].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read(&huge).is_none(), "count larger than the file");
        let mut repeat = bytes.clone();
        repeat[54..62].copy_from_slice(&7u64.to_le_bytes());
        assert!(read(&repeat).is_none(), "repeated map key");
        let mut bad_utf8 = bytes.clone();
        bad_utf8[24] = 0xff;
        assert!(read(&bad_utf8).is_none(), "label not UTF-8");
    }

    #[test]
    fn replace_creates_the_parent_and_leaves_no_temp_file() {
        let dir = tmp_dir("replace");
        let path = dir.join("nested/state.bin");
        replace(&path, b"old").unwrap();
        replace(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert_eq!(fs::read_dir(dir.join("nested")).unwrap().count(), 1);

        // A rename that cannot land (the target is a non-empty
        // directory) must not leave the temp file behind.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("inside")).unwrap();
        assert!(replace(&blocked, b"bytes").is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "nested + blocked");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_only_numeric_temp_files() {
        let dir = tmp_dir("sweep");
        for name in [
            "a.aptdb.tmp.12",
            "b.tmp.3",
            "keep.aptdb",
            "x.tmp.pid",
            "y.tmp.",
        ] {
            fs::write(dir.join(name), b"partial").unwrap();
        }
        assert_eq!(sweep_orphans(&dir).unwrap(), 2);
        let mut left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["keep.aptdb", "x.tmp.pid", "y.tmp."]);
        assert_eq!(sweep_orphans(&dir).unwrap(), 0, "idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn logs_drop_torn_tails_on_read_and_truncate_them_on_open() {
        let dir = tmp_dir("log");
        let path = dir.join("audit.log");
        assert_eq!(read_log(&path).unwrap(), "", "missing reads as empty");
        let (mut f, len) = open_log(&path).unwrap();
        assert_eq!(len, 0);
        f.write_all("one\ntwo\n".as_bytes()).unwrap();
        drop(f);
        assert_eq!(open_log(&path).unwrap().1, 8, "intact log is kept");

        // A crash mid-append tears the tail inside a UTF-8 character.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"thr\xe2\x82").unwrap();
        drop(f);
        assert_eq!(read_log(&path).unwrap(), "one\ntwo\n");

        let (mut f, len) = open_log(&path).unwrap();
        assert_eq!(len, 8);
        f.write_all(b"four\n").unwrap();
        drop(f);
        assert_eq!(read_log(&path).unwrap(), "one\ntwo\nfour\n");
        let _ = fs::remove_dir_all(&dir);
    }
}
