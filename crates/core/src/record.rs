//! One framing for every durable text file.
//!
//! Five file kinds use it.  Two are append-only logs: the campaign
//! journal and the store's WAL.  Three are written whole, atomically: the
//! store's MANIFEST, the published snapshot (also what `train --out`
//! writes) and the cluster trace.  Each file is a version
//! line (the trace's also carries its request count), then, for all but
//! the WAL and the trace, a summary line of `key=value` fields, then
//! newline-terminated records.
//! Blank lines are skipped, and trailing whitespace is not part of a
//! line.  Each kind keeps only its record codec and its integrity check.
//!
//! An unterminated line is never parsed: a tear inside a number leaves a
//! shorter number that still parses.  A log's unterminated final line is
//! torn bytes, dropped and reported behind the valid prefix
//! ([`Tail::Torn`]); a resuming writer truncates to that prefix before it
//! appends.  An atomically written file is never seen half-written, so
//! there the same line is corruption ([`Tail::Reject`]).

use crate::error::AcicError;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// What a reader does with an unterminated final line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Append-only log (journal, WAL): torn bytes, dropped and reported.
    Torn,
    /// Atomically written file: corruption.
    Reject,
}

/// Why a file's framing was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt {
    /// 1-based number of the offending line.
    pub line: usize,
    /// What is wrong with it.
    pub reason: String,
    /// The file ends inside or before this header line, as a torn first
    /// write leaves it.
    pub torn: bool,
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl From<Corrupt> for String {
    fn from(e: Corrupt) -> String {
        e.to_string()
    }
}

/// Reads one file: its header lines first, then its records as an
/// iterator of `(line number, record)` borrowed from the text.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a str,
    tail: Tail,
    line: usize,
    valid: usize,
    torn: usize,
}

impl<'a> Reader<'a> {
    /// Read `text` under `tail`'s rule.
    pub fn new(text: &'a str, tail: Tail) -> Self {
        Reader { rest: text, tail, line: 0, valid: 0, torn: 0 }
    }

    /// The next line, trailing whitespace stripped, and whether it was
    /// terminated.  Only terminated lines count as valid bytes.
    fn next_line(&mut self) -> Option<(&'a str, bool)> {
        if self.rest.is_empty() {
            return None;
        }
        self.line += 1;
        let Some(end) = self.rest.find('\n') else {
            self.torn = self.rest.len();
            return Some((std::mem::take(&mut self.rest), false));
        };
        let line = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        self.valid += end + 1;
        Some((line.trim_end(), true))
    }

    fn corrupt(&self, reason: String) -> Corrupt {
        Corrupt { line: self.line, reason, torn: false }
    }

    /// A header line, which must be there and terminated under either rule.
    fn header(&mut self, what: &str) -> Result<&'a str, Corrupt> {
        let (line, problem) = match self.next_line() {
            Some((line, true)) => return Ok(line),
            Some(_) => (self.line, "truncated"),
            None => (self.line + 1, "missing"),
        };
        Err(Corrupt { line, reason: format!("{problem} {what}"), torn: true })
    }

    /// Read the version line, which must be exactly `version`.
    pub fn version(&mut self, version: &str) -> Result<(), Corrupt> {
        match self.header("version header")? {
            line if line == version => Ok(()),
            line => Err(self.corrupt(format!("unknown version header {line:?}, want {version:?}"))),
        }
    }

    /// Read a version line that carries a count: `<version> <count>`.
    pub fn counted_version(&mut self, version: &str) -> Result<usize, Corrupt> {
        let line = self.header("version header")?;
        let count = line.strip_prefix(version).filter(|count| count.starts_with(' '));
        count.and_then(|count| count.trim_start().parse().ok()).ok_or_else(|| {
            self.corrupt(format!("unknown version header {line:?}, want {version:?} <count>"))
        })
    }

    /// Read the summary line: `tag` first when it is not empty, then each
    /// of `keys` exactly once as `key=value`, in any order, and no other
    /// field.  Returns the values in `keys` order.
    pub fn summary<const N: usize>(
        &mut self,
        tag: &str,
        keys: [&str; N],
    ) -> Result<[&'a str; N], Corrupt> {
        let line = self.header("summary line")?;
        let mut words = line.split_whitespace();
        if !tag.is_empty() && words.next() != Some(tag) {
            return Err(self.corrupt(format!("summary line must start with {tag:?}")));
        }
        let mut values = [None; N];
        for word in words {
            let field = word
                .split_once('=')
                .and_then(|(key, value)| Some((keys.iter().position(|k| *k == key)?, value)));
            match field {
                Some((i, value)) if values[i].is_none() => values[i] = Some(value),
                _ => {
                    let reason = format!("unknown, repeated or malformed summary field {word:?}");
                    return Err(self.corrupt(reason));
                }
            }
        }
        match keys.iter().zip(&values).find(|(_, value)| value.is_none()) {
            Some((key, _)) => Err(self.corrupt(format!("summary missing {key:?}"))),
            None => Ok(values.map(Option::unwrap_or_default)),
        }
    }

    /// Length of the trusted prefix: every terminated line read so far.
    pub fn valid_bytes(&self) -> u64 {
        self.valid as u64
    }

    /// Length of the unterminated final line a [`Tail::Torn`] reader
    /// dropped (0 for a clean file).
    pub fn torn_bytes(&self) -> u64 {
        self.torn as u64
    }
}

impl<'a> Iterator for Reader<'a> {
    type Item = Result<(usize, &'a str), Corrupt>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            return match self.next_line()? {
                (_, false) if self.tail == Tail::Torn => None,
                (_, false) => Some(Err(self.corrupt("unterminated final line".into()))),
                ("", true) => continue,
                (record, true) => Some(Ok((self.line, record))),
            };
        }
    }
}

/// Renders one file: the version line, an optional summary line, then
/// records.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// Start a file with its version line (the trace's carries its
    /// count), reserving `capacity` bytes.
    pub fn new(version: &str, capacity: usize) -> Self {
        let mut out = Vec::with_capacity(capacity);
        push(&mut out, |out| out.extend_from_slice(version.as_bytes()));
        Writer(out)
    }

    /// Append the summary line: `tag` when it is not empty, then
    /// `key=value` per field, space-separated.
    pub fn summary(mut self, tag: &str, fields: &[(&str, &dyn fmt::Display)]) -> Self {
        push(&mut self.0, |out| {
            out.extend_from_slice(tag.as_bytes());
            for (i, (key, value)) in fields.iter().enumerate() {
                let sep = if i == 0 && tag.is_empty() { "" } else { " " };
                write!(out, "{sep}{key}={value}").expect("writing to a Vec cannot fail");
            }
        });
        self
    }

    /// Append one record; `write` renders its payload.
    pub fn record(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        push(&mut self.0, write);
    }

    /// The rendered file.
    pub fn finish(self) -> String {
        String::from_utf8(self.0).expect("record payloads are UTF-8")
    }
}

/// Append one line: the payload `write` renders, then the terminator.
/// The journal and WAL appenders frame each line with this.
pub fn push(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    write(out);
    out.push(b'\n');
}

/// Write through a hidden sibling temp file plus rename, so readers (and
/// crashes) see either the old contents or the new, never a tear.  The
/// temp file is synced before the rename and the directory after it, so
/// once this returns the new contents survive a power loss — compaction
/// relies on that before it resets the WAL that held the same samples.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), AcicError> {
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = path.with_file_name(format!(".tmp-{name}"));
    let mut file = std::fs::File::create(&tmp).map_err(|e| AcicError::io(&tmp, e))?;
    file.write_all(contents.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| AcicError::io(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| AcicError::io(path, e))?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| AcicError::io(dir, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records<'a>(file: &mut Reader<'a>) -> Result<Vec<(usize, &'a str)>, Corrupt> {
        file.collect()
    }

    #[test]
    fn header_and_records_round_trip() {
        let hash = format!("{:016x}", 0xab);
        let mut w = Writer::new("kind v1", 0).summary("camp", &[("n", &3), ("h", &hash)]);
        w.record(|out| out.extend_from_slice(b"a\tb"));
        w.record(|out| out.extend_from_slice(b"c"));
        let text = w.finish();
        assert_eq!(text, "kind v1\ncamp n=3 h=00000000000000ab\na\tb\nc\n");

        let mut file = Reader::new(&text, Tail::Reject);
        file.version("kind v1").unwrap();
        assert_eq!(file.summary("camp", ["h", "n"]), Ok(["00000000000000ab", "3"]));
        assert_eq!(records(&mut file).unwrap(), [(3, "a\tb"), (4, "c")]);

        let w = Writer::new("v", 0).summary("", &[("x", &1.5)]);
        assert_eq!(w.finish(), "v\nx=1.5\n");
        assert_eq!(Reader::new("trace-v1 2\n", Tail::Reject).counted_version("trace-v1"), Ok(2));
    }

    #[test]
    fn summaries_require_every_key_once_and_nothing_else() {
        let summary = |line: &str| {
            let text = format!("v\n{line}\n");
            let mut file = Reader::new(&text, Tail::Reject);
            file.version("v").unwrap();
            file.summary("", ["a", "b"]).map(|v| v.map(str::to_string))
        };
        assert_eq!(summary("b=2  a=1 "), Ok(["1".into(), "2".into()]));
        // Values are the kind's to check.
        assert_eq!(summary("a= b=2"), Ok(["".into(), "2".into()]));
        for bad in ["a=1", "a=1 b=2 c=3", "a=1 b=2 a=1", "a=1 b", "tag a=1 b=2", ""] {
            let err = summary(bad).unwrap_err();
            assert_eq!((err.line, err.torn), (2, false), "{bad}: {err}");
        }
        let mut file = Reader::new("v\ntag a=1 b=x\n", Tail::Reject);
        file.version("v").unwrap();
        assert_eq!(file.summary("tag", ["a", "b"]), Ok(["1", "x"]));
    }

    #[test]
    fn headers_reject_other_versions_and_tears() {
        let version = |text: &str| Reader::new(text, Tail::Torn).version("kind v1");
        assert!(version("kind v1\n").is_ok());
        assert!(version("kind v1 \r\n").is_ok(), "trailing whitespace is not part of a line");
        for bad in ["kind v2\n", "kind v1 2\n", "\n"] {
            let err = version(bad).unwrap_err();
            assert!(!err.torn && err.reason.contains("header"), "{bad:?}: {err}");
        }
        for torn in ["", "kind v1", "kind"] {
            let err = version(torn).unwrap_err();
            assert!(err.torn && err.line == 1, "{torn:?}: {err}");
        }
        let mut file = Reader::new("kind v1\nn=1", Tail::Reject);
        file.version("kind v1").unwrap();
        assert!(file.summary("", ["n"]).unwrap_err().torn, "a torn summary line");
        let counted = |text: &str| Reader::new(text, Tail::Reject).counted_version("t-v1");
        assert_eq!(counted("t-v1  7\n"), Ok(7));
        for bad in ["t-v1\n", "t-v17\n", "t-v2 7\n", "t-v1 x\n", "t-v1 7"] {
            assert!(counted(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn tails_are_torn_in_logs_and_corrupt_in_atomic_files() {
        let text = "v\nrec 1\n\n  \nrec 2\nrec 3 torn";
        let mut log = Reader::new(text, Tail::Torn);
        log.version("v").unwrap();
        assert_eq!(records(&mut log).unwrap(), [(2, "rec 1"), (5, "rec 2")]);
        assert_eq!(log.torn_bytes(), "rec 3 torn".len() as u64);
        assert_eq!(log.valid_bytes() + log.torn_bytes(), text.len() as u64);

        let mut file = Reader::new(text, Tail::Reject);
        file.version("v").unwrap();
        let err = records(&mut file).unwrap_err();
        assert_eq!(err.line, 6, "{err}");
        assert!(err.reason.contains("unterminated"), "{err}");

        let clean = "v\nrec 1\n";
        let mut log = Reader::new(clean, Tail::Torn);
        log.version("v").unwrap();
        assert_eq!(records(&mut log).unwrap(), [(2, "rec 1")]);
        assert_eq!((log.valid_bytes(), log.torn_bytes()), (clean.len() as u64, 0));
    }

    #[test]
    fn write_atomic_replaces_the_whole_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-records");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.txt");
        write_atomic(&path, "old\n").unwrap();
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        assert!(!dir.join(".tmp-atomic.txt").exists());
        std::fs::remove_file(&path).unwrap();
    }
}
