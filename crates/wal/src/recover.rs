//! Crash recovery: replay a WAL directory in LSN order.
//!
//! Recovery walks segments sorted by their base LSN, decoding records
//! front-to-back. An undecodable suffix is tolerated **only at the tail
//! of the last segment** — that is the one place a crash mid-append can
//! legally leave torn bytes, and recovery truncates the file back to
//! the last whole record. A final segment shorter than its header (a
//! crash between creating it and writing the header) holds no record and
//! is removed whole. An undecodable region anywhere else means the
//! log was damaged after it was written (bit rot, manual edits) and is
//! reported as a hard error rather than silently dropping acked
//! history.
//!
//! A segment is read through one reused buffer of [`READ_CHUNK`] bytes,
//! not into memory of its own size: what is left of the chunk moves to
//! its front and the file refills the rest, so a record may straddle
//! two chunks, and a record longer than the buffer grows it to fit.
//! Each record's ops are decoded into one reused `Vec`. A start thereby
//! touches about 1 MiB for the log's bytes whatever its length.

use std::fs;
use std::io::{Read, Write as _};
use std::path::{Path, PathBuf};

use workloads::backend::{Lsn, MutOp};

use crate::record;

/// Why recovery refused to replay a directory.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error touching the directory or a segment.
    Io(std::io::Error),
    /// A segment file has a bad header.
    BadHeader(PathBuf),
    /// A segment's filename disagrees with its header's base LSN.
    BaseMismatch(PathBuf),
    /// Undecodable bytes somewhere other than the last segment's tail.
    CorruptInterior(PathBuf, u64),
    /// A record's LSN broke the strictly-contiguous sequence.
    LsnGap { expected: Lsn, found: Lsn },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadHeader(p) => write!(f, "bad segment header: {}", p.display()),
            WalError::BaseMismatch(p) => {
                write!(f, "segment name/header base mismatch: {}", p.display())
            }
            WalError::CorruptInterior(p, at) => write!(
                f,
                "undecodable record at byte {at} of non-final segment {}",
                p.display()
            ),
            WalError::LsnGap { expected, found } => {
                write!(f, "lsn gap: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Summary of a completed replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Whole records replayed.
    pub records: u64,
    /// Individual ops replayed.
    pub ops: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Torn bytes truncated from the final segment, a removed torn
    /// segment header included (0 on a clean log).
    pub truncated_bytes: u64,
    /// LSN the next append should use (`last replayed + 1`, or 1 for an
    /// empty/absent log).
    pub next_lsn: Lsn,
}

/// Returns the segment filename for a given base LSN.
pub fn segment_name(base: Lsn) -> String {
    format!("wal-{base:016x}.seg")
}

fn parse_segment_name(name: &str) -> Option<Lsn> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    Lsn::from_str_radix(hex, 16).ok()
}

pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(Lsn, PathBuf)>, WalError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if let Some(base) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_segment_name)
        {
            segs.push((base, path));
        }
    }
    segs.sort_by_key(|&(base, _)| base);
    Ok(segs)
}

/// Bytes of the buffer [`replay`] streams each segment through.
pub const READ_CHUNK: usize = 1 << 20;

/// Bytes [`estimate_ops`] samples from the front of the log.
const SAMPLE: usize = 64 << 10;

/// About how many ops the log under `dir` holds, before it is replayed:
/// its record bytes (every segment's length past its header) times the
/// ops per byte of the whole records in its first 64 KiB (`SAMPLE`),
/// counted from their headers, nothing checked. Records of one shape
/// (the synthetic logs `benchmark/` and `recovery_time` write: 64 ops,
/// PUT or DEL with even odds) put it within about 1 %. 0 for an empty
/// or absent log, or one whose first record is longer than the sample.
/// A loader may size its buffers by it ([`StoreLoader::expect`]); the
/// replay never relies on it.
///
/// [`StoreLoader::expect`]: workloads::StoreLoader::expect
pub fn estimate_ops(dir: &Path) -> Result<usize, WalError> {
    if !dir.exists() {
        return Ok(0);
    }
    let header = record::SEGMENT_HEADER as u64;
    let mut framed = 0;
    let mut first = None;
    for (_, path) in list_segments(dir)? {
        let len = fs::metadata(&path)?.len();
        if len > header {
            framed += len - header;
            first.get_or_insert(path);
        }
    }
    let Some(first) = first else {
        return Ok(0);
    };
    let mut sample = Vec::with_capacity(SAMPLE);
    fs::File::open(first)?
        .take(SAMPLE as u64)
        .read_to_end(&mut sample)?;
    let (ops, bytes) = record::count_framed(sample.get(record::SEGMENT_HEADER..).unwrap_or(&[]));
    Ok(match bytes {
        0 => 0,
        _ => usize::try_from(u128::from(framed) * u128::from(ops) / u128::from(bytes))
            .unwrap_or(usize::MAX),
    })
}

/// One segment read a chunk at a time into a reused buffer.
struct Chunks<'b> {
    file: fs::File,
    /// The segment's length when it was opened.
    len: u64,
    buf: &'b mut Vec<u8>,
    /// The file offset of `buf[0]`.
    start: u64,
    /// `buf[at..end]` is read and not yet consumed.
    at: usize,
    end: usize,
}

impl<'b> Chunks<'b> {
    fn open(path: &Path, buf: &'b mut Vec<u8>) -> Result<Chunks<'b>, WalError> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Chunks {
            file,
            len,
            buf,
            start: 0,
            at: 0,
            end: 0,
        })
    }

    /// The file offset of the first unconsumed byte.
    fn offset(&self) -> u64 {
        self.start + self.at as u64
    }

    /// The unconsumed bytes in hand, holding at least the first `want`
    /// of the rest of the segment, or all of it where it holds fewer:
    /// the bytes in hand move to the buffer's front, the buffer grows
    /// to `want` if it is shorter, and the file fills the rest.
    fn window(&mut self, want: usize) -> Result<&[u8], WalError> {
        let rest = self.len.saturating_sub(self.offset());
        let want = want.min(usize::try_from(rest).unwrap_or(usize::MAX));
        if self.end - self.at < want {
            self.buf.copy_within(self.at..self.end, 0);
            self.start += self.at as u64;
            self.end -= self.at;
            self.at = 0;
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            while self.end < self.buf.len() {
                match self.file.read(&mut self.buf[self.end..])? {
                    0 => break,
                    n => self.end += n,
                }
            }
        }
        Ok(&self.buf[self.at..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
    }
}

/// Replays every record under `dir` in LSN order, calling `apply` with
/// each record's write-set. Truncates a torn tail in place (so the next
/// open appends after the last whole record) and removes a final segment
/// torn inside its header. A missing or empty
/// directory is a valid empty log.
pub fn replay(dir: &Path, mut apply: impl FnMut(Lsn, &[MutOp])) -> Result<Replay, WalError> {
    let mut out = Replay {
        next_lsn: 1,
        ..Replay::default()
    };
    if !dir.exists() {
        return Ok(out);
    }
    let mut segs = list_segments(dir)?;
    // A crash between a segment's creation and its header write (at open
    // or at a rotation) leaves a final segment shorter than the header,
    // with no record behind it: drop it as torn. The next open recreates
    // it, named by the recovered `next_lsn` as it was.
    if let Some((_, path)) = segs.last() {
        let len = fs::metadata(path)?.len();
        if len < record::SEGMENT_HEADER as u64 {
            fs::remove_file(path)?;
            out.truncated_bytes = len;
            segs.pop();
        }
    }
    let mut buf = vec![0; READ_CHUNK];
    let mut ops = Vec::new();
    let mut next = None::<Lsn>;
    for (i, (name_base, path)) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        let mut seg = Chunks::open(path, &mut buf)?;
        let base = record::decode_segment_header(seg.window(READ_CHUNK)?)
            .ok_or_else(|| WalError::BadHeader(path.clone()))?;
        if base != *name_base {
            return Err(WalError::BaseMismatch(path.clone()));
        }
        seg.consume(record::SEGMENT_HEADER);
        // Empty log restarts are allowed to leave earlier empty
        // segments behind; a non-empty segment must start where the
        // previous one left off.
        let mut first_in_seg = true;
        while seg.offset() < seg.len {
            let head = seg.window(record::RECORD_HEADER)?;
            let framed = record::framed_len(head);
            let bytes = seg.window(framed)?;
            match record::decode_record(bytes, &mut ops) {
                Some(rec) => {
                    if first_in_seg {
                        if rec.lsn != base {
                            return Err(WalError::BaseMismatch(path.clone()));
                        }
                        if let Some(expected) = next {
                            if rec.lsn != expected {
                                return Err(WalError::LsnGap {
                                    expected,
                                    found: rec.lsn,
                                });
                            }
                        }
                        first_in_seg = false;
                    } else if Some(rec.lsn) != next {
                        return Err(WalError::LsnGap {
                            expected: next.unwrap_or(base),
                            found: rec.lsn,
                        });
                    }
                    apply(rec.lsn, &ops);
                    out.records += 1;
                    out.ops += ops.len() as u64;
                    next = Some(rec.lsn + 1);
                    seg.consume(rec.size);
                }
                None if last => {
                    // Torn tail: drop it so future appends resume from
                    // a clean record boundary.
                    let at = seg.offset();
                    out.truncated_bytes += seg.len - at;
                    let f = fs::OpenOptions::new().write(true).open(path)?;
                    f.set_len(at)?;
                    f.sync_all()?;
                    break;
                }
                None => {
                    return Err(WalError::CorruptInterior(path.clone(), seg.offset()));
                }
            }
        }
        out.segments += 1;
    }
    if let Some(next) = next {
        out.next_lsn = next;
    }
    Ok(out)
}

/// Test/tooling helper: writes a standalone segment containing `batches`
/// starting at `base`, returning the path. Appends raw `extra` bytes
/// afterwards (to fabricate torn tails).
pub fn write_segment(
    dir: &Path,
    base: Lsn,
    batches: &[Vec<MutOp>],
    extra: &[u8],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(segment_name(base));
    let mut buf = Vec::new();
    record::encode_segment_header(&mut buf, base);
    for (i, ops) in batches.iter().enumerate() {
        record::encode_record(&mut buf, base + i as Lsn, ops);
    }
    buf.extend_from_slice(extra);
    let mut f = fs::File::create(&path)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    Ok(path)
}
