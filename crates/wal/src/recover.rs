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

use std::fs;
use std::io::{Read as _, Write as _};
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
    let mut next = None::<Lsn>;
    for (i, (name_base, path)) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        let mut bytes = Vec::new();
        fs::File::open(path)?.read_to_end(&mut bytes)?;
        let base = record::decode_segment_header(&bytes)
            .ok_or_else(|| WalError::BadHeader(path.clone()))?;
        if base != *name_base {
            return Err(WalError::BaseMismatch(path.clone()));
        }
        // Empty log restarts are allowed to leave earlier empty
        // segments behind; a non-empty segment must start where the
        // previous one left off.
        let mut at = record::SEGMENT_HEADER;
        let mut first_in_seg = true;
        while at < bytes.len() {
            match record::decode_record(&bytes[at..]) {
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
                    apply(rec.lsn, &rec.ops);
                    out.records += 1;
                    out.ops += rec.ops.len() as u64;
                    next = Some(rec.lsn + 1);
                    at += rec.size;
                }
                None if last => {
                    // Torn tail: drop it so future appends resume from
                    // a clean record boundary.
                    out.truncated_bytes += (bytes.len() - at) as u64;
                    let f = fs::OpenOptions::new().write(true).open(path)?;
                    f.set_len(at as u64)?;
                    f.sync_all()?;
                    at = bytes.len();
                }
                None => {
                    return Err(WalError::CorruptInterior(path.clone(), at as u64));
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
