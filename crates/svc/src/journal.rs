//! The ack journal: loadgen's client-side record of every mutation it
//! sent, and the verifier that checks a recovered server against it.
//!
//! ## Why it is sound under a server crash
//!
//! Journal runs partition the key space per connection (connection `c`
//! of `n` only mutates keys `≡ c (mod n)`) and give every PUT a
//! globally unique value, so each key's mutation history is exactly one
//! connection's subsequence — totally ordered by send order. Because
//! the server executes one connection's requests in FIFO order and
//! loadgen's closed loop reads replies in FIFO order, the *replied*
//! mutations of a connection are a prefix of its sent mutations; when
//! the server is SIGKILLed mid-load the trailing sent-but-unanswered
//! ops each may or may not have executed, but nothing later can have
//! executed before anything earlier.
//!
//! A key's recovered value must therefore be:
//!
//! * the state after its last **acked** mutation (nothing trailing
//!   executed), or
//! * the state written by one of its trailing **sent** mutations.
//!
//! Anything else — most importantly any state *older* than the last
//! acked mutation — is a lost ack: the durability contract
//! (acked ⇒ durable) was broken. Keys with no acked mutation have an
//! unknowable baseline (the prefill or a failed put decide) and are
//! skipped.
//!
//! ## File format (`rwled-journal v1`)
//!
//! Line-oriented text; `#` starts a comment. The first line is the
//! magic `# rwled-journal v1`. Every other line is one mutation:
//!
//! ```text
//! <conn> <seq> put <key> <value> <status>
//! <conn> <seq> del <key> - <status>
//! ```
//!
//! `conn` is the connection id, `seq` its per-connection send index
//! (contiguous from 0 per connection), and `status` is `acked` (the
//! server answered Ok/NotFound), `failed` (answered Busy/ServerFull or
//! garbage — the op had no effect), or `sent` (no answer arrived; the
//! op may or may not have executed).

use std::io::{self, BufRead, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;

use crate::proto::{FrameReader, Request, Response};

/// One journaled mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Load-generator connection id.
    pub conn: u64,
    /// Per-connection send index (0-based, contiguous).
    pub seq: u64,
    /// The mutation itself.
    pub op: JournalOp,
    /// What the client knows about its fate.
    pub status: JStatus,
}

/// The mutation of a [`JournalEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// `PUT key value`.
    Put {
        /// Target key.
        key: u64,
        /// The (journal-unique) value written.
        value: u64,
    },
    /// `DEL key`.
    Del {
        /// Target key.
        key: u64,
    },
}

impl JournalOp {
    /// The key this op mutates.
    pub fn key(&self) -> u64 {
        match *self {
            JournalOp::Put { key, .. } | JournalOp::Del { key } => key,
        }
    }
}

/// Client-observed fate of a journaled mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JStatus {
    /// Sent; no reply arrived (the server may or may not have run it).
    Sent,
    /// Answered Ok or NotFound: executed and, on a durable server,
    /// fsynced before the answer left.
    Acked,
    /// Answered Busy/ServerFull (or garbage): had no effect.
    Failed,
}

impl JStatus {
    fn label(self) -> &'static str {
        match self {
            JStatus::Sent => "sent",
            JStatus::Acked => "acked",
            JStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<JStatus> {
        match s {
            "sent" => Some(JStatus::Sent),
            "acked" => Some(JStatus::Acked),
            "failed" => Some(JStatus::Failed),
            _ => None,
        }
    }
}

/// Journal-unique PUT value: top bit tags journal values, then 23 bits
/// of connection id and 40 bits of per-connection sequence.
pub fn journal_value(conn: u64, seq: u64) -> u64 {
    (1 << 63) | ((conn & 0x7f_ffff) << 40) | (seq & 0xff_ffff_ffff)
}

/// Maps a sampled key onto connection `conn`'s partition (`key ≡ conn
/// (mod conns)`), keeping the distribution's shape.
pub fn partition_key(key: u64, conn: u64, conns: u64) -> u64 {
    if conns <= 1 {
        key
    } else {
        (key / conns) * conns + conn
    }
}

/// Writes the journal file (format above), overwriting `path`.
pub fn write(path: &Path, entries: &[JournalEntry]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# rwled-journal v1")?;
    for e in entries {
        match e.op {
            JournalOp::Put { key, value } => writeln!(
                out,
                "{} {} put {} {} {}",
                e.conn,
                e.seq,
                key,
                value,
                e.status.label()
            )?,
            JournalOp::Del { key } => writeln!(
                out,
                "{} {} del {} - {}",
                e.conn,
                e.seq,
                key,
                e.status.label()
            )?,
        }
    }
    out.flush()
}

/// Loads a journal file written by [`write()`].
pub fn load(path: &Path) -> io::Result<Vec<JournalEntry>> {
    let bad = |line: usize, why: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}:{line}: {why}", path.display()),
        )
    };
    let file = std::fs::File::open(path)?;
    let mut entries = Vec::new();
    for (i, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if i == 0 {
            if line != "# rwled-journal v1" {
                return Err(bad(1, "missing `# rwled-journal v1` magic"));
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.split_ascii_whitespace();
        let (Some(conn), Some(seq), Some(op), Some(key), Some(value), Some(status)) =
            (f.next(), f.next(), f.next(), f.next(), f.next(), f.next())
        else {
            return Err(bad(i + 1, "want `conn seq op key value status`"));
        };
        if f.next().is_some() {
            return Err(bad(i + 1, "trailing fields"));
        }
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| bad(i + 1, &format!("bad {what}")))
        };
        let conn = parse_u64(conn, "conn")?;
        let seq = parse_u64(seq, "seq")?;
        let key = parse_u64(key, "key")?;
        let op = match op {
            "put" => JournalOp::Put {
                key,
                value: parse_u64(value, "value")?,
            },
            "del" => JournalOp::Del { key },
            _ => return Err(bad(i + 1, "op must be put or del")),
        };
        let status =
            JStatus::parse(status).ok_or_else(|| bad(i + 1, "status must be sent|acked|failed"))?;
        entries.push(JournalEntry {
            conn,
            seq,
            op,
            status,
        });
    }
    Ok(entries)
}

/// Outcome of [`verify_against`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Keys with a known acked baseline that were checked.
    pub keys_checked: u64,
    /// Keys skipped for lack of any acked mutation (unknowable state).
    pub keys_skipped: u64,
    /// Keys whose recovered state matched neither the acked baseline
    /// nor any trailing sent mutation — broken durability.
    pub lost_acks: u64,
    /// Human-readable descriptions of the first few violations.
    pub examples: Vec<String>,
}

impl VerifyReport {
    /// True when every acked write was readable.
    pub fn ok(&self) -> bool {
        self.lost_acks == 0
    }
}

/// What a key is allowed to hold after recovery.
struct Allowed {
    /// State after the last acked mutation.
    baseline: Option<u64>,
    /// States any trailing sent mutation would leave.
    trailing: Vec<Option<u64>>,
}

/// Per-key allowed states from one key's entries in send order.
/// `None` when the key has no acked mutation (unknowable baseline).
fn allowed_states(entries: &[&JournalEntry]) -> Option<Allowed> {
    let last_acked = entries.iter().rposition(|e| e.status == JStatus::Acked)?;
    let baseline = match entries[last_acked].op {
        JournalOp::Put { value, .. } => Some(value),
        JournalOp::Del { .. } => None,
    };
    // Anything replied (acked or failed) cannot re-execute; only
    // *sent* ops after the last reply are in limbo. Replies are FIFO,
    // so the limbo ops are the trailing `sent` run.
    let first_limbo = entries
        .iter()
        .rposition(|e| e.status != JStatus::Sent)
        .map(|i| i + 1)
        .unwrap_or(0);
    let trailing = entries[first_limbo..]
        .iter()
        .map(|e| match e.op {
            JournalOp::Put { value, .. } => Some(value),
            JournalOp::Del { .. } => None,
        })
        .collect();
    Some(Allowed { baseline, trailing })
}

/// Checks every verifiable journaled key against the (recovered) server
/// at `addr` with one pipelined GET pass. Zero `lost_acks` means every
/// acked write survived.
pub fn verify_against(addr: &str, entries: &[JournalEntry]) -> io::Result<VerifyReport> {
    // Group per key. Keys are partitioned per connection, so one key's
    // entries all share a connection and arrive here in seq order as
    // long as the journal lists each connection's ops in order (which
    // `write` guarantees); sort defensively anyway.
    let mut by_key: std::collections::BTreeMap<u64, Vec<&JournalEntry>> =
        std::collections::BTreeMap::new();
    for e in entries {
        by_key.entry(e.op.key()).or_default().push(e);
    }
    for v in by_key.values_mut() {
        v.sort_by_key(|e| (e.conn, e.seq));
    }

    let mut report = VerifyReport::default();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut fr = FrameReader::new();
    let mut rbuf = [0u8; 16 * 1024];
    // Pipeline the GETs in windows to keep verification O(seconds) even
    // for large journals.
    const WINDOW: usize = 256;
    let keys: Vec<(u64, Allowed)> = by_key
        .iter()
        .filter_map(|(&k, es)| match allowed_states(es) {
            Some(a) => Some((k, a)),
            None => {
                report.keys_skipped += 1;
                None
            }
        })
        .collect();
    let mut observed: Vec<Option<u64>> = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(WINDOW) {
        let mut wbuf = Vec::with_capacity(chunk.len() * 16);
        for &(key, _) in chunk {
            Request::Get { key }.encode_frame(&mut wbuf);
        }
        stream.write_all(&wbuf)?;
        let mut got = 0;
        while got < chunk.len() {
            let n = stream.read(&mut rbuf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed during verification",
                ));
            }
            fr.extend(&rbuf[..n]);
            while let Some(body) = fr.next_frame().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
            })? {
                match Response::decode(&body) {
                    Ok(Response::Value(v)) => observed.push(Some(v)),
                    Ok(Response::NotFound) => observed.push(None),
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected GET reply: {other:?}"),
                        ))
                    }
                }
                got += 1;
            }
        }
    }

    for ((key, allowed), got) in keys.iter().zip(&observed) {
        report.keys_checked += 1;
        if *got == allowed.baseline || allowed.trailing.contains(got) {
            continue;
        }
        report.lost_acks += 1;
        if report.examples.len() < 8 {
            report.examples.push(format!(
                "key {key}: observed {:?}, acked baseline {:?}, {} trailing sent candidates",
                got,
                allowed.baseline,
                allowed.trailing.len()
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(conn: u64, seq: u64, op: JournalOp, status: JStatus) -> JournalEntry {
        JournalEntry {
            conn,
            seq,
            op,
            status,
        }
    }

    #[test]
    fn file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.txt");
        let entries = vec![
            e(0, 0, JournalOp::Put { key: 4, value: 9 }, JStatus::Acked),
            e(0, 1, JournalOp::Del { key: 4 }, JStatus::Failed),
            e(1, 0, JournalOp::Put { key: 5, value: 7 }, JStatus::Sent),
        ];
        write(&path, &entries).unwrap();
        assert_eq!(load(&path).unwrap(), entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.txt");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(load(&path).is_err());
        std::fs::write(&path, "# rwled-journal v1\n0 0 put 1 x acked\n").unwrap();
        assert!(load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn allowed_states_cover_the_limbo_window() {
        let es = [
            e(0, 0, JournalOp::Put { key: 1, value: 10 }, JStatus::Acked),
            e(0, 1, JournalOp::Put { key: 1, value: 11 }, JStatus::Failed),
            e(0, 2, JournalOp::Put { key: 1, value: 12 }, JStatus::Sent),
            e(0, 3, JournalOp::Del { key: 1 }, JStatus::Sent),
        ];
        let refs: Vec<&JournalEntry> = es.iter().collect();
        let a = allowed_states(&refs).unwrap();
        // Baseline is the acked put (the failed one had no effect);
        // both trailing sent ops are possible outcomes.
        assert_eq!(a.baseline, Some(10));
        assert_eq!(a.trailing, vec![Some(12), None]);
    }

    #[test]
    fn keys_without_acks_are_unverifiable() {
        let es = [
            e(0, 0, JournalOp::Put { key: 1, value: 10 }, JStatus::Failed),
            e(0, 1, JournalOp::Put { key: 1, value: 11 }, JStatus::Sent),
        ];
        let refs: Vec<&JournalEntry> = es.iter().collect();
        assert!(allowed_states(&refs).is_none());
    }

    #[test]
    fn journal_values_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for conn in 0..16 {
            for seq in 0..64 {
                assert!(seen.insert(journal_value(conn, seq)));
            }
        }
    }

    #[test]
    fn partitioned_keys_stay_disjoint() {
        let conns = 7u64;
        for conn in 0..conns {
            for k in 0..1000 {
                assert_eq!(partition_key(k, conn, conns) % conns, conn);
            }
        }
    }
}
