//! On-disk record and segment layout.
//!
//! A segment file starts with a 16-byte header:
//!
//! ```text
//! magic   u64 LE   0x31_4c_41_57_45_4c_57_52  ("RWLEWAL1" little-endian)
//! base    u64 LE   LSN of the first record in this segment
//! ```
//!
//! followed by records, each:
//!
//! ```text
//! len     u32 LE   payload length in bytes
//! crc     u32 LE   CRC-32 (IEEE) over lsn || payload
//! lsn     u64 LE   log sequence number (strictly +1 per record)
//! payload len bytes
//! ```
//!
//! The payload is one batch's effective write-set:
//!
//! ```text
//! n_ops   u32 LE
//! n_ops × { tag u8 (1 = PUT, 2 = DEL), key u64 LE, value u64 LE (PUT only) }
//! ```
//!
//! The CRC covers the LSN so a record copied to the wrong log position
//! (or a stale block exposed by a torn segment write) cannot validate.
//! It is computed slicing-by-8 (eight compile-time tables, eight input
//! bytes per step): the same checksum as the bytewise table loop, which
//! stays behind as the test oracle, at about a quarter of its cost on
//! the megabytes of log recovery reads.
//! `len` is *not* covered: a torn `len` either points past EOF (caught
//! by the bounds check) or frames bytes whose CRC then fails — both
//! classify as a torn tail.

use workloads::backend::{Lsn, MutOp};

/// Segment header magic ("RWLEWAL1" as a little-endian u64).
pub const MAGIC: u64 = u64::from_le_bytes(*b"RWLEWAL1");

/// Bytes of the segment header (magic + base LSN).
pub const SEGMENT_HEADER: usize = 16;

/// Bytes of a record header (len + crc + lsn).
pub const RECORD_HEADER: usize = 16;

/// Largest accepted payload: a defense bound for recovery, far above
/// any real batch (the svc layer caps batches at 1024 ops, its
/// per-iteration budget).
pub const MAX_PAYLOAD: usize = 64 << 20;

const TAG_PUT: u8 = 1;
const TAG_DEL: u8 = 2;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `!0`) — slicing-by-8,
/// dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The slicing-by-8 tables, built at compile time: `TABLES[0]` is the
/// classic byte table, and `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the state
/// over eight input bytes at once.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Feeds `bytes` into a running CRC-32 `state` (start from `!0`,
/// complement the final state), so a checksum over several slices
/// needs no buffer that joins them. Eight bytes per step through
/// [`TABLES`], the tail a byte at a time: the same function as the
/// bytewise loop, at about a quarter of its cost on recovery's
/// megabytes.
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = t[0][((state ^ u32::from(b)) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// The record checksum: CRC-32 over `lsn || payload`, in place.
fn record_crc(lsn: Lsn, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &lsn.to_le_bytes()), payload)
}

/// Appends the segment header for a segment whose first record will be
/// `base`.
pub fn encode_segment_header(out: &mut Vec<u8>, base: Lsn) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&base.to_le_bytes());
}

/// Parses a segment header, returning the base LSN.
pub fn decode_segment_header(bytes: &[u8]) -> Option<Lsn> {
    if bytes.len() < SEGMENT_HEADER {
        return None;
    }
    if u64::from_le_bytes(bytes[0..8].try_into().unwrap()) != MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// Appends one complete record (header + payload) for `ops` at `lsn`.
pub fn encode_record(out: &mut Vec<u8>, lsn: Lsn, ops: &[MutOp]) {
    let header_at = out.len();
    out.resize(header_at + RECORD_HEADER, 0);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match *op {
            MutOp::Put { key, value } => {
                out.push(TAG_PUT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            MutOp::Del { key } => {
                out.push(TAG_DEL);
                out.extend_from_slice(&key.to_le_bytes());
            }
        }
    }
    let payload_at = header_at + RECORD_HEADER;
    let len = (out.len() - payload_at) as u32;
    let crc = record_crc(lsn, &out[payload_at..]);
    out[header_at..header_at + 4].copy_from_slice(&len.to_le_bytes());
    out[header_at + 4..header_at + 8].copy_from_slice(&crc.to_le_bytes());
    out[header_at + 8..header_at + 16].copy_from_slice(&lsn.to_le_bytes());
}

/// One decoded record.
pub struct Record {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The decoded write-set.
    pub ops: Vec<MutOp>,
    /// Total encoded size (header + payload).
    pub size: usize,
}

/// Attempts to decode one record at the front of `bytes`. `None` means
/// the bytes do not form a complete, checksummed, well-formed record —
/// recovery classifies that as a torn tail (last segment) or corruption
/// (earlier segment); the two cases are indistinguishable here.
pub fn decode_record(bytes: &[u8]) -> Option<Record> {
    if bytes.len() < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let lsn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if len > MAX_PAYLOAD || bytes.len() < RECORD_HEADER + len {
        return None;
    }
    let payload = &bytes[RECORD_HEADER..RECORD_HEADER + len];
    if record_crc(lsn, payload) != crc {
        return None;
    }
    let ops = decode_ops(payload)?;
    Some(Record {
        lsn,
        ops,
        size: RECORD_HEADER + len,
    })
}

fn decode_ops(payload: &[u8]) -> Option<Vec<MutOp>> {
    if payload.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let mut at = 4;
    let mut ops = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let tag = *payload.get(at)?;
        at += 1;
        let key = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().unwrap());
        at += 8;
        match tag {
            TAG_PUT => {
                let value = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().unwrap());
                at += 8;
                ops.push(MutOp::Put { key, value });
            }
            TAG_DEL => ops.push(MutOp::Del { key }),
            _ => return None,
        }
    }
    if at != payload.len() {
        return None;
    }
    Some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition slicing-by-8 must agree with: one table lookup per
    /// byte.
    fn crc32_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = TABLES[0][((state ^ u32::from(b)) & 0xff) as usize] ^ (state >> 8);
        }
        state
    }

    /// Every length from 0 to 300 (every alignment of the 8-byte steps
    /// and every tail length), resumed at every split point, gives the
    /// bytewise value.
    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let bytes: Vec<u8> = (0..300)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            let data = &bytes[..len];
            let want = crc32_bytewise(!0, data);
            for cut in 0..=len {
                let got = crc32_update(crc32_update(!0, &data[..cut]), &data[cut..]);
                assert_eq!(got, want, "length {len}, split at {cut}");
            }
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value (resumed splits: above).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte format is frozen: these are the bytes the one-shot
    /// `lsn || payload` checksum of PR 10 produced for the same input,
    /// so a log written before the CRC became resumable replays after,
    /// and the other way round.
    #[test]
    fn encoding_matches_the_golden_bytes() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let ops = [
            MutOp::Put { key: 7, value: 9 },
            MutOp::Del { key: u64::MAX },
            MutOp::Put {
                key: 0x0102_0304_0506_0708,
                value: 0xfffe_fdfc_fbfa_f9f8,
            },
        ];
        let mut buf = Vec::new();
        encode_record(&mut buf, 0x1122_3344_5566_7788, &ops);
        assert_eq!(
            hex(&buf),
            "2f0000008ff2083e8877665544332211030000000107000000000000000900000000000000\
             02ffffffffffffffff010807060504030201f8f9fafbfcfdfeff"
        );
        assert_eq!(decode_record(&buf).expect("golden decodes").ops, ops);
        buf.clear();
        encode_record(&mut buf, 1, &[]);
        assert_eq!(hex(&buf), "04000000008a70e0010000000000000000000000");
    }

    #[test]
    fn record_roundtrips() {
        let ops = vec![
            MutOp::Put { key: 7, value: 9 },
            MutOp::Del { key: u64::MAX },
            MutOp::Put {
                key: 0,
                value: u64::MAX,
            },
        ];
        let mut buf = Vec::new();
        encode_record(&mut buf, 42, &ops);
        let rec = decode_record(&buf).expect("valid record");
        assert_eq!(rec.lsn, 42);
        assert_eq!(rec.ops, ops);
        assert_eq!(rec.size, buf.len());
    }

    #[test]
    fn empty_write_set_roundtrips() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, &[]);
        let rec = decode_record(&buf).expect("valid record");
        assert!(rec.ops.is_empty());
    }

    #[test]
    fn torn_and_corrupt_records_do_not_decode() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 3, &[MutOp::Put { key: 1, value: 2 }]);
        // Every strict prefix is torn.
        for cut in 0..buf.len() {
            assert!(decode_record(&buf[..cut]).is_none(), "prefix {cut} decoded");
        }
        // Any single bit flip fails the checksum (or the bounds/shape
        // checks, for flips in `len`/`n_ops`).
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert!(
                decode_record(&bad)
                    .map(|r| (r.lsn, r.ops.clone()))
                    .is_none_or(|got| got != (3, vec![MutOp::Put { key: 1, value: 2 }])),
                "flip at {byte} decoded to the original"
            );
        }
    }

    #[test]
    fn segment_header_roundtrips() {
        let mut buf = Vec::new();
        encode_segment_header(&mut buf, 99);
        assert_eq!(buf.len(), SEGMENT_HEADER);
        assert_eq!(decode_segment_header(&buf), Some(99));
        assert_eq!(decode_segment_header(&buf[..15]), None);
        let mut bad = buf.clone();
        bad[0] ^= 1;
        assert_eq!(decode_segment_header(&bad), None);
    }
}
