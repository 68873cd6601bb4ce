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
//! Where the CPU has carry-less multiplication (PCLMULQDQ, found at run
//! time) a payload of 64 bytes or more is folded 64 bytes a step (Gopal
//! et al., "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ", Intel, 2009); everything else, and every host without the
//! instruction, goes slicing-by-8 (eight compile-time tables, eight
//! bytes a step). Both compute the same checksum; the table path is the
//! fold's test oracle, and the bytewise table loop is the table path's.
//! On the 8 MB of a 600 k-op log the table path takes about 5.6 ms.
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

/// CRC-32 (IEEE 802.3, reflected, init/xorout `!0`), dependency-free:
/// the carry-less fold where the CPU has it, slicing-by-8 elsewhere.
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
/// needs no buffer that joins them: [`clmul::update`] for 64 bytes or
/// more where the CPU has PCLMULQDQ and SSE4.1, [`table_update`]
/// otherwise.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` found both features the fold is compiled
        // for on this CPU.
        return unsafe { clmul::update(state, bytes) };
    }
    table_update(state, bytes)
}

/// [`crc32_update`] slicing-by-8: eight bytes per step through
/// [`TABLES`], the tail a byte at a time. The same function as the
/// bytewise loop, at about a quarter of its cost.
fn table_update(mut state: u32, bytes: &[u8]) -> u32 {
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

/// The CRC-32 fold by carry-less multiplication (Gopal et al., Intel
/// 2009; the constants are the ones Linux's `crc32-pclmul` uses). Four
/// 128-bit lanes take 64 bytes a step, each multiplied forward by
/// x^512 mod P; the lanes fold into one, which takes the remaining
/// 16-byte blocks; a Barrett reduction leaves the 32-bit state, and the
/// last 0–15 bytes go through the tables.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The fewest bytes the fold takes: its four lanes' first load.
    pub(super) const MIN_LEN: usize = 64;

    /// x^(4·128+32) mod P and x^(4·128−32) mod P: a lane 64 bytes on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P and x^(128−32) mod P: a lane 16 bytes on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P (bit-reflected, with its x^32 term) and ⌊x^64 / P⌋ for the
    /// Barrett reduction.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`update`]. `is_x86_feature_detected!`
    /// caches what it finds, so this is a load and a test.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// Sixteen bytes from the front of `bytes`, which it then skips.
    #[target_feature(enable = "sse2")]
    fn take(bytes: &mut &[u8]) -> __m128i {
        let (block, rest) = bytes.split_at(16);
        *bytes = rest;
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane` carried 128 bits on by `k` (two constants), plus `next`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, k, 0x00);
        let hi = _mm_clmulepi64_si128(lane, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// [`super::table_update`] for `bytes` of at least [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, mut bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN);
        let mut x3 = take(&mut bytes);
        let mut x2 = take(&mut bytes);
        let mut x1 = take(&mut bytes);
        let mut x0 = take(&mut bytes);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while bytes.len() >= 64 {
            x3 = fold(x3, take(&mut bytes), k1k2);
            x2 = fold(x2, take(&mut bytes), k1k2);
            x1 = fold(x1, take(&mut bytes), k1k2);
            x0 = fold(x0, take(&mut bytes), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while bytes.len() >= 16 {
            x = fold(x, take(&mut bytes), k3k4);
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 bits to the 32-bit state, the upper half of the
        // reflected result.
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let folded = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::table_update(folded, bytes)
    }
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

/// Where one decoded record sits in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// Total encoded size (header + payload).
    pub size: usize,
}

/// The bytes the record at the front of `bytes` spans, header and
/// payload, as far as its header says; [`RECORD_HEADER`] while the
/// header itself is not all there, or when its `len` is past
/// [`MAX_PAYLOAD`] (which [`decode_record`] refuses from the header
/// alone). A reader that streams the log has the whole record in hand,
/// or all the log holds of it, once it has this many bytes.
pub(crate) fn framed_len(bytes: &[u8]) -> usize {
    match bytes.get(0..4) {
        Some(len) => {
            let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
            if len > MAX_PAYLOAD {
                RECORD_HEADER
            } else {
                RECORD_HEADER + len
            }
        }
        None => RECORD_HEADER,
    }
}

/// Attempts to decode one record at the front of `bytes`, its write-set
/// into `ops` (cleared first, so one buffer serves a whole replay).
/// `None` means the bytes do not form a complete, checksummed,
/// well-formed record — recovery classifies that as a torn tail (last
/// segment) or corruption (earlier segment); the two cases are
/// indistinguishable here — and leaves `ops` holding no meaning.
pub fn decode_record(bytes: &[u8], ops: &mut Vec<MutOp>) -> Option<Record> {
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
    decode_ops(payload, ops)?;
    Some(Record {
        lsn,
        size: RECORD_HEADER + len,
    })
}

fn decode_ops(payload: &[u8], ops: &mut Vec<MutOp>) -> Option<()> {
    ops.clear();
    let n = u32::from_le_bytes(payload.get(0..4)?.try_into().unwrap()) as usize;
    // At least 9 bytes an op: a count past that is malformed, and
    // reserving for it would let a bad count allocate.
    if n > (payload.len() - 4) / 9 {
        return None;
    }
    ops.reserve(n);
    let mut at = 4;
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
    (at == payload.len()).then_some(())
}

/// The ops and bytes of the whole records at the front of `bytes`, read
/// from their headers and op counts alone, nothing checked: a sample
/// from which the ops of a longer log are estimated
/// ([`crate::recover::estimate_ops`]).
pub(crate) fn count_framed(mut bytes: &[u8]) -> (u64, u64) {
    let (mut ops, mut framed) = (0, 0);
    while bytes.len() >= RECORD_HEADER + 4 {
        let size = framed_len(bytes);
        if size < RECORD_HEADER + 4 || size > bytes.len() {
            break;
        }
        let at = RECORD_HEADER;
        ops += u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()));
        framed += size as u64;
        bytes = &bytes[size..];
    }
    (ops, framed)
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
                let got = table_update(table_update(!0, &data[..cut]), &data[cut..]);
                assert_eq!(got, want, "length {len}, split at {cut}");
            }
        }
    }

    /// `len` bytes of a xorshift stream from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The table path against the bytewise loop on long inputs too,
    /// called directly, so hosts whose checksums go through the fold
    /// still test it.
    #[test]
    fn the_table_path_equals_the_bytewise_crc() {
        for (seed, len) in [(1, 0), (2, 7), (3, 64), (4, 1000), (5, 4099), (6, 70_000)] {
            let data = noise(seed, len);
            assert_eq!(
                table_update(!0, &data),
                crc32_bytewise(!0, &data),
                "length {len}"
            );
        }
    }

    /// The fold against the table path on every length 0–2000 at every
    /// start offset 0–15 (lengths under the fold's minimum take the
    /// tables inside `crc32_update`), from two starting states, and on
    /// random buffers of random lengths.
    #[test]
    fn the_carry_less_fold_equals_the_table() {
        #[cfg(target_arch = "x86_64")]
        let fold = clmul::available();
        #[cfg(not(target_arch = "x86_64"))]
        let fold = false;
        if !fold {
            eprintln!("skipped: no PCLMULQDQ/SSE4.1 on this CPU");
            return;
        }
        let bytes = noise(0x9e37_79b9_7f4a_7c15, 2000 + 16);
        for offset in 0..16 {
            for len in 0..=2000 {
                let data = &bytes[offset..offset + len];
                for state in [!0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, data),
                        table_update(state, data),
                        "length {len}, offset {offset}, state {state:#x}"
                    );
                }
            }
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for round in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let data = noise(x, (x % 100_000) as usize);
            assert_eq!(
                crc32_update(!0, &data),
                table_update(!0, &data),
                "round {round}, length {}",
                data.len()
            );
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
        let mut got = Vec::new();
        decode_record(&buf, &mut got).expect("golden decodes");
        assert_eq!(got, ops);
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
        let mut got = vec![MutOp::Del { key: 1 }];
        let rec = decode_record(&buf, &mut got).expect("valid record");
        assert_eq!(rec.lsn, 42);
        assert_eq!(got, ops);
        assert_eq!(rec.size, buf.len());
        assert_eq!(framed_len(&buf), buf.len());
        assert_eq!(framed_len(&buf[..3]), RECORD_HEADER);
    }

    #[test]
    fn empty_write_set_roundtrips() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, &[]);
        let mut got = vec![MutOp::Del { key: 1 }];
        decode_record(&buf, &mut got).expect("valid record");
        assert!(got.is_empty());
    }

    #[test]
    fn torn_and_corrupt_records_do_not_decode() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 3, &[MutOp::Put { key: 1, value: 2 }]);
        // Every strict prefix is torn.
        let mut ops = Vec::new();
        for cut in 0..buf.len() {
            assert!(
                decode_record(&buf[..cut], &mut ops).is_none(),
                "prefix {cut} decoded"
            );
        }
        // Any single bit flip fails the checksum (or the bounds/shape
        // checks, for flips in `len`/`n_ops`).
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert!(
                decode_record(&bad, &mut ops).is_none_or(
                    |r| (r.lsn, &ops[..]) != (3, &[MutOp::Put { key: 1, value: 2 }][..])
                ),
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
