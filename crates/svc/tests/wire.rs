//! Socket-free wire-layer tests: encode/decode round-trips, malformed
//! frame rejection, and fuzzing the decoders with arbitrary bytes —
//! decoding must never panic, whatever arrives.

use proptest::prelude::*;
use svc::proto::{
    frame, FrameReader, ProtoError, Request, Response, ServerStats, MAX_FRAME, MAX_SCAN,
};

fn all_requests() -> Vec<Request> {
    vec![
        Request::Get { key: 0 },
        Request::Get { key: u64::MAX },
        Request::Put { key: 1, value: 2 },
        Request::Del { key: 3 },
        Request::Scan { start: 4, count: 0 },
        Request::Scan {
            start: u64::MAX,
            count: MAX_SCAN,
        },
        Request::Stats,
        Request::Shutdown,
    ]
}

fn all_responses() -> Vec<Response> {
    vec![
        Response::Ok,
        Response::Value(0),
        Response::Value(u64::MAX),
        Response::Pairs(vec![]),
        Response::Pairs((0..10).map(|i| (i, i * 2)).collect()),
        Response::Stats(Box::new(ServerStats {
            enqueued: 1,
            replied: 2,
            shed: 3,
            malformed: 4,
            timeouts: 5,
            gets: 6,
            puts: 7,
            dels: 8,
            scans: 9,
            conns: 10,
            batches: 11,
            batch_ops: 12,
            barriers: 13,
            barriers_shared: 14,
            writev_calls: 15,
            wal_appends: 16,
            wal_fsyncs: 17,
            wal_bytes: 18,
            batch_hist: [19, 20, 21, 22, 23, 24, 25, 26],
            scheme: "RW-LE_OPT".to_string(),
            backend: "native".to_string(),
            durability: "interval:50".to_string(),
        })),
        Response::NotFound,
        Response::BadRequest,
        Response::Busy,
        Response::ServerFull,
    ]
}

#[test]
fn every_request_roundtrips() {
    for req in all_requests() {
        let f = req.to_frame();
        assert_eq!(Request::decode(&f[4..]).unwrap(), req, "{req:?}");
    }
}

#[test]
fn every_response_roundtrips() {
    for resp in all_responses() {
        let f = resp.to_frame();
        assert_eq!(Response::decode(&f[4..]).unwrap(), resp, "{resp:?}");
    }
}

#[test]
fn truncated_bodies_are_rejected_not_panicked() {
    for req in all_requests() {
        let f = req.to_frame();
        let body = &f[4..];
        // Every strict prefix of a valid body must decode to an error
        // (or, for the opcode-only prefix of a no-payload request, to
        // the request itself) — never panic.
        for cut in 0..body.len() {
            let _ = Request::decode(&body[..cut]);
        }
        if body.len() > 1 {
            assert!(
                matches!(
                    Request::decode(&body[..body.len() - 1]),
                    Err(ProtoError::Truncated { .. })
                ),
                "{req:?}"
            );
        }
    }
    for resp in all_responses() {
        let f = resp.to_frame();
        let body = &f[4..];
        for cut in 0..body.len() {
            let _ = Response::decode(&body[..cut]);
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    for req in all_requests() {
        let mut body = Vec::new();
        req.encode_body(&mut body);
        body.push(0xEE);
        assert!(
            matches!(Request::decode(&body), Err(ProtoError::TrailingBytes(1))),
            "{req:?}"
        );
    }
}

#[test]
fn unknown_opcodes_are_rejected() {
    for op in [0x00u8, 0x07, 0x7F, 0x84, 0x8F, 0x95, 0xFF] {
        assert_eq!(
            Request::decode(&[op, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtoError::UnknownOpcode(op)),
            "request op 0x{op:02x}"
        );
    }
    // 0x93 was a SHUTTING_DOWN status no server ever sent.
    for op in [0x00u8, 0x84, 0x93, 0x95, 0xFF] {
        assert_eq!(
            Response::decode(&[op]),
            Err(ProtoError::UnknownOpcode(op)),
            "response op 0x{op:02x}"
        );
    }
}

#[test]
fn frame_reader_handles_split_delivery() {
    // Three frames, delivered one byte at a time.
    let reqs = all_requests();
    let mut wire = Vec::new();
    for r in &reqs {
        wire.extend_from_slice(&r.to_frame());
    }
    let mut fr = FrameReader::new();
    let mut decoded = Vec::new();
    for &b in &wire {
        fr.extend(&[b]);
        while let Some(body) = fr.next_frame().unwrap() {
            decoded.push(Request::decode(&body).unwrap());
        }
    }
    assert_eq!(decoded, reqs);
    assert!(!fr.has_partial());
}

#[test]
fn frame_reader_reports_partial() {
    let mut fr = FrameReader::new();
    let f = Request::Get { key: 1 }.to_frame();
    fr.extend(&f[..6]);
    assert_eq!(fr.next_frame().unwrap(), None);
    assert!(fr.has_partial());
    fr.extend(&f[6..]);
    assert!(fr.next_frame().unwrap().is_some());
    assert!(!fr.has_partial());
}

#[test]
fn oversize_header_is_a_framing_error() {
    let mut fr = FrameReader::new();
    fr.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
    let err = fr.next_frame().unwrap_err();
    assert_eq!(err, ProtoError::Oversize(MAX_FRAME + 1));
    assert!(err.is_framing());
    // Sticky: stays poisoned even if more bytes arrive.
    fr.extend(&Request::Stats.to_frame());
    assert!(fr.next_frame().is_err());
}

#[test]
fn max_frame_body_is_accepted() {
    let body = vec![0x05u8; 1]; // STATS
    let mut padded = body.clone();
    padded.resize(MAX_FRAME, 0);
    let mut fr = FrameReader::new();
    fr.extend(&frame(&padded));
    let got = fr.next_frame().unwrap().unwrap();
    assert_eq!(got.len(), MAX_FRAME);
    // Oversized *body* behind a valid header is a request error, not a
    // framing error.
    assert!(matches!(
        Request::decode(&got),
        Err(ProtoError::TrailingBytes(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes through the body decoders: errors allowed,
    /// panics not.
    #[test]
    fn decode_never_panics(body in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(&body);
        let _ = Response::decode(&body);
    }

    /// Arbitrary bytes through the frame reader, in arbitrary chunk
    /// sizes: every yielded body round-trips through the decoders
    /// without panicking, and framing errors are terminal.
    #[test]
    fn frame_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400),
                                 chunk in 1usize..17) {
        let mut fr = FrameReader::new();
        'outer: for piece in bytes.chunks(chunk) {
            fr.extend(piece);
            loop {
                match fr.next_frame() {
                    Ok(Some(body)) => {
                        let _ = Request::decode(&body);
                        let _ = Response::decode(&body);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        prop_assert!(e.is_framing());
                        break 'outer;
                    }
                }
            }
        }
    }

    /// A corrupted valid frame (one byte flipped) decodes to the
    /// original, another request, or an error — never a panic.
    #[test]
    fn bit_flips_never_panic(idx in 0usize..17, flip in 1u8..=255) {
        for req in all_requests() {
            let mut body = Vec::new();
            req.encode_body(&mut body);
            if idx < body.len() {
                body[idx] ^= flip;
                let _ = Request::decode(&body);
            }
        }
    }

    /// Pipelined FIFO framing survives any read-split schedule: a random
    /// request sequence delivered in arbitrary chunk sizes (down to one
    /// byte at a time) decodes to exactly the same sequence, in order,
    /// with no partial left over.
    #[test]
    fn frame_reader_is_fifo_under_arbitrary_splits(
        picks in prop::collection::vec(0usize..8, 1..40),
        splits in prop::collection::vec(1usize..9, 1..64),
    ) {
        let menu = all_requests();
        let reqs: Vec<Request> = picks.iter().map(|&i| menu[i].clone()).collect();
        let mut wire = Vec::new();
        for r in &reqs {
            wire.extend_from_slice(&r.to_frame());
        }
        let mut fr = FrameReader::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        let mut turn = 0;
        while pos < wire.len() {
            let take = splits[turn % splits.len()].min(wire.len() - pos);
            turn += 1;
            fr.extend(&wire[pos..pos + take]);
            pos += take;
            while let Some(body) = fr.next_frame().unwrap() {
                decoded.push(Request::decode(&body).unwrap());
            }
        }
        prop_assert_eq!(decoded, reqs);
        prop_assert!(!fr.has_partial());
    }

    /// The borrowed pull (`peek_frame`/`consume_frame`, what the server
    /// decodes from) and the owning one (`next_frame`) are the same
    /// parser: fed the same arbitrary bytes in the same arbitrary
    /// chunks they yield the same bodies and the same framing error at
    /// the same point, and a peek without a consume changes nothing.
    #[test]
    fn borrowed_and_owning_pulls_agree(
        picks in prop::collection::vec(0usize..9, 0..30),
        garbage in prop::collection::vec(any::<u8>(), 0..40),
        chunk in 1usize..23,
    ) {
        // Valid frames (index 8: a valid header over a garbage body)
        // with raw garbage behind them, so both outcomes are reached.
        let menu = all_requests();
        let mut wire = Vec::new();
        for &i in &picks {
            match menu.get(i) {
                Some(req) => wire.extend_from_slice(&req.to_frame()),
                None => wire.extend_from_slice(&frame(&[0x77, 1, 2])),
            }
        }
        wire.extend_from_slice(&garbage);
        let (mut owning, mut borrowed) = (FrameReader::new(), FrameReader::new());
        for piece in wire.chunks(chunk) {
            owning.extend(piece);
            borrowed.extend(piece);
            loop {
                let want = owning.next_frame();
                prop_assert_eq!(borrowed.has_complete_frame(), want != Ok(None));
                let first = borrowed.peek_frame().map(|b| b.map(<[u8]>::to_vec));
                let again = borrowed.peek_frame().map(|b| b.map(<[u8]>::to_vec));
                prop_assert_eq!(&first, &again);
                prop_assert_eq!(&first, &want);
                borrowed.consume_frame();
                if !matches!(want, Ok(Some(_))) {
                    break;
                }
            }
            prop_assert_eq!(owning.has_partial(), borrowed.has_partial());
        }
    }

    /// Outbox in-place encoding and partial-write resumption: replies
    /// encoded straight into the outbox are byte-identical to their
    /// `to_frame` images, and any schedule of short writes (down to one
    /// byte per call), with more replies queued behind a partly written
    /// one, drains exactly the concatenated byte stream — no reorder,
    /// no skip, no duplicate — and never panics.
    #[test]
    fn outbox_survives_any_partial_write_schedule(
        picks in prop::collection::vec(0usize..10, 1..40),
        steps in prop::collection::vec(1usize..40, 1..64),
        burst in 1usize..5,
    ) {
        let menu = all_responses();
        let mut outbox = svc::proto::Outbox::new();
        let mut expected = Vec::new();
        let mut written = Vec::new();
        let mut queued = 0;
        let mut turn = 0;
        while queued < picks.len() || !outbox.is_empty() {
            // Queue up to `burst` more replies, alternating the in-place
            // encode with the pre-encoded push.
            for &i in picks.iter().skip(queued).take(burst) {
                let f = menu[i].to_frame();
                expected.extend_from_slice(&f);
                if queued % 2 == 0 {
                    outbox.encode(&menu[i]);
                } else {
                    outbox.push(f);
                }
                queued += 1;
            }
            prop_assert_eq!(outbox.pending_bytes(), expected.len() - written.len());
            prop_assert_eq!(outbox.pending(), &expected[written.len()..]);
            // The gathered view is the same bytes.
            let mut slices = Vec::new();
            prop_assert_eq!(outbox.chunks(&mut slices, 4), 1);
            prop_assert_eq!(&*slices[0], outbox.pending());
            // A short write: the kernel takes `step` bytes off the front.
            let took = steps[turn % steps.len()].min(outbox.pending_bytes());
            turn += 1;
            written.extend_from_slice(&outbox.pending()[..took]);
            outbox.advance(took);
        }
        prop_assert_eq!(written, expected);
        prop_assert_eq!(outbox.pending_bytes(), 0);
    }
}
