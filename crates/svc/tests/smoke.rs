//! End-to-end smoke tests over real loopback sockets: an in-process
//! server, basic operations, robustness against garbage, load shedding,
//! idle-timeout reaping, and the drained-shutdown invariant.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use svc::proto::{read_frame, Request, Response, ServerStats};
use svc::server::{DrainReport, Server, ServerConfig};
use wal::FsyncPolicy;
use workloads::{BackendKind, SchemeKind};

/// Binds an in-process server on an ephemeral port and runs it on a
/// background thread; returns the address and the join handle.
fn start(
    cfg: ServerConfig,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<DrainReport>>,
) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn small_cfg() -> ServerConfig {
    ServerConfig {
        threads: 2,
        shards: 4,
        prefill: 1000,
        extra_capacity: 4000,
        ..ServerConfig::default()
    }
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s
}

fn request(stream: &mut TcpStream, req: &Request) -> Response {
    stream.write_all(&req.to_frame()).expect("send");
    let body = read_frame(stream).expect("reply");
    Response::decode(&body).expect("decode reply")
}

fn shutdown(
    addr: &str,
    handle: std::thread::JoinHandle<std::io::Result<DrainReport>>,
) -> DrainReport {
    shutdown_over(connect(addr), handle)
}

/// SHUTDOWN over an already admitted connection (a fresh one can be
/// shed at the connection limit), then the drain check.
fn shutdown_over(
    mut c: TcpStream,
    handle: std::thread::JoinHandle<std::io::Result<DrainReport>>,
) -> DrainReport {
    assert_eq!(request(&mut c, &Request::Shutdown), Response::Ok);
    let report = handle.join().expect("server thread").expect("server run");
    assert!(
        report.drained(),
        "drain mismatch: {} enqueued, {} replied",
        report.stats.enqueued,
        report.stats.replied
    );
    report
}

#[test]
fn basic_ops_over_the_wire() {
    let (addr, handle) = start(small_cfg());
    let mut c = connect(&addr);
    // Prefilled keys read back as key = value.
    assert_eq!(
        request(&mut c, &Request::Get { key: 7 }),
        Response::Value(7)
    );
    // Fresh key: miss, insert, hit, delete, miss.
    assert_eq!(
        request(&mut c, &Request::Get { key: 5000 }),
        Response::NotFound
    );
    assert_eq!(
        request(
            &mut c,
            &Request::Put {
                key: 5000,
                value: 42
            }
        ),
        Response::Ok
    );
    assert_eq!(
        request(&mut c, &Request::Get { key: 5000 }),
        Response::Value(42)
    );
    assert_eq!(request(&mut c, &Request::Del { key: 5000 }), Response::Ok);
    assert_eq!(
        request(&mut c, &Request::Del { key: 5000 }),
        Response::NotFound
    );
    // Scan over the prefilled range comes back sorted and complete.
    match request(
        &mut c,
        &Request::Scan {
            start: 10,
            count: 5,
        },
    ) {
        Response::Pairs(pairs) => {
            assert_eq!(pairs, (10..15).map(|k| (k, k)).collect::<Vec<_>>());
        }
        other => panic!("scan reply: {other:?}"),
    }
    // Stats reflect the traffic so far.
    match request(&mut c, &Request::Stats) {
        Response::Stats(s) => {
            assert_eq!(s.scheme, "RW-LE_OPT");
            assert_eq!(s.backend, "sim");
            assert_eq!(s.gets, 3);
            assert_eq!(s.puts, 1);
            assert_eq!(s.dels, 2);
            assert_eq!(s.scans, 1);
        }
        other => panic!("stats reply: {other:?}"),
    }
    shutdown(&addr, handle);
}

#[test]
fn garbage_body_gets_bad_request_and_keeps_the_connection() {
    let (addr, handle) = start(small_cfg());
    let mut c = connect(&addr);
    // Valid length header, nonsense body.
    let mut wire = Vec::new();
    wire.extend_from_slice(&5u32.to_le_bytes());
    wire.extend_from_slice(&[0x77, 1, 2, 3, 4]);
    c.write_all(&wire).unwrap();
    let body = read_frame(&mut c).expect("reply");
    assert_eq!(Response::decode(&body).unwrap(), Response::BadRequest);
    // The connection survives a body error: a valid request still works.
    assert_eq!(
        request(&mut c, &Request::Get { key: 1 }),
        Response::Value(1)
    );
    let report = shutdown(&addr, handle);
    assert_eq!(report.stats.malformed, 1);
}

#[test]
fn framing_error_gets_bad_request_then_close() {
    let (addr, handle) = start(small_cfg());
    let mut c = connect(&addr);
    // Zero-length frame: unrecoverable framing error.
    c.write_all(&0u32.to_le_bytes()).unwrap();
    let body = read_frame(&mut c).expect("reply");
    assert_eq!(Response::decode(&body).unwrap(), Response::BadRequest);
    // Server closes: the next read hits EOF.
    let mut buf = [0u8; 8];
    assert_eq!(c.read(&mut buf).unwrap(), 0);
    let report = shutdown(&addr, handle);
    assert_eq!(report.stats.malformed, 1);
}

#[test]
fn oversize_header_closes_the_connection() {
    let (addr, handle) = start(small_cfg());
    let mut c = connect(&addr);
    c.write_all(&(1u32 << 24).to_le_bytes()).unwrap();
    c.write_all(&[0u8; 64]).unwrap();
    let body = read_frame(&mut c).expect("reply");
    assert_eq!(Response::decode(&body).unwrap(), Response::BadRequest);
    let mut buf = [0u8; 8];
    assert_eq!(c.read(&mut buf).unwrap(), 0);
    shutdown(&addr, handle);
}

#[test]
fn connection_limit_sheds_with_busy() {
    let cfg = ServerConfig {
        max_conns: 1,
        ..small_cfg()
    };
    let (addr, handle) = start(cfg);
    let mut first = connect(&addr);
    // Complete one request so the first connection is fully registered
    // before the second arrives.
    assert_eq!(
        request(&mut first, &Request::Get { key: 1 }),
        Response::Value(1)
    );
    let mut second = connect(&addr);
    let body = read_frame(&mut second).expect("busy reply");
    assert_eq!(Response::decode(&body).unwrap(), Response::Busy);
    let mut buf = [0u8; 8];
    assert_eq!(second.read(&mut buf).unwrap(), 0);
    // The first connection is unaffected.
    assert_eq!(
        request(&mut first, &Request::Get { key: 2 }),
        Response::Value(2)
    );
    drop(first);
    // Slot freed: a new connection is admitted (poll briefly — the
    // server notices the close on its reader thread, not instantly).
    let mut admitted = None;
    for _ in 0..100 {
        let mut third = connect(&addr);
        third
            .write_all(&Request::Get { key: 3 }.to_frame())
            .unwrap();
        let body = read_frame(&mut third).expect("reply");
        match Response::decode(&body).unwrap() {
            Response::Value(3) => {
                admitted = Some(third);
                break;
            }
            Response::Busy => continue,
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    // The admitted connection holds the only slot: a fresh one for the
    // SHUTDOWN would race the server noticing this one's close and be
    // shed with `Busy` itself.
    let third = admitted.expect("freed connection slot was never reused");
    shutdown_over(third, handle);
}

#[test]
fn idle_partial_frame_is_reaped() {
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..small_cfg()
    };
    let (addr, handle) = start(cfg);
    let mut c = connect(&addr);
    // Half a frame, then silence: the server must reap the connection.
    let frame = Request::Get { key: 1 }.to_frame();
    c.write_all(&frame[..5]).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(c.read(&mut buf).unwrap(), 0, "expected EOF from reaper");
    let report = shutdown(&addr, handle);
    assert_eq!(report.stats.timeouts, 1);
}

#[test]
fn pipelined_requests_all_answered_in_order_before_shutdown_ack() {
    let (addr, handle) = start(small_cfg());
    let mut c = connect(&addr);
    // Fire 50 GETs back to back without reading, then read all replies:
    // per-connection FIFO means reply i matches request i.
    let mut wire = Vec::new();
    for key in 0..50u64 {
        wire.extend_from_slice(&Request::Get { key }.to_frame());
    }
    c.write_all(&wire).unwrap();
    for key in 0..50u64 {
        let body = read_frame(&mut c).expect("reply");
        assert_eq!(Response::decode(&body).unwrap(), Response::Value(key));
    }
    let report = shutdown(&addr, handle);
    assert_eq!(report.stats.enqueued, report.stats.replied);
    assert!(report.stats.enqueued >= 50);
}

#[test]
fn loadgen_closed_loop_end_to_end() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        shards: 4,
        prefill: 5_000,
        extra_capacity: 50_000,
        ..ServerConfig::default()
    });
    let cfg = svc::loadgen::LoadgenConfig {
        addr: addr.clone(),
        conns: 4,
        write_pct: 10,
        scan_pct: 2,
        scan_count: 16,
        secs: 10.0,
        ops_per_conn: 200,
        key_range: 10_000,
        zipf_theta: 0.0,
        total_rate: 0,
        pipeline: 1,
        seed: 7,
        shutdown: false,
        journal: false,
    };
    let res = svc::loadgen::run(&cfg).expect("loadgen run");
    assert_eq!(res.sent, 4 * 200);
    assert_eq!(res.received, res.sent, "lost replies");
    assert_eq!(res.errors, 0, "protocol errors under load");
    assert!(res.all.count() > 0);
    // Quantiles are monotone and within [min, max].
    assert!(res.all.p50() <= res.all.p99());
    assert!(res.all.p99() <= res.all.max());
    let server = res.server.expect("stats fetch");
    assert_eq!(server.malformed, 0);
    let report = shutdown(&addr, handle);
    assert!(report.stats.enqueued >= 800);
}

#[test]
fn native_backend_serves_the_same_wire_protocol() {
    let (addr, handle) = start(ServerConfig {
        backend: BackendKind::Native,
        ..small_cfg()
    });
    let mut c = connect(&addr);
    // Same contract as the sim backend: prefill, miss/insert/hit/delete,
    // sorted scans — over plain process memory.
    assert_eq!(
        request(&mut c, &Request::Get { key: 7 }),
        Response::Value(7)
    );
    assert_eq!(
        request(&mut c, &Request::Get { key: 5000 }),
        Response::NotFound
    );
    assert_eq!(
        request(
            &mut c,
            &Request::Put {
                key: 5000,
                value: 42
            }
        ),
        Response::Ok
    );
    assert_eq!(
        request(&mut c, &Request::Get { key: 5000 }),
        Response::Value(42)
    );
    assert_eq!(request(&mut c, &Request::Del { key: 5000 }), Response::Ok);
    match request(
        &mut c,
        &Request::Scan {
            start: 10,
            count: 5,
        },
    ) {
        Response::Pairs(pairs) => {
            assert_eq!(pairs, (10..15).map(|k| (k, k)).collect::<Vec<_>>());
        }
        other => panic!("scan reply: {other:?}"),
    }
    match request(&mut c, &Request::Stats) {
        Response::Stats(s) => assert_eq!(s.backend, "native"),
        other => panic!("stats reply: {other:?}"),
    }
    drop(c);

    // And it holds up under concurrent loadgen traffic.
    let cfg = svc::loadgen::LoadgenConfig {
        addr: addr.clone(),
        conns: 4,
        write_pct: 10,
        scan_pct: 2,
        scan_count: 16,
        secs: 10.0,
        ops_per_conn: 200,
        key_range: 2_000,
        zipf_theta: 0.0,
        total_rate: 0,
        pipeline: 1,
        seed: 11,
        shutdown: false,
        journal: false,
    };
    let res = svc::loadgen::run(&cfg).expect("loadgen run");
    assert_eq!(res.sent, 4 * 200);
    assert_eq!(res.received, res.sent, "native backend lost replies");
    assert_eq!(res.errors, 0, "protocol errors on native backend");
    shutdown(&addr, handle);
}

#[test]
fn loadgen_pipelined_closed_loop_receives_everything_sent() {
    let (addr, handle) = start(small_cfg());
    let cfg = svc::loadgen::LoadgenConfig {
        addr: addr.clone(),
        conns: 3,
        write_pct: 30,
        scan_pct: 2,
        scan_count: 16,
        secs: 10.0,
        ops_per_conn: 300,
        key_range: 2_000,
        zipf_theta: 0.9,
        total_rate: 0,
        pipeline: 8,
        seed: 13,
        shutdown: false,
        journal: false,
    };
    let res = svc::loadgen::run(&cfg).expect("loadgen run");
    assert_eq!(res.sent, 3 * 300);
    assert_eq!(res.received, res.sent, "pipelined loop lost replies");
    assert_eq!(res.errors, 0);
    let report = shutdown(&addr, handle);
    // Pipelined connections are what the decode phase batches: the run
    // must have produced batches, and replies must balance exactly.
    assert!(report.stats.batches > 0);
    assert_eq!(report.stats.enqueued, report.stats.replied);
}

#[test]
fn loadgen_shared_pacing_receives_everything_sent() {
    let (addr, handle) = start(small_cfg());
    let cfg = svc::loadgen::LoadgenConfig {
        addr: addr.clone(),
        conns: 32,
        write_pct: 20,
        scan_pct: 0,
        scan_count: 16,
        secs: 10.0,
        ops_per_conn: 10, // 320 sends total, round-robined
        key_range: 2_000,
        zipf_theta: 0.9,
        total_rate: 4_000,
        pipeline: 1,
        seed: 17,
        shutdown: false,
        journal: false,
    };
    let res = svc::loadgen::run(&cfg).expect("loadgen run");
    assert_eq!(res.sent, 320, "shared pacing must honor the global op cap");
    assert_eq!(res.received, res.sent, "shared pacing lost replies");
    assert_eq!(res.errors, 0);
    shutdown(&addr, handle);
}

/// A request wire image trickled one byte per `write` syscall: framing
/// must reassemble across arbitrary kernel-delivery splits and the
/// replies must come back in request order.
#[test]
fn one_byte_trickled_pipeline_stays_in_order() {
    let (addr, handle) = start(small_cfg());
    let mut c = connect(&addr);
    let mut wire = Vec::new();
    for key in 0..20u64 {
        wire.extend_from_slice(&Request::Get { key }.to_frame());
    }
    for byte in &wire {
        c.write_all(std::slice::from_ref(byte)).unwrap();
    }
    for key in 0..20u64 {
        let body = read_frame(&mut c).expect("reply");
        assert_eq!(Response::decode(&body).unwrap(), Response::Value(key));
    }
    shutdown(&addr, handle);
}

/// The batch-semantics invariant, observed from outside: a mutation's
/// reply may only be flushed after the flip (or write section) that
/// published its batch, so once the writer has the reply in hand, a read
/// on a *different* connection must see the write — there is no window
/// where an acknowledged write is invisible. Runs against both execution
/// backends; concurrent background load keeps the decode phase actually
/// forming multi-op batches rather than degenerate singletons.
#[test]
fn acknowledged_writes_are_visible_across_connections_on_both_backends() {
    for backend in [BackendKind::Sim, BackendKind::Native] {
        let (addr, handle) = start(ServerConfig {
            backend,
            ..small_cfg()
        });

        let noise_addr = addr.clone();
        let noise = std::thread::spawn(move || {
            let cfg = svc::loadgen::LoadgenConfig {
                addr: noise_addr,
                conns: 4,
                write_pct: 50,
                scan_pct: 5,
                scan_count: 16,
                secs: 30.0,
                ops_per_conn: 400,
                key_range: 500,
                zipf_theta: 0.9,
                total_rate: 0,
                pipeline: 4,
                seed: 23,
                shutdown: false,
                journal: false,
            };
            svc::loadgen::run(&cfg).expect("noise loadgen")
        });

        let mut writer = connect(&addr);
        let mut reader = connect(&addr);
        // Disjoint from the noise key range so only this writer mutates
        // these keys.
        for round in 0..100u64 {
            let key = 10_000 + (round % 7);
            assert_eq!(
                request(&mut writer, &Request::Put { key, value: round }),
                Response::Ok
            );
            // The PUT is acknowledged, so its flip has happened: a
            // read that starts now, anywhere, picks the new root.
            assert_eq!(
                request(&mut reader, &Request::Get { key }),
                Response::Value(round),
                "acknowledged write invisible on {} backend (round {round})",
                backend.name(),
            );
        }

        let noise_res = noise.join().expect("noise thread");
        assert_eq!(noise_res.errors, 0);
        assert_eq!(noise_res.received, noise_res.sent);
        drop(writer);
        drop(reader);
        let report = shutdown(&addr, handle);
        // Amortization bookkeeping must balance: batched ops account for
        // every enqueued request, and on both backends a batch pays at
        // most one grace period (own or shared) per shard it touches — so
        // at most one per mutation, and at most `shards` per batch.
        assert!(report.stats.batches > 0);
        let graces = report.stats.barriers + report.stats.barriers_shared;
        let mutations = report.stats.puts + report.stats.dels;
        let per_batch_cap = report.stats.batches * small_cfg().shards as u64;
        assert!(
            (1..=mutations.min(per_batch_cap)).contains(&graces),
            "{} backend: {graces} grace periods for {mutations} mutations in {} batches",
            backend.name(),
            report.stats.batches
        );
        assert_eq!(report.stats.batch_ops, report.stats.enqueued);
    }
}

/// Same-connection FIFO under a pipelined write-then-read dependency:
/// the read behind a write in one submitted burst must observe that
/// write (the decode phase defers a read behind a mutation to the next
/// batch rather than reordering it ahead).
#[test]
fn pipelined_write_then_read_sees_the_write() {
    for backend in [BackendKind::Sim, BackendKind::Native] {
        let (addr, handle) = start(ServerConfig {
            backend,
            ..small_cfg()
        });
        let mut c = connect(&addr);
        for round in 0..50u64 {
            let key = 20_000 + (round % 5);
            let mut wire = Vec::new();
            wire.extend_from_slice(&Request::Put { key, value: round }.to_frame());
            wire.extend_from_slice(&Request::Get { key }.to_frame());
            c.write_all(&wire).unwrap();
            let body = read_frame(&mut c).expect("put reply");
            assert_eq!(Response::decode(&body).unwrap(), Response::Ok);
            let body = read_frame(&mut c).expect("get reply");
            assert_eq!(
                Response::decode(&body).unwrap(),
                Response::Value(round),
                "pipelined read overtook its write on {} backend",
                backend.name(),
            );
        }
        drop(c);
        shutdown(&addr, handle);
    }
}

/// A pipelined burst whose GETs come in runs — longer than the server's
/// run cap (32) and than a native read section (16), cut by a SCAN, and
/// ending behind a PUT — is answered strictly in request order, present
/// and absent keys alike, and the GET behind the PUT sees it.
#[test]
fn runs_of_gets_are_answered_in_order_around_other_requests() {
    for (backend, scheme) in [
        (BackendKind::Sim, SchemeKind::RwLeOpt),
        (BackendKind::Native, SchemeKind::RwLeOpt),
        (BackendKind::Native, SchemeKind::Sgl),
    ] {
        let (addr, handle) = start(ServerConfig {
            backend,
            scheme,
            ..small_cfg()
        });
        let mut c = connect(&addr);
        // Keys 0..1000 are prefilled as value = key; the rest are absent.
        let lookup = |key: u64| match key {
            0..1000 => Response::Value(key),
            _ => Response::NotFound,
        };
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for key in (0..40).map(|i| i * 29) {
            wire.extend_from_slice(&Request::Get { key }.to_frame());
            want.push(lookup(key));
        }
        wire.extend_from_slice(&Request::Scan { start: 5, count: 3 }.to_frame());
        want.push(Response::Pairs(vec![(5, 5), (6, 6), (7, 7)]));
        for key in [999, 1000, 3] {
            wire.extend_from_slice(&Request::Get { key }.to_frame());
            want.push(lookup(key));
        }
        wire.extend_from_slice(&Request::Put { key: 3, value: 77 }.to_frame());
        want.push(Response::Ok);
        wire.extend_from_slice(&Request::Get { key: 3 }.to_frame());
        want.push(Response::Value(77));
        c.write_all(&wire).unwrap();
        for (i, want) in want.iter().enumerate() {
            let body = read_frame(&mut c).expect("reply");
            assert_eq!(
                Response::decode(&body).unwrap(),
                *want,
                "reply {i} on {} / {}",
                backend.name(),
                scheme.label(),
            );
        }
        let report = shutdown_over(c, handle);
        assert_eq!(report.stats.gets, 44);
    }
}

fn stats(c: &mut TcpStream) -> ServerStats {
    match request(c, &Request::Stats) {
        Response::Stats(s) => *s,
        other => panic!("stats reply: {other:?}"),
    }
}

/// Fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The round loop, observed from outside: a pipeline whose every other
/// request is a read behind a mutation takes one store pass per
/// boundary, but all of them inside the wake-up that read it — one
/// reply write, not one per boundary, and on a durable server one log
/// write for all the passes' records.
#[test]
fn pipeline_with_boundaries_is_served_from_one_wakeup() {
    let scratch_dir = scratch("rounds-wal");
    for (backend, fsync) in [
        (BackendKind::Sim, None),
        (BackendKind::Native, None),
        (BackendKind::Native, Some(FsyncPolicy::Off)),
        (BackendKind::Native, Some(FsyncPolicy::Batch)),
    ] {
        let (addr, handle) = start(ServerConfig {
            backend,
            wal_dir: fsync.map(|policy| scratch_dir.join(policy.label())),
            fsync: fsync.unwrap_or(FsyncPolicy::Batch),
            ..small_cfg()
        });
        let mut c = connect(&addr);
        let before = stats(&mut c);
        let key = 30_000;
        let mut wire = Vec::new();
        for value in 0..32u64 {
            wire.extend_from_slice(&Request::Put { key, value }.to_frame());
            wire.extend_from_slice(&Request::Get { key }.to_frame());
        }
        c.write_all(&wire).unwrap();
        for value in 0..32u64 {
            for want in [Response::Ok, Response::Value(value)] {
                let body = read_frame(&mut c).expect("reply");
                assert_eq!(
                    Response::decode(&body).unwrap(),
                    want,
                    "round {value} on {} backend, fsync: {fsync:?}",
                    backend.name()
                );
            }
        }
        let after = stats(&mut c);
        // One round per PUT (each GET is a boundary), and two writes:
        // the first STATS reply and the whole pipeline's replies.
        assert!(after.batches - before.batches >= 32, "{before:?} {after:?}");
        assert!(
            after.writev_calls - before.writev_calls <= 2,
            "{before:?} {after:?}"
        );
        drop(c);
        let report = shutdown(&addr, handle);
        // The burst was the server's only mutations: one record per
        // round, all of them written by the wake-up's one durable wait
        // (under `batch` that wait leads the fsync, which finds nothing
        // left to write).
        let (appends, writes) = (report.stats.wal_appends, report.wal_writes);
        match fsync {
            None => assert_eq!((appends, writes), (0, 0)),
            Some(_) => assert!(appends >= 2 && writes == 1, "{appends} {writes}"),
        }
    }
    let _ = std::fs::remove_dir_all(&scratch_dir);
}

/// A client with one request outstanding sends its next one a few µs
/// after a reply: the worker is still in its spin window then, so most
/// of its waits are answered by the spin. The wait that first found the
/// connection blocked, so both tallies move.
#[test]
fn round_trips_are_picked_up_by_the_spin() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..small_cfg()
    });
    let mut c = connect(&addr);
    for i in 0..1000u64 {
        assert_eq!(
            request(&mut c, &Request::Get { key: i % 1000 }),
            Response::Value(i % 1000)
        );
    }
    let report = shutdown_over(c, handle);
    assert!(
        report.spun_waits > 0 && report.slept_waits > 0,
        "{} spun, {} slept",
        report.spun_waits,
        report.slept_waits
    );
}

/// SHUTDOWN while another connection of the same worker still has a
/// pipeline buffered: rounds stop, whatever was admitted is answered in
/// order, and nothing is counted that is not.
#[test]
fn shutdown_mid_pipeline_keeps_the_drain_invariant() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..small_cfg()
    });
    let mut busy = connect(&addr);
    let mut wire = Vec::new();
    for value in 0..32u64 {
        wire.extend_from_slice(&Request::Put { key: 31_000, value }.to_frame());
        wire.extend_from_slice(&Request::Get { key: 31_000 }.to_frame());
    }
    busy.write_all(&wire).unwrap();
    // `shutdown` asserts enqueued == replied.
    let report = shutdown(&addr, handle);
    // The server has exited: what it answered is a FIFO prefix.
    let mut answered = 0u64;
    while let Ok(body) = read_frame(&mut busy) {
        let want = match answered % 2 {
            0 => Response::Ok,
            _ => Response::Value(answered / 2),
        };
        assert_eq!(Response::decode(&body).unwrap(), want, "reply {answered}");
        answered += 1;
    }
    assert!(answered <= 64);
    assert_eq!(report.stats.replied, answered);
}

/// The outbox cap: a client that pipelines SCANs and never reads a
/// reply stops being read once its replies back up, so the server
/// executes no more of its requests than the socket buffers and the cap
/// can hold replies for — and the worker keeps serving its neighbour.
#[test]
fn never_reading_client_is_capped_and_its_neighbour_served() {
    const COUNT: u32 = 256;
    const REPLY_BYTES: u64 = 4 + 1 + 4 + 16 * COUNT as u64;
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..small_cfg()
    });
    let mut hog = connect(&addr);
    let mut polite = connect(&addr);
    // Requests worth ~250 MB of replies, far beyond what the kernel
    // buffers of a loopback pair hold.
    let scan = Request::Scan {
        start: 0,
        count: COUNT,
    }
    .to_frame();
    let total = (1 << 20) / scan.len();
    let wire = scan.repeat(total);
    hog.set_nonblocking(true).unwrap();
    let mut sent = 0;
    let (mut last, mut stable) = (0, 0);
    let deadline = std::time::Instant::now() + Duration::from_secs(8);
    // Keep sending until the server has stopped executing SCANs: the
    // one worker serves both connections from the same wake-ups, so a
    // count that stays put over this many STATS round trips, with
    // requests waiting in the socket, means the hog is no longer read.
    while stable < 100 {
        assert!(std::time::Instant::now() < deadline, "never settled");
        while sent < wire.len() {
            match hog.write(&wire[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("hog write: {e}"),
            }
        }
        let scans = stats(&mut polite).scans;
        stable = if scans == last && scans > 0 {
            stable + 1
        } else {
            0
        };
        last = scans;
    }
    assert!(
        last * REPLY_BYTES <= 64 << 20,
        "{last} of {total} SCANs executed for a client that reads nothing"
    );
    assert_eq!(
        request(&mut polite, &Request::Get { key: 5 }),
        Response::Value(5)
    );
    drop(hog);
    drop(polite);
    shutdown(&addr, handle);
}

#[test]
fn scheme_variants_serve_traffic() {
    for kind in [SchemeKind::Sgl, SchemeKind::Hle] {
        let (addr, handle) = start(ServerConfig {
            scheme: kind,
            ..small_cfg()
        });
        let mut c = connect(&addr);
        assert_eq!(
            request(&mut c, &Request::Get { key: 3 }),
            Response::Value(3)
        );
        assert_eq!(
            request(
                &mut c,
                &Request::Put {
                    key: 9999,
                    value: 1
                }
            ),
            Response::Ok
        );
        match request(&mut c, &Request::Stats) {
            Response::Stats(s) => assert_eq!(s.scheme, kind.label()),
            other => panic!("stats reply: {other:?}"),
        }
        drop(c);
        shutdown(&addr, handle);
    }
}

/// STATS under load: while two clients keep pipelines of PUTs and GETs
/// in flight, one on each worker, every snapshot a third connection
/// takes shows no more replies than requests — a snapshot reads
/// `replied` first.
#[test]
fn stats_under_load_never_show_more_replies_than_enqueued() {
    use std::sync::{Arc, Mutex};
    let (addr, handle) = start(small_cfg());
    let stop = Arc::new(Mutex::new(false));
    let loaders: Vec<_> = (0..2u64)
        .map(|t| {
            let (addr, stop) = (addr.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut c = connect(&addr);
                let mut wire = Vec::new();
                for i in 0..64 {
                    let key = 2000 + t * 100 + i;
                    wire.extend_from_slice(&Request::Put { key, value: i }.to_frame());
                    wire.extend_from_slice(&Request::Get { key }.to_frame());
                }
                while !*stop.lock().unwrap() {
                    c.write_all(&wire).unwrap();
                    for _ in 0..128 {
                        read_frame(&mut c).expect("reply");
                    }
                }
            })
        })
        .collect();
    let mut c = connect(&addr);
    let mut last = 0;
    for poll in 0..2000 {
        let s = stats(&mut c);
        assert!(
            s.replied <= s.enqueued,
            "poll {poll}: {} replies of {} requests",
            s.replied,
            s.enqueued
        );
        last = s.replied;
    }
    *stop.lock().unwrap() = true;
    for l in loaders {
        l.join().unwrap();
    }
    assert!(last > 0, "the load never reached the server");
    shutdown_over(c, handle);
}
