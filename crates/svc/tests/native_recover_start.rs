//! What a recovering start of `svc-read`'s store costs the memory
//! system: 16 shards over 4 M prefilled keys, loaded through
//! `NativeBackend::loader` (by `Server::bind`, as `rwled --wal-dir`
//! loads it) from a 200 k-op log — records of 64 ops, PUT or DEL with
//! even odds, the log `recovery_time` writes and `benchmark/` replays
//! for `svc-read`'s `recover_s`.
//!
//! With huge pages the start reads the log through one 1 MiB buffer,
//! buffers it in one block of per-shard runs advised onto huge pages,
//! and sizes each shard's merge by the DELs of its run, so both of a
//! shard's leaf regions are advised: about 1 230 minor faults. Reading
//! the log into a buffer of its size, growing the runs push by push and
//! sizing the merges by every op (the second leaf region on 4 KiB pages)
//! took about 9 900.
//!
//! Its own test binary, with one test, so no other test's allocations
//! land in the counts. The fold's threads are the process's too:
//! `/proc/self/stat` counts their faults.

use rand::{Rng, SeedableRng};
use svc::procstat;
use svc::server::{Server, ServerConfig};
use wal::{FsyncPolicy, Wal};
use workloads::backend::{BackendKind, DurableSink, MutOp};

/// `svc-read`'s store: `rwled --backend native --prefill 4000000`.
const SHARDS: usize = 16;
const PREFILL: u64 = 4_000_000;
/// `svc-read`'s recovery log.
const LOG_OPS: u64 = 200_000;

/// Minor faults the start may take with huge pages available. Measured
/// on 2 vCPUs: about 1 230; 9 861 with the log read whole, the runs
/// grown push by push and the merges sized by every op; 2 392 with only
/// the merges sized by their DELs.
const FAULT_BUDGET: u64 = 2_048;

/// Whether the kernel serves `madvise(MADV_HUGEPAGE)` ranges huge pages
/// (`always` or `madvise`).
fn huge_pages_on() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| !mode.contains("[never]"))
}

/// `LOG_OPS` mutations of keys below the prefill in records of 64, as
/// `recovery_time` writes them.
fn write_log(dir: &std::path::Path) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x10d);
    let wal = Wal::open(dir, FsyncPolicy::Off, 1).expect("open the log");
    let (mut left, mut record) = (LOG_OPS, Vec::with_capacity(64));
    while left > 0 {
        record.clear();
        for i in 0..left.min(64) {
            let key = rng.gen_range(0..PREFILL);
            record.push(if rng.gen_bool(0.5) {
                MutOp::Put {
                    key,
                    value: left - i,
                }
            } else {
                MutOp::Del { key }
            });
        }
        left -= record.len() as u64;
        wal.append(&record);
    }
}

#[test]
fn a_recovering_native_start_keeps_its_fault_budget() {
    let dir = std::env::temp_dir().join(format!("native-recover-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_log(&dir);
    let Some(faults_before) = procstat::minor_faults("self") else {
        eprintln!("skipped: no /proc/self/stat here");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    };
    let server = Server::bind(ServerConfig {
        backend: BackendKind::Native,
        shards: SHARDS,
        prefill: PREFILL,
        threads: 2,
        wal_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Off,
        ..ServerConfig::default()
    })
    .expect("the start loads the log");
    let faults = procstat::minor_faults("self").expect("read once") - faults_before;
    let huge = procstat::huge_page_kib("self").unwrap_or(0);
    let replayed = server.recovery().map_or(0, |r| r.replay.ops);
    eprintln!("start: {faults} minor faults, {huge} KiB of huge pages, {replayed} ops replayed");
    assert_eq!(replayed, LOG_OPS);
    if huge_pages_on() {
        assert!(
            faults < FAULT_BUDGET,
            "the start took {faults} minor faults (budget {FAULT_BUDGET}): is the log read \
             whole, are the runs grown push by push, or is a merge sized by its PUTs?"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
