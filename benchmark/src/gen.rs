//! The five workloads and the seeded request generator.
//!
//! A workload is a server configuration plus a traffic mix. The
//! generator is a pure function of `(seed, connection, spec)`: the
//! server only ever sees the generated requests, and the same seed gives
//! the same byte stream on every run.
//!
//! Mutations are key-partitioned per connection (`key ≡ conn mod C`)
//! and every PUT carries a value unique to `(conn, seq)`, so each key has
//! a single writer and a client-side shadow map of the connection's own
//! partition is exact. Reads draw from the whole key range.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use svc::journal::{journal_value, partition_key};
use svc::proto::Request;

/// Pairs a SCAN asks for (`SCAN×64` in the workload table).
pub const SCAN_COUNT: u32 = 64;

/// Requests kept outstanding per closed-loop connection.
pub const PIPELINE: usize = 64;

/// Store shards every workload's server runs with (`--shards`).
pub const SHARDS: usize = 16;

/// Which store the server (and the traced replay) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `--backend native`: plain memory, double-buffered publication.
    Native,
    /// `--backend sim --scheme rw-le_opt`: the simulated-HTM pipeline.
    Sim,
}

/// The same-run comparison server of a workload (ungated context for
/// `ops_per_s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canary {
    /// `--scheme sgl` on the native backend.
    Sgl,
    /// `--scheme hle` on the simulated backend.
    Hle,
    /// The same server without `--wal-dir`.
    Volatile,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Store the server runs on.
    pub backend: Backend,
    /// Keys `0..prefill` are loaded before serving; also the key range
    /// the traffic draws from.
    pub prefill: u64,
    /// Whether the server runs with `--wal-dir` (see `run::with_wal`).
    pub durable: bool,
    /// Percentage of GETs.
    pub get_pct: u32,
    /// Percentage of SCANs (the rest are PUT/DEL, split evenly).
    pub scan_pct: u32,
    /// Zipf skew of the key draw; `None` is uniform.
    pub zipf_theta: Option<f64>,
    /// Open-loop offered rate in requests/s; `None` is the pipelined
    /// closed loop.
    pub paced_rate: Option<u64>,
    /// The comparison server run after the measured windows.
    pub canary: Option<Canary>,
    /// Mutations in the synthetic log `recover_s` replays.
    pub recover_ops: u64,
}

impl Workload {
    /// Percentage of PUT/DEL requests.
    #[cfg(test)]
    pub fn mut_pct(&self) -> u32 {
        100 - self.get_pct - self.scan_pct
    }

    /// `rwled` flags of this workload (threads, port and WAL directory
    /// are added by the caller).
    pub fn server_flags(&self) -> Vec<String> {
        self.flags_with_scheme("rw-le_opt")
    }

    /// Flags of the canary server: the workload's own with the scheme
    /// swapped (the volatile canary differs only in what the caller
    /// leaves out).
    pub fn canary_flags(&self, canary: Canary) -> Vec<String> {
        self.flags_with_scheme(match canary {
            Canary::Sgl => "sgl",
            Canary::Hle => "hle",
            Canary::Volatile => "rw-le_opt",
        })
    }

    fn flags_with_scheme(&self, scheme: &str) -> Vec<String> {
        let backend = match self.backend {
            Backend::Native => "native",
            Backend::Sim => "sim",
        };
        let prefill = self.prefill.to_string();
        let shards = SHARDS.to_string();
        [
            "--shards",
            &shards,
            "--backend",
            backend,
            "--scheme",
            scheme,
            "--prefill",
            &prefill,
        ]
        .map(str::to_string)
        .to_vec()
    }
}

/// The workload table. Names are fixed.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "svc-read",
        why: "90% GET over 4M keys (beyond the LLC): uninstrumented readers, codec and event loop do the work, publication almost none",
        backend: Backend::Native,
        prefill: 4_000_000,
        durable: false,
        get_pct: 90,
        scan_pct: 5,
        zipf_theta: None,
        paced_rate: None,
        canary: Some(Canary::Sgl),
        recover_ops: 200_000,
    },
    Workload {
        name: "svc-write",
        why: "90% PUT/DEL over 100k cached keys: lock, apply, flip, one barrier per batch and replay dominate (the w=90 row RW-LE loses to SGL)",
        backend: Backend::Native,
        prefill: 100_000,
        durable: false,
        get_pct: 10,
        scan_pct: 0,
        zipf_theta: None,
        paced_rate: None,
        canary: Some(Canary::Sgl),
        recover_ops: 600_000,
    },
    Workload {
        name: "svc-paced",
        why: "open loop at 50k req/s, Zipf 0.99: batches of 1-3, so every per-batch fixed cost (wake-up, barrier, flip, writev) is paid un-amortised",
        backend: Backend::Native,
        prefill: 100_000,
        durable: false,
        get_pct: 45,
        scan_pct: 5,
        zipf_theta: Some(0.99),
        paced_rate: Some(50_000),
        canary: None,
        recover_ops: 600_000,
    },
    Workload {
        name: "svc-durable",
        why: "50% PUT/DEL with --wal-dir: the redo-log append inside the barrier window is paid on every batch, and random interleave cuts batches short",
        backend: Backend::Native,
        prefill: 100_000,
        durable: true,
        get_pct: 50,
        scan_pct: 0,
        zipf_theta: None,
        paced_rate: None,
        canary: Some(Canary::Volatile),
        recover_ops: 600_000,
    },
    Workload {
        name: "svc-sim",
        why: "85% GET on the simulated-HTM backend: htm, simmem, rwle and epoch do the work, the native store and the WAL none",
        backend: Backend::Sim,
        prefill: 100_000,
        durable: false,
        get_pct: 85,
        scan_pct: 5,
        zipf_theta: None,
        paced_rate: None,
        canary: Some(Canary::Hle),
        recover_ops: 150_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Zipf rank sampler over `0..n` by inverse CDF (rank 0 is hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF of `P(rank i) ∝ 1/(i+1)^theta`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        // 53 uniform bits → [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// The key distribution of a workload, shared by its connections.
pub fn key_dist(w: &Workload) -> Option<Arc<Zipf>> {
    w.zipf_theta
        .map(|theta| Arc::new(Zipf::new(w.prefill, theta)))
}

/// The request class latency is reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// GET.
    Get,
    /// SCAN.
    Scan,
    /// PUT or DEL.
    Mutation,
}

/// Class of a generated request.
pub fn class_of(req: &Request) -> Class {
    match req {
        Request::Get { .. } => Class::Get,
        Request::Scan { .. } => Class::Scan,
        _ => Class::Mutation,
    }
}

/// One connection's request stream.
pub struct Gen {
    rng: SmallRng,
    zipf: Option<Arc<Zipf>>,
    conn: u64,
    conns: u64,
    keys: u64,
    get_pct: u32,
    scan_pct: u32,
    seq: u64,
}

impl Gen {
    /// The stream of connection `conn` of `conns` under `seed`.
    pub fn new(w: &Workload, zipf: Option<Arc<Zipf>>, seed: u64, conn: u64, conns: u64) -> Gen {
        // SplitMix-style spread so neighbouring (seed, conn) pairs do
        // not start correlated streams.
        let stream = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((conn + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        Gen {
            rng: SmallRng::seed_from_u64(stream),
            zipf,
            conn,
            conns,
            keys: w.prefill,
            get_pct: w.get_pct,
            scan_pct: w.scan_pct,
            seq: 0,
        }
    }

    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.keys),
        }
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let seq = self.seq;
        self.seq += 1;
        let roll: u32 = self.rng.gen_range(0..100);
        let key = self.key();
        if roll < self.get_pct {
            Request::Get { key }
        } else if roll < self.get_pct + self.scan_pct {
            Request::Scan {
                start: key,
                count: SCAN_COUNT,
            }
        } else {
            let key = partition_key(key, self.conn, self.conns);
            if self.rng.gen_bool(0.5) {
                Request::Put {
                    key,
                    value: journal_value(self.conn, seq),
                }
            } else {
                Request::Del { key }
            }
        }
    }
}

/// Where the `k`-th open-loop request belongs, in nanoseconds after the
/// start: `k / rate` seconds computed in one step, so no per-request
/// rounding accumulates into rate drift.
pub fn paced_offset_ns(k: u64, rate: u64) -> u64 {
    (k as u128 * 1_000_000_000 / rate as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(w: &Workload, seed: u64, conn: u64, n: usize) -> Vec<u8> {
        let mut g = Gen::new(w, key_dist(w), seed, conn, 2);
        let mut out = Vec::new();
        for _ in 0..n {
            g.next_request().encode_frame(&mut out);
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_stream() {
        for w in &WORKLOADS {
            let a = stream_bytes(w, 7, 1, 5000);
            assert_eq!(a, stream_bytes(w, 7, 1, 5000), "{}", w.name);
            assert_ne!(a, stream_bytes(w, 8, 1, 5000), "{}: seed ignored", w.name);
            assert_ne!(a, stream_bytes(w, 7, 0, 5000), "{}: conn ignored", w.name);
        }
    }

    #[test]
    fn op_mix_and_partition_match_the_spec() {
        const N: u32 = 200_000;
        for w in &WORKLOADS {
            let conns = 3;
            for conn in 0..conns {
                let mut g = Gen::new(w, key_dist(w), 1, conn, conns);
                let (mut gets, mut scans, mut puts, mut dels) = (0u32, 0u32, 0u32, 0u32);
                for _ in 0..N {
                    match g.next_request() {
                        Request::Get { key } => {
                            assert!(key < w.prefill);
                            gets += 1;
                        }
                        Request::Scan { start, count } => {
                            assert!(start < w.prefill);
                            assert_eq!(count, SCAN_COUNT);
                            scans += 1;
                        }
                        Request::Put { key, value } => {
                            assert_eq!(key % conns, conn, "PUT off its partition");
                            assert!(value >> 63 == 1, "PUT value is not journal-unique");
                            puts += 1;
                        }
                        Request::Del { key } => {
                            assert_eq!(key % conns, conn, "DEL off its partition");
                            dels += 1;
                        }
                        other => panic!("unexpected request {other:?}"),
                    }
                }
                let pct = |n: u32| 100.0 * n as f64 / N as f64;
                assert!((pct(gets) - w.get_pct as f64).abs() < 2.0, "{}", w.name);
                assert!((pct(scans) - w.scan_pct as f64).abs() < 2.0, "{}", w.name);
                assert!(
                    (pct(puts + dels) - w.mut_pct() as f64).abs() < 2.0,
                    "{}",
                    w.name
                );
                assert!(
                    (pct(puts) - pct(dels)).abs() < 2.0,
                    "{}: PUT/DEL split",
                    w.name
                );
            }
        }
    }

    #[test]
    fn put_values_are_unique_per_connection_and_sequence() {
        let w = workload("svc-write").unwrap();
        let mut seen = std::collections::HashSet::new();
        for conn in 0..2 {
            let mut g = Gen::new(w, None, 1, conn, 2);
            for _ in 0..20_000 {
                if let Request::Put { value, .. } = g.next_request() {
                    assert!(seen.insert(value));
                }
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut low = 0;
        for _ in 0..100_000 {
            let k = z.sample(&mut rng);
            assert!(k < 100_000);
            if k < 1000 {
                low += 1;
            }
        }
        // 1% of the keys draw well over half the accesses at θ=0.99.
        assert!(low > 50_000, "only {low} of 100000 draws hit the hot 1%");
    }

    #[test]
    fn paced_schedule_is_absolute() {
        let rate = 50_000;
        // 25 s at 50 000/s: the last offset is exact, not an accumulated
        // sum of truncated periods.
        let k = 25 * rate;
        assert_eq!(paced_offset_ns(k, rate), 25_000_000_000);
        let mut prev = 0;
        for i in 1..=k {
            let at = paced_offset_ns(i, rate);
            assert!(at > prev);
            assert!(at - prev == 20_000, "period {} at {i}", at - prev);
            prev = at;
        }
        // A rate that does not divide a second still lands on the
        // second exactly every `rate` requests.
        assert_eq!(paced_offset_ns(3 * 7, 7), 3_000_000_000);
    }

    #[test]
    fn workload_names_are_fixed() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "svc-read",
                "svc-write",
                "svc-paced",
                "svc-durable",
                "svc-sim"
            ]
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
    }
}
