//! Closed-loop multi-client IO simulator — the driver behind the Figure 1
//! experiment.
//!
//! §4.1's benchmark: spawn `p` threads, each reading fixed-size blocks at
//! random aligned offsets, one outstanding IO per thread, until each has
//! read its share. Here the "threads" are simulated clients multiplexed on
//! the simulated clock: each client issues its next IO the instant its
//! previous one completes. A min-heap orders issue times globally so device
//! queueing is exercised exactly as it would be by real concurrent callers.
//!
//! **Scope: this is a device-level microbenchmark.** [`run_closed_loop`]
//! drives *raw block IOs* straight at a [`BlockDevice`] — no dictionary, no
//! cache, no dependency structure between a client's IOs beyond "one
//! outstanding at a time". Its throughput numbers characterize the device
//! (the Figure 1 saturation curve), not a data structure serving requests.
//! Multi-client throughput *through the dictionaries* — root-to-leaf IO
//! chains, `P`-slot steps, read coalescing, fair slot accounting — is the
//! job of [`crate::sched::PdamScheduler`] and the `dam-serve` crate built
//! on it (`damlab experiment serve`); do not compare numbers across the two paths.

use crate::clock::{SimDuration, SimTime};
use crate::device::{BlockDevice, IoError};
use crate::hist::LatencyHist;
use dam_stats::{derive_seed, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of a closed-loop random-read run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopConfig {
    /// Number of concurrent clients (`p`).
    pub clients: usize,
    /// IOs each client performs.
    pub ios_per_client: u64,
    /// Size of each IO in bytes.
    pub io_bytes: u64,
    /// Alignment of the random offsets (the paper uses block-aligned LBAs).
    pub align_bytes: u64,
    /// Fraction of IOs that are writes (0.0 = pure read, as in Fig 1).
    pub write_fraction: f64,
    /// RNG seed; each client derives its own stream from it.
    pub seed: u64,
}

impl ClosedLoopConfig {
    /// Pure-random-read configuration matching §4.1's shape.
    pub fn random_reads(clients: usize, ios_per_client: u64, io_bytes: u64, seed: u64) -> Self {
        ClosedLoopConfig {
            clients,
            ios_per_client,
            io_bytes,
            align_bytes: io_bytes,
            write_fraction: 0.0,
            seed,
        }
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopResult {
    /// When the last client finished (the paper's reported quantity).
    pub makespan: SimDuration,
    /// Completion time of each client.
    pub client_finish: Vec<SimDuration>,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Aggregate throughput in bytes per simulated second.
    pub throughput_bytes_s: f64,
    /// Mean per-IO latency across all clients (seconds).
    pub mean_latency_s: f64,
    /// Median per-IO latency (seconds, log-bucketed histogram estimate).
    pub p50_latency_s: f64,
    /// 99th-percentile per-IO latency (seconds, histogram estimate).
    pub p99_latency_s: f64,
    /// Full per-IO latency distribution, for callers needing other
    /// quantiles or wanting to merge runs.
    pub latency_hist: LatencyHist,
}

/// Run a closed-loop workload against a device.
///
/// Deterministic: same config + same device state ⇒ same result.
pub fn run_closed_loop(
    device: &mut dyn BlockDevice,
    cfg: &ClosedLoopConfig,
) -> Result<ClosedLoopResult, IoError> {
    assert!(cfg.clients > 0 && cfg.ios_per_client > 0 && cfg.io_bytes > 0);
    assert!(cfg.align_bytes > 0);
    let capacity = device.capacity_bytes();
    assert!(capacity >= cfg.io_bytes, "device smaller than one IO");
    let slots = (capacity - cfg.io_bytes) / cfg.align_bytes + 1;

    let mut rngs: Vec<SplitMix64> = (0..cfg.clients)
        .map(|i| SplitMix64::new(derive_seed(cfg.seed, i as u64)))
        .collect();
    let mut remaining: Vec<u64> = vec![cfg.ios_per_client; cfg.clients];
    let mut finish: Vec<SimTime> = vec![SimTime::ZERO; cfg.clients];
    let mut buf = vec![0u8; cfg.io_bytes as usize];
    let mut latency_total = 0.0f64;
    let mut ios_total = 0u64;
    let mut hist = LatencyHist::new();

    // Heap of (next issue time, client). Reverse for a min-heap; client id
    // breaks ties deterministically.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (0..cfg.clients)
        .map(|i| Reverse((SimTime::ZERO, i)))
        .collect();

    while let Some(Reverse((now, client))) = heap.pop() {
        let offset = rngs[client].below(slots) * cfg.align_bytes;
        let is_write =
            cfg.write_fraction > 0.0 && rngs[client].range_f64(0.0..1.0) < cfg.write_fraction;
        let completion = if is_write {
            device.write(offset, &buf, now)?
        } else {
            device.read(offset, &mut buf, now)?
        };
        let latency = completion.complete - now;
        latency_total += latency.as_secs_f64();
        hist.record(latency);
        ios_total += 1;
        remaining[client] -= 1;
        if remaining[client] == 0 {
            finish[client] = completion.complete;
        } else {
            heap.push(Reverse((completion.complete, client)));
        }
    }

    let makespan_t = finish.iter().copied().max().unwrap_or(SimTime::ZERO);
    let makespan = makespan_t - SimTime::ZERO;
    let total_bytes = cfg.clients as u64 * cfg.ios_per_client * cfg.io_bytes;
    let secs = makespan.as_secs_f64();
    Ok(ClosedLoopResult {
        makespan,
        client_finish: finish.iter().map(|&t| t - SimTime::ZERO).collect(),
        total_bytes,
        throughput_bytes_s: if secs > 0.0 {
            total_bytes as f64 / secs
        } else {
            0.0
        },
        mean_latency_s: if ios_total > 0 {
            latency_total / ios_total as f64
        } else {
            0.0
        },
        p50_latency_s: hist.quantile_ns(0.50) as f64 * 1e-9,
        p99_latency_s: hist.quantile_ns(0.99) as f64 * 1e-9,
        latency_hist: hist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDisk;
    use crate::ssd::{SsdDevice, SsdProfile};

    #[test]
    fn single_client_on_ramdisk_is_exact() {
        let mut d = RamDisk::new(1 << 20, SimDuration(1000));
        let cfg = ClosedLoopConfig::random_reads(1, 100, 4096, 1);
        let r = run_closed_loop(&mut d, &cfg).unwrap();
        assert_eq!(r.makespan, SimDuration(100_000));
        assert_eq!(r.total_bytes, 100 * 4096);
        assert!((r.mean_latency_s - 1e-6).abs() < 1e-12);
        // Every IO takes exactly 1µs, so the histogram's range clamp makes
        // the percentiles exact.
        assert!((r.p50_latency_s - 1e-6).abs() < 1e-12);
        assert!((r.p99_latency_s - 1e-6).abs() < 1e-12);
        assert_eq!(r.latency_hist.count(), 100);
    }

    #[test]
    fn percentiles_order_and_bound_the_mean() {
        let profile = SsdProfile::from_pdam_targets("t", 1 << 28, 4.0, 400.0);
        let mut d = SsdDevice::new(profile);
        let cfg = ClosedLoopConfig::random_reads(8, 100, 64 * 1024, 11);
        let r = run_closed_loop(&mut d, &cfg).unwrap();
        assert!(r.p50_latency_s > 0.0);
        assert!(r.p50_latency_s <= r.p99_latency_s);
        assert!(r.p99_latency_s <= r.latency_hist.max_ns() as f64 * 1e-9 + 1e-12);
        // With queueing the distribution is skewed: the mean sits between
        // the median and the tail.
        assert!(r.mean_latency_s >= 0.8 * r.p50_latency_s);
        assert!(r.mean_latency_s <= r.p99_latency_s);
    }

    #[test]
    fn ramdisk_serializes_all_clients() {
        // One internal resource: p clients take p times as long in total,
        // i.e. makespan = p * n * latency regardless of p. (This is the
        // degenerate P = 1 device.)
        let mut d = RamDisk::new(1 << 20, SimDuration(1000));
        let cfg = ClosedLoopConfig::random_reads(4, 100, 4096, 1);
        let r = run_closed_loop(&mut d, &cfg).unwrap();
        assert_eq!(r.makespan, SimDuration(400_000));
    }

    #[test]
    fn ssd_scales_until_saturation() {
        // The Figure 1 shape in miniature: makespan roughly flat for
        // p <= units, then grows.
        let profile = SsdProfile::from_pdam_targets("t", 1 << 30, 4.0, 500.0);
        let run = |p: usize| {
            let mut d = SsdDevice::new(profile.clone());
            let cfg = ClosedLoopConfig::random_reads(p, 200, 64 * 1024, 7);
            run_closed_loop(&mut d, &cfg)
                .unwrap()
                .makespan
                .as_secs_f64()
        };
        let t1 = run(1);
        let t4 = run(4);
        let t16 = run(16);
        // With conflicts, t4 is somewhat above t1 but far below 4x.
        assert!(t4 < 2.5 * t1, "t4 {t4} vs t1 {t1}");
        // Past saturation, time grows linearly: 16 clients ≈ 4x the 4-client time.
        assert!(t16 > 2.5 * t4, "t16 {t16} vs t4 {t4}");
        assert!(t16 < 6.0 * t4, "t16 {t16} vs t4 {t4}");
    }

    #[test]
    fn deterministic_given_seed() {
        let profile = SsdProfile::from_pdam_targets("t", 1 << 28, 4.0, 400.0);
        let run = || {
            let mut d = SsdDevice::new(profile.clone());
            let cfg = ClosedLoopConfig::random_reads(8, 50, 16 * 1024, 123);
            run_closed_loop(&mut d, &cfg).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let profile = SsdProfile::from_pdam_targets("t", 1 << 28, 4.0, 400.0);
        let run = |seed| {
            let mut d = SsdDevice::new(profile.clone());
            let cfg = ClosedLoopConfig::random_reads(8, 50, 16 * 1024, seed);
            run_closed_loop(&mut d, &cfg).unwrap().makespan
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn write_fraction_produces_writes() {
        let mut d = RamDisk::new(1 << 20, SimDuration(10));
        let cfg = ClosedLoopConfig {
            clients: 2,
            ios_per_client: 100,
            io_bytes: 4096,
            align_bytes: 4096,
            write_fraction: 0.5,
            seed: 3,
        };
        run_closed_loop(&mut d, &cfg).unwrap();
        let s = d.stats();
        assert!(
            s.writes > 50 && s.reads > 50,
            "reads {} writes {}",
            s.reads,
            s.writes
        );
    }
}
