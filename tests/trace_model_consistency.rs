//! Close the loop: record the *actual* IO trace of a dictionary workload,
//! cost it under the affine model and the matching DAM, and check (a) the
//! affine model predicts the simulated wall time, and (b) Lemma 1's factor-2
//! DAM equivalence holds on a real (not synthetic) trace.

use refined_dam::models::conversions;
use refined_dam::prelude::*;
use refined_dam::storage::profiles;

#[test]
fn btree_workload_trace_obeys_affine_model_and_lemma1() {
    let profile = profiles::wd_black_1tb_2011();
    let alpha = profile.alpha_per_byte();
    let setup_s = profile.expected_setup_s();
    let obs = Obs::new();
    let mut tracer = ObservedDevice::new(HddDevice::new(profile, 99), obs.clone());

    // Drive a raw IO workload shaped like a B-tree query phase: descents of
    // 3 node reads (64 KiB each) at random offsets, plus periodic leaf
    // writebacks.
    let mut rng = dam_stats::SplitMix64::new(4);
    let node = 64 * 1024u64;
    let cap = tracer.capacity_bytes();
    let mut now = SimTime::ZERO;
    let mut buf = vec![0u8; node as usize];
    for i in 0..300 {
        for _ in 0..3 {
            let off = rng.below((cap - node) / node) * node;
            let c = tracer.read(off, &mut buf, now).unwrap();
            now = c.complete;
        }
        if i % 4 == 0 {
            let off = rng.below((cap - node) / node) * node;
            let c = tracer.write(off, &buf, now).unwrap();
            now = c.complete;
        }
    }

    // The recent-IO ring (4096 entries) holds the whole trace, and its
    // latencies account for every simulated nanosecond (IOs ran back to back).
    let ios = obs.recent_ios();
    assert_eq!(ios.len(), 300 * 3 + 75);
    assert_eq!(ios.iter().map(|io| io.latency_ns).sum::<u64>(), now.0);
    let sizes: Vec<f64> = ios.iter().map(|io| io.bytes as f64).collect();

    // (a) Affine prediction of total time: sum of (1 + alpha*x) * s.
    let affine = Affine::new(alpha);
    let predicted_s: f64 = sizes.iter().map(|&x| affine.io_cost(x)).sum::<f64>() * setup_s;
    let simulated_s = now.as_secs_f64();
    let err = (predicted_s - simulated_s).abs() / simulated_s;
    assert!(
        err < 0.10,
        "affine predicted {predicted_s:.3}s vs simulated {simulated_s:.3}s (err {err:.3})"
    );

    // (b) Lemma 1 on the real trace.
    let report = conversions::lemma1_check(&affine, &sizes);
    assert!(report.holds(), "{report:?}");
}

#[test]
fn tree_issued_ios_are_node_sized() {
    // The whole premise of the node-size experiments: every device IO a
    // B-tree issues is exactly one node. Verify against the device counters.
    let profile = profiles::toshiba_dt01aca050();
    let node_bytes = 32 * 1024usize;
    let device = SharedDevice::new(Box::new(HddDevice::new(profile, 5)));

    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..20_000u64)
        .map(|i| (refined_dam::kv::key_from_u64(i).to_vec(), vec![3u8; 100]))
        .collect();
    let mut tree =
        BTree::bulk_load(device.clone(), BTreeConfig::new(node_bytes, 1 << 19), pairs).unwrap();
    tree.drop_cache().unwrap();
    let mut gen = WorkloadGen::new(WorkloadConfig::uniform(20_000, 8));
    for _ in 0..50 {
        let key = refined_dam::kv::key_from_u64(gen.next_index());
        tree.get(&key).unwrap();
    }
    // Inspect device stats: every IO moved exactly node_bytes.
    let stats = device.stats();
    assert!(stats.reads > 0);
    assert_eq!(
        stats.total_bytes() % node_bytes as u64,
        0,
        "IOs must be whole nodes: {} total bytes",
        stats.total_bytes()
    );
    assert_eq!(stats.total_bytes() / stats.total_ios(), node_bytes as u64);
}
