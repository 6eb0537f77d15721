//! Failure injection through the full stack: device faults must surface as
//! typed `KvError` errors from every dictionary — never panics, never
//! silent corruption — and faults must leave the structure fully usable
//! once they clear.
//!
//! Coverage: hard read/write faults, countdown (`AfterIos`) faults,
//! intermittent (`Transient`) faults absorbed by [`RetryingDevice`], torn
//! writes repaired by re-flush, and silent bit rot caught by the
//! checksummed block frames as `KvError::Corrupt`.

use refined_dam::prelude::*;
use refined_dam::storage::{
    FaultInjector, FaultMode, FaultSwitch, RamDisk, RetryPolicy, RetryingDevice,
};

fn faulty_device() -> (SharedDevice, FaultSwitch) {
    let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
    (SharedDevice::new(Box::new(inj)), switch)
}

fn preload(dict: &mut dyn Dictionary, n: u64) {
    for i in 0..n {
        let k = refined_dam::kv::key_from_u64(i);
        dict.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    dict.sync().unwrap();
}

fn check_read_fault_recovery(mut dict: Box<dyn Dictionary>, switch: FaultSwitch, label: &str) {
    preload(dict.as_mut(), 2_000);
    // Cold cache so queries must touch the device.
    // (sync above flushed; now fail all reads.)
    switch.set(FaultMode::Reads);
    let key = refined_dam::kv::key_from_u64(1_234);
    // Some reads may be served from cache; force enough traffic that the
    // device is hit.
    let mut saw_error = false;
    for i in 0..2_000u64 {
        let k = refined_dam::kv::key_from_u64((i * 37) % 2_000);
        match dict.get(&k) {
            Ok(_) => {}
            Err(KvError::Storage(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("{label}: unexpected error kind: {other}"),
        }
    }
    assert!(saw_error, "{label}: read fault never surfaced");
    // Clear the fault: everything works again and data is intact.
    switch.set(FaultMode::None);
    let got = dict.get(&key).unwrap();
    assert_eq!(
        got,
        Some(vec![(1_234 % 251) as u8; 50]),
        "{label}: data lost after fault"
    );
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    assert_eq!(all.len(), 2_000, "{label}: range after recovery");
}

#[test]
fn btree_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 16)).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "btree");
}

#[test]
fn betree_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 16)).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "betree");
}

#[test]
fn opt_betree_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 16)).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "opt-betree");
}

#[test]
fn lsm_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 16);
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "lsm");
}

#[test]
fn write_faults_surface_as_storage_errors() {
    let (dev, switch) = faulty_device();
    let mut tree = BTree::create(dev, BTreeConfig::new(1024, 1 << 12)).unwrap();
    // Tiny cache: inserts must evict (write) soon after the fault arms.
    switch.set(FaultMode::Writes);
    let mut saw_error = false;
    for i in 0..10_000u64 {
        let k = refined_dam::kv::key_from_u64(i);
        match tree.insert(&k, &[1u8; 100]) {
            Ok(()) => {}
            Err(KvError::Storage(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(saw_error, "write fault never surfaced");
    assert!(switch.stats().faults_injected >= 1);
}

/// Write faults during `sync` surface as `KvError::Storage`, the dirty
/// pages stay cached, and a retried `sync` after the fault clears commits
/// everything — no data loss, no panic.
fn check_write_fault_recovery(mut dict: Box<dyn Dictionary>, switch: FaultSwitch, label: &str) {
    // Cache is large enough that inserts alone do no device IO; all
    // writes happen inside sync.
    for i in 0..500u64 {
        let k = refined_dam::kv::key_from_u64(i);
        dict.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    switch.set(FaultMode::Writes);
    match dict.sync() {
        Err(KvError::Storage(_)) => {}
        Err(other) => panic!("{label}: unexpected error kind: {other}"),
        Ok(()) => panic!("{label}: sync succeeded with writes failing"),
    }
    let stats = switch.stats();
    assert!(stats.faults_injected >= 1, "{label}: no faults counted");
    assert!(
        stats.ios_seen >= stats.faults_injected,
        "{label}: counter skew"
    );
    // Fault clears: the retried sync must commit and the data survive.
    switch.set(FaultMode::None);
    dict.sync()
        .unwrap_or_else(|e| panic!("{label}: retried sync failed: {e}"));
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    assert_eq!(all.len(), 500, "{label}: data lost across failed sync");
}

#[test]
fn btree_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 20)).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "btree");
}

#[test]
fn betree_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 20)).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "betree");
}

#[test]
fn opt_betree_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 20)).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "opt-betree");
}

#[test]
fn lsm_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 20);
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "lsm");
}

/// `AfterIos(k)`: the structure works until IO #k, then every operation
/// fails with a typed error; clearing the fault restores full service.
fn check_after_ios_recovery(mut dict: Box<dyn Dictionary>, switch: FaultSwitch, label: &str) {
    for i in 0..500u64 {
        let k = refined_dam::kv::key_from_u64(i);
        dict.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    // Let the first sync IO through, then cut the cord mid-flush. Every
    // dictionary's sync takes at least two IOs (data + superblock).
    switch.set(FaultMode::AfterIos(1));
    match dict.sync() {
        Err(KvError::Storage(_)) => {}
        Err(other) => panic!("{label}: unexpected error kind: {other}"),
        Ok(()) => panic!("{label}: sync finished in a single IO"),
    }
    let stats = switch.stats();
    assert!(stats.ios_seen > 1, "{label}: fault fired too early");
    assert!(stats.faults_injected >= 1, "{label}: no faults counted");
    switch.set(FaultMode::None);
    dict.sync()
        .unwrap_or_else(|e| panic!("{label}: retried sync failed: {e}"));
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    assert_eq!(all.len(), 500, "{label}: data lost across partial flush");
}

#[test]
fn btree_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 20)).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "btree");
}

#[test]
fn betree_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 20)).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "betree");
}

#[test]
fn opt_betree_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 20)).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "opt-betree");
}

#[test]
fn lsm_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 20);
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "lsm");
}

#[test]
fn transient_faults_absorbed_by_retrying_device() {
    // Stack: BTree → pager → RetryingDevice → FaultInjector → RamDisk.
    // One fault then three passes, every cycle: each faulted IO succeeds
    // on the first retry, so the dictionary never sees an error at all.
    let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
    let policy = RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration(1_000),
    };
    let (retrying, handle) = RetryingDevice::new(inj, policy);
    let dev = SharedDevice::new(Box::new(retrying));
    switch.set(FaultMode::Transient {
        fail_n: 1,
        pass_n: 3,
    });

    let mut tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 16)).unwrap();
    for i in 0..2_000u64 {
        let k = refined_dam::kv::key_from_u64(i);
        tree.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    tree.sync().unwrap();
    tree.drop_cache().unwrap();
    for i in (0..2_000u64).step_by(97) {
        let k = refined_dam::kv::key_from_u64(i);
        assert_eq!(tree.get(&k).unwrap(), Some(vec![(i % 251) as u8; 50]));
    }
    let retry = handle.stats();
    assert!(retry.absorbed > 0, "no faults were absorbed: {retry:?}");
    assert_eq!(
        retry.giveups, 0,
        "transient faults should never give up: {retry:?}"
    );
    assert!(retry.retries >= retry.absorbed);
    assert!(switch.stats().faults_injected > 0, "injector never fired");
}

#[test]
fn torn_writes_error_then_repair_on_reflush() {
    let (dev, switch) = faulty_device();
    let mut tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 20)).unwrap();
    for i in 0..500u64 {
        let k = refined_dam::kv::key_from_u64(i);
        tree.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    // Every write persists only half its bytes and reports failure.
    switch.set(FaultMode::TornWrite);
    assert!(
        matches!(tree.sync(), Err(KvError::Storage(_))),
        "torn write must error"
    );
    assert!(switch.stats().faults_injected >= 1);
    // The failed pages are still dirty in cache: a clean re-flush
    // overwrites every torn block with the full image.
    switch.set(FaultMode::None);
    tree.sync().unwrap();
    tree.drop_cache().unwrap();
    for i in (0..500u64).step_by(29) {
        let k = refined_dam::kv::key_from_u64(i);
        assert_eq!(
            tree.get(&k).unwrap(),
            Some(vec![(i % 251) as u8; 50]),
            "torn block not repaired for key {i}"
        );
    }
}

#[test]
fn bit_rot_is_caught_by_checksums_not_returned() {
    let (dev, switch) = faulty_device();
    let mut tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 16)).unwrap();
    for i in 0..2_000u64 {
        let k = refined_dam::kv::key_from_u64(i);
        tree.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    tree.sync().unwrap();
    tree.drop_cache().unwrap();
    // Every device read comes back with one silently flipped bit — the
    // device reports success, only the frame checksum can tell.
    switch.set(FaultMode::BitFlip {
        seed: 0xDA7A,
        every: 1,
    });
    let k = refined_dam::kv::key_from_u64(1_234);
    match tree.get(&k) {
        Err(KvError::Corrupt(_)) => {}
        Ok(v) => panic!("silent corruption returned as data: {v:?}"),
        Err(other) => panic!("unexpected error kind: {other}"),
    }
    assert!(switch.stats().faults_injected >= 1);
    // Rot stops; drop the poisoned cache and everything reads clean.
    switch.set(FaultMode::None);
    tree.drop_cache().unwrap();
    assert_eq!(tree.get(&k).unwrap(), Some(vec![(1_234 % 251) as u8; 50]));
    assert_eq!(tree.range(&[], &[0xFF; 17]).unwrap().len(), 2_000);
}

#[test]
fn profiler_propagates_device_faults() {
    use refined_dam::profiler::{profile_affine, table2_io_sizes, ProfileError};
    let result = profile_affine(
        || {
            let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
            switch.set(FaultMode::All);
            Box::new(inj)
        },
        &table2_io_sizes(),
        8,
        1,
    );
    assert!(matches!(result, Err(ProfileError::Io(_))), "got {result:?}");
}
