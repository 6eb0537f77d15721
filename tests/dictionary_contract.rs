//! The `Dictionary` contract, written once. The paper's comparisons pit the
//! B-tree against the standard Bε-tree, the Theorem 9 optimized Bε-tree and
//! the LSM-tree; they only mean something if all four give identical
//! answers (DESIGN.md §10). Every shared case below runs on all four, and
//! each capability case (bulk load, upserts, a persisted node size) on
//! every structure that has the capability. Tests are named
//! `<structure>::<case>`, so a failure names both.
//!
//! Structure-specific tests (heights, IO counts, amortization, drain, LSM
//! levels) stay in their own crates.

use refined_dam::kv::msg::CounterMerge;
use refined_dam::kv::{key_from_u64, KvPair};
use refined_dam::prelude::*;
use refined_dam::stats::{prop, SplitMix64};
use refined_dam::storage::{FaultInjector, FaultMode, FaultSwitch};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;

/// The inherent methods the contract needs, lifted to a trait.
trait Contract: Dictionary + Sized {
    type Cfg;
    /// One model-check case's draw: node, segment or memtable size, fanout.
    type Params: Debug;
    const MODEL_CASES: u32;
    const MODEL_OPS: Range<usize>;

    /// Small nodes or tables, so a few thousand keys grow the structure.
    fn cfg(cache_bytes: u64) -> Self::Cfg;
    fn draw(r: &mut SplitMix64) -> Self::Params;
    fn model_cfg(p: &Self::Params) -> Self::Cfg;
    fn create(dev: SharedDevice, cfg: Self::Cfg) -> Result<Self, KvError>;
    fn open(dev: SharedDevice, cfg: Self::Cfg) -> Result<Self, KvError>;
    fn persist(&mut self) -> Result<(), KvError>;
    fn drop_cache(&mut self) -> Result<(), KvError>;
    fn check_invariants(&mut self) -> Result<u64, KvError>;
    /// Push buffered work down: `drain_all` on the Bε-trees, `sync` on the
    /// B-tree and the LSM.
    fn settle(&mut self) -> Result<(), KvError>;
    /// Tree height, or the LSM's L0 plus its deeper levels.
    fn levels(&self) -> usize;
}

trait BulkLoad: Contract {
    fn bulk_load(dev: SharedDevice, cfg: Self::Cfg, pairs: Vec<KvPair>) -> Result<Self, KvError>;
}

trait Upsert: Contract {
    /// `cfg(1 << 20)` with counter upserts.
    fn counter_cfg() -> Self::Cfg;
    fn upsert(&mut self, key: &[u8], delta: &[u8]) -> Result<(), KvError>;
}

trait NodeSized: Contract {
    /// `cfg(1 << 20)` with a different node size.
    fn other_node_size() -> Self::Cfg;
}

/// The trait items every structure forwards to a same-named inherent one.
macro_rules! forward {
    ($t:ty, $cfg:ty) => {
        type Cfg = $cfg;
        fn create(dev: SharedDevice, cfg: $cfg) -> Result<Self, KvError> {
            <$t>::create(dev, cfg)
        }
        fn open(dev: SharedDevice, cfg: $cfg) -> Result<Self, KvError> {
            <$t>::open(dev, cfg)
        }
        fn persist(&mut self) -> Result<(), KvError> {
            <$t>::persist(self)
        }
        fn drop_cache(&mut self) -> Result<(), KvError> {
            <$t>::drop_cache(self)
        }
        fn check_invariants(&mut self) -> Result<u64, KvError> {
            <$t>::check_invariants(self)
        }
    };
}

/// One of `sizes`, uniformly.
fn pick(r: &mut SplitMix64, sizes: &[usize]) -> usize {
    sizes[r.below(sizes.len() as u64) as usize]
}

impl Contract for BTree {
    forward!(BTree, BTreeConfig);
    type Params = usize;
    const MODEL_CASES: u32 = 48;
    const MODEL_OPS: Range<usize> = 1..300;
    fn cfg(cache_bytes: u64) -> BTreeConfig {
        BTreeConfig::new(512, cache_bytes)
    }
    fn draw(r: &mut SplitMix64) -> usize {
        pick(r, &[256, 512, 1024, 4096])
    }
    fn model_cfg(&node_bytes: &usize) -> BTreeConfig {
        BTreeConfig::new(node_bytes, 1 << 16)
    }
    fn settle(&mut self) -> Result<(), KvError> {
        self.sync()
    }
    fn levels(&self) -> usize {
        self.height() as usize
    }
}

impl Contract for BeTree {
    forward!(BeTree, BeTreeConfig);
    type Params = (usize, usize);
    const MODEL_CASES: u32 = 40;
    const MODEL_OPS: Range<usize> = 1..250;
    fn cfg(cache_bytes: u64) -> BeTreeConfig {
        BeTreeConfig::new(2048, 4, cache_bytes)
    }
    fn draw(r: &mut SplitMix64) -> (usize, usize) {
        (pick(r, &[512, 1024, 4096]), r.range(2..8) as usize)
    }
    fn model_cfg(&(node_bytes, fanout): &(usize, usize)) -> BeTreeConfig {
        BeTreeConfig::new(node_bytes, fanout, 1 << 16)
    }
    fn settle(&mut self) -> Result<(), KvError> {
        self.drain_all()
    }
    fn levels(&self) -> usize {
        self.height() as usize
    }
}

impl Contract for OptBeTree {
    forward!(OptBeTree, OptConfig);
    type Params = (usize, usize);
    const MODEL_CASES: u32 = 40;
    const MODEL_OPS: Range<usize> = 1..250;
    fn cfg(cache_bytes: u64) -> OptConfig {
        OptConfig::new(4, 1024, cache_bytes)
    }
    fn draw(r: &mut SplitMix64) -> (usize, usize) {
        (pick(r, &[256, 512, 1024]), r.range(2..8) as usize)
    }
    fn model_cfg(&(seg_bytes, fanout): &(usize, usize)) -> OptConfig {
        OptConfig::new(fanout, seg_bytes, 1 << 16)
    }
    fn settle(&mut self) -> Result<(), KvError> {
        self.drain_all()
    }
    fn levels(&self) -> usize {
        self.height() as usize
    }
}

impl Contract for LsmTree {
    forward!(LsmTree, LsmConfig);
    type Params = usize;
    const MODEL_CASES: u32 = 40;
    const MODEL_OPS: Range<usize> = 1..250;
    fn cfg(cache_bytes: u64) -> LsmConfig {
        LsmConfig {
            memtable_bytes: 1024,
            block_bytes: 512,
            level_ratio: 4,
            l0_limit: 2,
            ..LsmConfig::new(2048, cache_bytes)
        }
    }
    fn draw(r: &mut SplitMix64) -> usize {
        pick(r, &[256, 512, 2048])
    }
    fn model_cfg(&memtable_bytes: &usize) -> LsmConfig {
        LsmConfig {
            memtable_bytes,
            block_bytes: 256,
            level_ratio: 3,
            l0_limit: 2,
            ..LsmConfig::new(1024, 1 << 16)
        }
    }
    fn settle(&mut self) -> Result<(), KvError> {
        self.sync()
    }
    fn levels(&self) -> usize {
        self.level_table_counts().len()
    }
}

impl BulkLoad for BTree {
    fn bulk_load(dev: SharedDevice, cfg: BTreeConfig, pairs: Vec<KvPair>) -> Result<Self, KvError> {
        BTree::bulk_load(dev, cfg, pairs)
    }
}

impl BulkLoad for BeTree {
    fn bulk_load(
        dev: SharedDevice,
        cfg: BeTreeConfig,
        pairs: Vec<KvPair>,
    ) -> Result<Self, KvError> {
        BeTree::bulk_load(dev, cfg, pairs)
    }
}

impl BulkLoad for OptBeTree {
    fn bulk_load(dev: SharedDevice, cfg: OptConfig, pairs: Vec<KvPair>) -> Result<Self, KvError> {
        OptBeTree::bulk_load(dev, cfg, pairs)
    }
}

impl Upsert for BeTree {
    fn counter_cfg() -> BeTreeConfig {
        BeTreeConfig {
            merge: Box::new(CounterMerge),
            ..Self::cfg(1 << 20)
        }
    }
    fn upsert(&mut self, key: &[u8], delta: &[u8]) -> Result<(), KvError> {
        BeTree::upsert(self, key, delta)
    }
}

impl Upsert for OptBeTree {
    fn counter_cfg() -> OptConfig {
        OptConfig {
            merge: Box::new(CounterMerge),
            ..Self::cfg(1 << 20)
        }
    }
    fn upsert(&mut self, key: &[u8], delta: &[u8]) -> Result<(), KvError> {
        OptBeTree::upsert(self, key, delta)
    }
}

impl NodeSized for BTree {
    fn other_node_size() -> BTreeConfig {
        BTreeConfig::new(1024, 1 << 20)
    }
}

impl NodeSized for BeTree {
    fn other_node_size() -> BeTreeConfig {
        BeTreeConfig::new(4096, 4, 1 << 20)
    }
}

impl NodeSized for OptBeTree {
    fn other_node_size() -> OptConfig {
        OptConfig::new(8, 1024, 1 << 20)
    }
}

/// Instantiate every shared case, plus the listed capability cases, once
/// per structure.
macro_rules! contract {
    ($($structure:ident: $t:ty => [$($capability:ident),*];)*) => {$(
        mod $structure {
            use super::*;
            contract!(@cases $t;
                empty_tree,
                insert_get_through_growth,
                overwrite_latest_write_wins,
                delete_down_to_empty,
                range_windows_scans_and_degenerate_bounds,
                empty_key_and_keys_above_ff_sentinel,
                oversized_entry_is_config,
                persist_open_cycles_round_trip,
                open_blank_device_is_corrupt,
                failed_op_is_free_and_len_resets_cost,
                failed_reads_after_a_passed_read_are_free,
                surfaced_faults_lose_no_acked_update,
                equals_btreemap_model
                $(, $capability)*);
        }
    )*};
    (@cases $t:ty; $($case:ident),*) => {$(
        #[test]
        fn $case() {
            super::$case::<$t>();
        }
    )*};
}

contract! {
    btree: BTree => [bulk_load_equals_incremental, bulk_load_edge_inputs, node_size_mismatch_is_config];
    betree: BeTree => [bulk_load_equals_incremental, bulk_load_edge_inputs, node_size_mismatch_is_config, upsert_counters];
    opt_betree: OptBeTree => [bulk_load_equals_incremental, bulk_load_edge_inputs, node_size_mismatch_is_config, upsert_counters];
    lsm: LsmTree => [];
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

fn ramdisk() -> SharedDevice {
    SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))))
}

fn faulty_device() -> (SharedDevice, FaultSwitch) {
    let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(200)));
    (SharedDevice::new(Box::new(inj)), switch)
}

fn fresh<T: Contract>() -> T {
    T::create(ramdisk(), T::cfg(1 << 20)).unwrap()
}

fn kv(i: u64) -> KvPair {
    (
        key_from_u64(i).to_vec(),
        format!("value-{i:08}").into_bytes(),
    )
}

fn insert_all(t: &mut impl Dictionary, keys: impl IntoIterator<Item = u64>) {
    for i in keys {
        let (k, v) = kv(i);
        t.insert(&k, &v).unwrap();
    }
}

fn full_scan(t: &mut impl Dictionary) -> Vec<KvPair> {
    t.range(&[], &[0xFF; 17]).unwrap()
}

fn model_pairs(model: &BTreeMap<u64, Vec<u8>>) -> Vec<KvPair> {
    model
        .iter()
        .map(|(&k, v)| (key_from_u64(k).to_vec(), v.clone()))
        .collect()
}

/// `len` and a full scan both agree with `model`.
fn assert_holds(t: &mut impl Dictionary, model: &BTreeMap<u64, Vec<u8>>, label: &str) {
    assert_eq!(t.len().unwrap(), model.len() as u64, "{label}: len");
    assert_eq!(full_scan(t), model_pairs(model), "{label}: full scan");
}

fn key_numbers(pairs: &[KvPair]) -> Vec<u64> {
    pairs
        .iter()
        .map(|(k, _)| refined_dam::kv::key_to_u64(k).unwrap())
        .collect()
}

// ----------------------------------------------------------------------
// Shared cases
// ----------------------------------------------------------------------

fn empty_tree<T: Contract>() {
    let mut t = fresh::<T>();
    assert_eq!(t.get(b"nope").unwrap(), None);
    assert_eq!(t.len().unwrap(), 0);
    assert!(t.is_empty().unwrap());
    assert!(t.range(b"a", b"z").unwrap().is_empty());
    t.delete(b"nope").unwrap();
    assert_eq!(t.check_invariants().unwrap(), 0);
}

fn insert_get_through_growth<T: Contract>() {
    let n = 2000u64;
    let orders: [(&str, Vec<u64>); 3] = [
        ("ascending", (0..n).collect()),
        ("descending", (0..n).rev().collect()),
        ("random", (0..n).map(|i| (i * 739) % n).collect()),
    ];
    for (order, keys) in orders {
        let mut t = fresh::<T>();
        insert_all(&mut t, keys);
        assert!(t.levels() >= 2, "{order}: never grew past one level");
        for i in 0..n {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "{order}: key {i}");
        }
        assert_eq!(t.get(&key_from_u64(n)).unwrap(), None, "{order}");
        assert_eq!(t.len().unwrap(), n, "{order}");
        assert_eq!(t.check_invariants().unwrap(), n, "{order}");
    }
}

fn overwrite_latest_write_wins<T: Contract>() {
    let mut t = fresh::<T>();
    let (hot, _) = kv(7);
    for round in 0..200u32 {
        t.insert(&hot, &round.to_le_bytes()).unwrap();
    }
    assert_eq!(t.get(&hot).unwrap(), Some(199u32.to_le_bytes().to_vec()));
    assert_eq!(t.len().unwrap(), 1);

    // Overwrites spread over growth: every key is written twice.
    let mut t = fresh::<T>();
    let mut model = BTreeMap::new();
    for round in 0..2000u64 {
        let k = (round * 1237) % 1000;
        let v = round.to_le_bytes().to_vec();
        t.insert(&key_from_u64(k), &v).unwrap();
        model.insert(k, v);
    }
    for (&k, v) in &model {
        assert_eq!(
            t.get(&key_from_u64(k)).unwrap().as_ref(),
            Some(v),
            "key {k}"
        );
    }
    assert_holds(&mut t, &model, "overwrites");
    t.check_invariants().unwrap();
}

fn delete_down_to_empty<T: Contract>() {
    let mut t = fresh::<T>();
    insert_all(&mut t, 0..1500);
    t.delete(&key_from_u64(5000)).unwrap();
    assert_eq!(t.len().unwrap(), 1500, "deleting an absent key is a no-op");
    for i in (0..1500).step_by(2) {
        t.delete(&key_from_u64(i)).unwrap();
    }
    for i in 0..1500 {
        let (k, v) = kv(i);
        let expect = (i % 2 == 1).then_some(v);
        assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
    }
    assert_eq!(t.len().unwrap(), 750);
    assert_eq!(t.check_invariants().unwrap(), 750);
    for i in (1..1500).step_by(2) {
        t.delete(&key_from_u64(i)).unwrap();
    }
    assert_eq!(t.len().unwrap(), 0);
    assert!(full_scan(&mut t).is_empty());
    assert_eq!(t.get(&key_from_u64(1)).unwrap(), None);
    assert_eq!(t.check_invariants().unwrap(), 0);
}

fn range_windows_scans_and_degenerate_bounds<T: Contract>() {
    let mut t = fresh::<T>();
    insert_all(&mut t, 0..1000);
    // Before any settle: buffered inserts must be visible.
    let window = t.range(&key_from_u64(50), &key_from_u64(60)).unwrap();
    assert_eq!(window, (50..60).map(kv).collect::<Vec<_>>());
    assert_eq!(full_scan(&mut t), (0..1000).map(kv).collect::<Vec<_>>());

    // Fresh overwrites and tombstones above settled data.
    t.settle().unwrap();
    for i in 100..110 {
        t.insert(&key_from_u64(i), b"fresh").unwrap();
    }
    for i in 110..115 {
        t.delete(&key_from_u64(i)).unwrap();
    }
    let out = t.range(&key_from_u64(95), &key_from_u64(120)).unwrap();
    let expect: Vec<u64> = (95..110).chain(115..120).collect();
    assert_eq!(key_numbers(&out), expect);
    for ((k, v), i) in out.iter().zip(expect) {
        let want = if (100..110).contains(&i) {
            b"fresh".to_vec()
        } else {
            kv(i).1
        };
        assert_eq!(v, &want, "key {k:?}");
    }

    // start >= end: empty, and answered without touching the device.
    t.drop_cache().unwrap();
    for (a, b) in [(10, 10), (20, 10)] {
        let out = t.range(&key_from_u64(a), &key_from_u64(b)).unwrap();
        assert!(out.is_empty(), "range({a}, {b})");
        assert_eq!(t.last_op_cost().ios, 0, "range({a}, {b}) did IO");
    }
}

fn empty_key_and_keys_above_ff_sentinel<T: Contract>() {
    let mut t = fresh::<T>();
    let keys: [(&[u8], &[u8]); 3] = [
        (&[0xFF; 64], b"at-sentinel"),
        (&[0xFF; 80], b"above-sentinel"),
        (b"", b"empty-key"),
    ];
    for (k, v) in keys {
        t.insert(k, v).unwrap();
    }
    assert_eq!(t.len().unwrap(), 3);
    assert_eq!(t.check_invariants().unwrap(), 3);
    t.settle().unwrap();
    assert_eq!(t.len().unwrap(), 3, "after settle");
    for (k, v) in keys {
        assert_eq!(t.get(k).unwrap(), Some(v.to_vec()), "key {k:?}");
    }
}

fn oversized_entry_is_config<T: Contract>() {
    let mut t = fresh::<T>();
    assert!(matches!(
        t.insert(b"k", &vec![0u8; 64 << 10]),
        Err(KvError::Config(_))
    ));
}

/// One mutate step of the reopen cycles: 70% inserts, 30% deletes over
/// 500 keys.
fn mutate(
    t: &mut impl Dictionary,
    model: &mut BTreeMap<u64, Vec<u8>>,
    rng: &mut SplitMix64,
    ops: usize,
) {
    for _ in 0..ops {
        let k = rng.below(500);
        let key = key_from_u64(k);
        if rng.chance(7, 10) {
            let v = vec![rng.byte(); rng.range(4..40) as usize];
            t.insert(&key, &v).unwrap();
            model.insert(k, v);
        } else {
            t.delete(&key).unwrap();
            model.remove(&k);
        }
    }
}

/// The device outlives every instance: persist, drop, reopen, check,
/// write more (reusing freed space, overwriting older state), and repeat.
/// The Bε-trees persist with messages still buffered.
fn persist_open_cycles_round_trip<T: Contract>() {
    let dev = ramdisk();
    let mut model = BTreeMap::new();
    let mut rng = SplitMix64::new(31);
    let mut levels = {
        let mut t = T::create(dev.clone(), T::cfg(1 << 18)).unwrap();
        mutate(&mut t, &mut model, &mut rng, 800);
        t.persist().unwrap();
        t.levels()
    };
    for cycle in 0..4 {
        let mut t = T::open(dev.clone(), T::cfg(1 << 18)).unwrap();
        assert_eq!(t.levels(), levels, "cycle {cycle}: levels");
        assert_holds(&mut t, &model, &format!("cycle {cycle}"));
        mutate(&mut t, &mut model, &mut rng, 400);
        t.check_invariants().unwrap();
        t.persist().unwrap();
        levels = t.levels();
    }
    let mut t = T::open(dev, T::cfg(1 << 18)).unwrap();
    assert_holds(&mut t, &model, "final");
    t.check_invariants().unwrap();
}

fn open_blank_device_is_corrupt<T: Contract>() {
    assert!(matches!(
        T::open(ramdisk(), T::cfg(1 << 16)),
        Err(KvError::Corrupt(_))
    ));
}

/// `last_op_cost` describes the latest operation: nothing for a failed
/// one, and `len`'s own cost rather than the preceding sync's.
fn failed_op_is_free_and_len_resets_cost<T: Contract>() {
    let mut t = fresh::<T>();
    insert_all(&mut t, 0..500);
    t.settle().unwrap();
    t.sync().unwrap();
    assert!(t.last_op_cost().bytes_written > 0, "sync should write");
    let err = t.insert(b"big", &vec![0u8; 64 << 10]);
    assert!(matches!(err, Err(KvError::Config(_))));
    assert_eq!(t.last_op_cost(), OpCost::default(), "failed op is free");
    t.sync().unwrap();
    assert_eq!(t.len().unwrap(), 500);
    assert_eq!(t.last_op_cost().bytes_written, 0, "len kept sync's cost");
}

/// A `get` or `range` whose first device read passes and whose second
/// fails reports a zero cost, not the IO it did before the error.
fn failed_reads_after_a_passed_read_are_free<T: Contract>() {
    // A 4 KiB cache, so every get reads more than one node.
    let (dev, switch) = faulty_device();
    let mut t = T::create(dev, T::cfg(1 << 12)).unwrap();
    // Scattered insertion order, so LSM runs overlap and a get can probe
    // more than one table.
    for i in 0..2_000u64 {
        let k = key_from_u64((i * 37) % 2_000);
        t.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    t.sync().unwrap();
    let mut failed = false;
    for i in 0..2_000u64 {
        // Let one IO through, then fail. Keys are visited out of order so
        // consecutive gets share few cached blocks.
        switch.set(FaultMode::AfterIos(1));
        match t.get(&key_from_u64((i * 997) % 2_000)) {
            Ok(_) => {}
            Err(KvError::Storage(_)) => {
                assert!(switch.stats().ios_seen >= 2, "no read passed");
                assert_eq!(t.last_op_cost(), OpCost::default(), "failed get");
                failed = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(failed, "no get failed after a device read");
    switch.set(FaultMode::AfterIos(1));
    assert!(
        matches!(t.range(&[], &[0xFF; 17]), Err(KvError::Storage(_))),
        "a full scan read fewer than two blocks"
    );
    assert_eq!(t.last_op_cost(), OpCost::default(), "failed range");
    switch.set(FaultMode::None);
}

/// Under probabilistic device faults every mutation is retried until it
/// reports `Ok`; once faults stop, the structure must match a shadow map
/// exactly: a surfaced fault never loses an acknowledged update.
fn surfaced_faults_lose_no_acked_update<T: Contract>() {
    // A 16 KiB cache, so the working set spills to the device.
    let (dev, switch) = faulty_device();
    let mut t = T::create(dev, T::cfg(1 << 14)).unwrap();
    switch.set(FaultMode::Probabilistic {
        num: 1,
        denom: 48,
        seed: 11,
    });
    let mut shadow = BTreeMap::new();
    let mut rng = SplitMix64::new(0x9e37_79b9);
    for i in 0..4000u64 {
        let k = rng.below(700);
        let key = key_from_u64(k);
        let mut tries = 0;
        if rng.chance(7, 10) {
            let v = format!("v{i:06}").into_bytes();
            while let Err(e) = t.insert(&key, &v) {
                tries += 1;
                assert!(tries < 200, "insert never converged: {e}");
            }
            shadow.insert(k, v);
        } else {
            while let Err(e) = t.delete(&key) {
                tries += 1;
                assert!(tries < 200, "delete never converged: {e}");
            }
            shadow.remove(&k);
        }
    }
    assert!(switch.stats().faults_injected > 0, "no fault fired");
    switch.set(FaultMode::None);
    assert_holds(&mut t, &shadow, "after faults");
    t.check_invariants().unwrap();
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u8),
    Delete(u16),
    Get(u16),
    Range(u16, u16),
    Settle,
    DropCache,
}

/// Weights 5:2:2:1:1:1 over a 512-key space.
fn gen_op(r: &mut SplitMix64) -> Op {
    let k = r.below(512) as u16;
    match r.below(12) {
        0..=4 => Op::Insert(k, r.byte()),
        5..=6 => Op::Delete(k),
        7..=8 => Op::Get(k),
        9 => Op::Range(k, r.below(512) as u16),
        10 => Op::Settle,
        _ => Op::DropCache,
    }
}

/// Values of 8–31 bytes.
fn value_for(v: u8) -> Vec<u8> {
    vec![v; 8 + (v as usize % 24)]
}

/// The structure behaves exactly like `BTreeMap` under arbitrary operation
/// sequences, across splits, flushes, compactions, settles and cold caches.
fn equals_btreemap_model<T: Contract>() {
    prop::check(
        T::MODEL_CASES,
        |r: &mut SplitMix64| (prop::vec(r, T::MODEL_OPS, gen_op), T::draw(r)),
        |(ops, params)| {
            let mut t = T::create(ramdisk(), T::model_cfg(&params)).unwrap();
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        let value = value_for(v);
                        t.insert(&key_from_u64(k as u64), &value).unwrap();
                        model.insert(k as u64, value);
                    }
                    Op::Delete(k) => {
                        t.delete(&key_from_u64(k as u64)).unwrap();
                        model.remove(&(k as u64));
                    }
                    Op::Get(k) => {
                        let got = t.get(&key_from_u64(k as u64)).unwrap();
                        assert_eq!(got.as_ref(), model.get(&(k as u64)));
                    }
                    Op::Range(a, b) => {
                        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
                        let got = t.range(&key_from_u64(lo), &key_from_u64(hi)).unwrap();
                        let expect: Vec<KvPair> = model
                            .range(lo..hi)
                            .map(|(&k, v)| (key_from_u64(k).to_vec(), v.clone()))
                            .collect();
                        assert_eq!(got, expect);
                    }
                    Op::Settle => t.settle().unwrap(),
                    Op::DropCache => t.drop_cache().unwrap(),
                }
            }
            assert_holds(&mut t, &model, "final audit");
            assert_eq!(t.check_invariants().unwrap(), model.len() as u64);
        },
    );
}

// ----------------------------------------------------------------------
// Capability cases
// ----------------------------------------------------------------------

/// A bulk load answers like the same pairs inserted one by one, before
/// and after further mutation.
fn bulk_load_equals_incremental<T: BulkLoad>() {
    let pairs: Vec<KvPair> = (0..2000).map(|i| kv(i * 2)).collect();
    let mut bulk = T::bulk_load(ramdisk(), T::cfg(1 << 20), pairs.clone()).unwrap();
    let mut incr = fresh::<T>();
    insert_all(&mut incr, (0..2000).map(|i| i * 2));
    assert_eq!(bulk.check_invariants().unwrap(), 2000);
    for (k, v) in pairs.iter().step_by(7) {
        assert_eq!(bulk.get(k).unwrap().as_ref(), Some(v));
    }
    assert_eq!(full_scan(&mut bulk), pairs);
    // Odd keys between bulk-loaded evens, then some deletes.
    for t in [&mut bulk, &mut incr] {
        insert_all(t, (0..300).map(|i| i * 2 + 1));
        for i in 0..200 {
            t.delete(&key_from_u64(i * 4)).unwrap();
        }
        assert_eq!(t.len().unwrap(), 2000 + 300 - 200);
        t.check_invariants().unwrap();
    }
    assert_eq!(full_scan(&mut bulk), full_scan(&mut incr));
}

fn bulk_load_edge_inputs<T: BulkLoad>() {
    let mut t = T::bulk_load(ramdisk(), T::cfg(1 << 20), vec![]).unwrap();
    assert_eq!(t.len().unwrap(), 0);
    assert_eq!(t.check_invariants().unwrap(), 0);
    insert_all(&mut t, 0..10);
    assert_eq!(t.len().unwrap(), 10, "an empty bulk load is writable");
    for unsorted in [vec![kv(5), kv(3)], vec![kv(1), kv(1)]] {
        assert!(matches!(
            T::bulk_load(ramdisk(), T::cfg(1 << 20), unsorted),
            Err(KvError::Config(_))
        ));
    }
}

fn node_size_mismatch_is_config<T: NodeSized>() {
    let dev = ramdisk();
    let mut t = T::create(dev.clone(), T::cfg(1 << 20)).unwrap();
    insert_all(&mut t, 0..10);
    t.persist().unwrap();
    drop(t);
    assert!(matches!(
        T::open(dev.clone(), T::other_node_size()),
        Err(KvError::Config(_))
    ));
    assert!(T::open(dev, T::cfg(1 << 20)).is_ok());
}

fn upsert_counters<T: Upsert>() {
    let mut t = T::create(ramdisk(), T::counter_cfg()).unwrap();
    let (k, _) = kv(3);
    for _ in 0..10 {
        t.upsert(&k, &5u64.to_le_bytes()).unwrap();
    }
    let got = t.get(&k).unwrap().unwrap();
    assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 50);

    // Hot-key upserts interleaved with traffic that forces flushes. The
    // put of key 500 at i = 500 (sequence order!) overwrites the upserts
    // queued before it; the 167 with i in (500, 999] add to its value
    // bytes, which the counter merge reads as a little-endian u64.
    let mut t = T::create(ramdisk(), T::counter_cfg()).unwrap();
    let (hot, base) = kv(500);
    for i in 0..1000 {
        let (k, v) = kv(i);
        t.insert(&k, &v).unwrap();
        if i % 3 == 0 {
            t.upsert(&hot, &1u64.to_le_bytes()).unwrap();
        }
    }
    let got = t.get(&hot).unwrap().unwrap();
    let n = u64::from_le_bytes(got[..8].try_into().unwrap());
    let base = u64::from_le_bytes(base[..8].try_into().unwrap());
    assert_eq!(n, base.wrapping_add(167));
}

// ----------------------------------------------------------------------
// Structure-specific contract checks
// ----------------------------------------------------------------------

/// `LsmTree::open` rejects every config `create` rejects, with `Config`,
/// before it reads anything.
#[test]
fn lsm_open_rejects_what_create_rejects() {
    let dev = ramdisk();
    let cfg = LsmTree::cfg(1 << 20);
    let mut t = LsmTree::create(dev.clone(), cfg).unwrap();
    insert_all(&mut t, 0..2000);
    t.sync().unwrap();
    drop(t);
    let invalid = [
        (
            "block_bytes < 64",
            LsmConfig {
                block_bytes: 32,
                ..cfg
            },
        ),
        (
            "sstable_bytes < block_bytes",
            LsmConfig {
                sstable_bytes: 511,
                ..cfg
            },
        ),
        (
            "level_ratio < 2",
            LsmConfig {
                level_ratio: 1,
                ..cfg
            },
        ),
        ("l0_limit < 1", LsmConfig { l0_limit: 0, ..cfg }),
        (
            "memtable_bytes < block_bytes",
            LsmConfig {
                memtable_bytes: 511,
                ..cfg
            },
        ),
    ];
    for (what, bad) in invalid {
        assert!(
            matches!(LsmTree::create(ramdisk(), bad), Err(KvError::Config(_))),
            "create with {what}"
        );
        assert!(
            matches!(LsmTree::open(dev.clone(), bad), Err(KvError::Config(_))),
            "open with {what}"
        );
    }
    let mut t = LsmTree::open(dev, cfg).unwrap();
    assert_eq!(t.len().unwrap(), 2000);
}
