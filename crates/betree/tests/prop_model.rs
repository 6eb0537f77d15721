//! Property tests: counter upserts on both Bε-tree variants match an exact
//! model under arbitrary flush schedules. The model check every dictionary
//! shares lives in `tests/dictionary_contract.rs`.

use dam_betree::{BeTree, BeTreeConfig, OptBeTree, OptConfig};
use dam_kv::msg::CounterMerge;
use dam_kv::{key_from_u64, Dictionary};
use dam_stats::prop::vec;
use dam_stats::{property, SplitMix64};
use dam_storage::{RamDisk, SharedDevice, SimDuration};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Add(u8, u8),
    Put(u8, u64),
    Delete(u8),
    Get(u8),
    Drain,
}

/// Weights 5:2:1:2:1 over a 64-key space.
fn gen_op(r: &mut SplitMix64) -> Op {
    let k = r.below(64) as u8;
    match r.below(11) {
        0..=4 => Op::Add(k, r.byte()),
        5..=6 => Op::Put(k, r.next_u64()),
        7 => Op::Delete(k),
        8..=9 => Op::Get(k),
        _ => Op::Drain,
    }
}

/// Drive a tree and an exact counter model (Put sets, Add increments
/// from 0 when absent, Delete removes) through the same ops.
fn run_case<T, U>(mut tree: T, ops: Vec<Op>, upsert: U, drain: impl Fn(&mut T))
where
    T: Dictionary,
    U: Fn(&mut T, &[u8], u64),
{
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in &ops {
        match *op {
            Op::Add(k, d) => {
                let key = key_from_u64(k as u64);
                upsert(&mut tree, &key, d as u64);
                *model.entry(k as u64).or_insert(0) = model
                    .get(&(k as u64))
                    .copied()
                    .unwrap_or(0)
                    .wrapping_add(d as u64);
            }
            Op::Put(k, v) => {
                let key = key_from_u64(k as u64);
                tree.insert(&key, &v.to_le_bytes()).unwrap();
                model.insert(k as u64, v);
            }
            Op::Delete(k) => {
                tree.delete(&key_from_u64(k as u64)).unwrap();
                model.remove(&(k as u64));
            }
            Op::Get(k) => {
                let got = tree
                    .get(&key_from_u64(k as u64))
                    .unwrap()
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()));
                assert_eq!(got, model.get(&(k as u64)).copied(), "key {k}");
            }
            Op::Drain => drain(&mut tree),
        }
    }
    for (&k, &v) in &model {
        let got = tree
            .get(&key_from_u64(k))
            .unwrap()
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()));
        assert_eq!(got, Some(v), "final check key {k}");
    }
}

property! {
    cases = 32, rng = r;

    #[test]
    fn standard_counter_upserts_match_model(ops in vec(r, 1..200, gen_op)) {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut cfg = BeTreeConfig::new(512, 3, 1 << 16);
        cfg.merge = Box::new(CounterMerge);
        let tree = BeTree::create(dev, cfg).unwrap();
        run_case(
            tree,
            ops,
            |t, k, d| t.upsert(k, &d.to_le_bytes()).unwrap(),
            |t| t.drain_all().unwrap(),
        );
    }

    #[test]
    fn optimized_counter_upserts_match_model(ops in vec(r, 1..200, gen_op)) {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut cfg = OptConfig::new(3, 384, 1 << 16);
        cfg.merge = Box::new(CounterMerge);
        let tree = OptBeTree::create(dev, cfg).unwrap();
        run_case(
            tree,
            ops,
            |t, k, d| t.upsert(k, &d.to_le_bytes()).unwrap(),
            |t| t.drain_all().unwrap(),
        );
    }
}
