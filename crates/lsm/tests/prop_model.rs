//! Property test: heavy compaction (tiny memtable, `l0_limit = 1`, ratio 2)
//! preserves every key. The model check every dictionary shares lives in
//! `tests/dictionary_contract.rs`.

use dam_kv::{key_from_u64, Dictionary};
use dam_lsm::{LsmConfig, LsmTree};
use dam_stats::prop::vec;
use dam_stats::property;
use dam_storage::{RamDisk, SharedDevice, SimDuration};
use std::collections::BTreeMap;

fn value_for(v: u8) -> Vec<u8> {
    vec![v; 8 + (v as usize % 24)]
}

property! {
    cases = 40, rng = r;

    #[test]
    fn compaction_preserves_everything(
        keys in vec(r, 1..400, |r| (r.next_u64() as u16, r.byte())).into_iter().collect::<BTreeMap<_, _>>(),
    ) {
        // Insert enough duplicates/volume to force several compactions,
        // then verify exact content.
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut cfg = LsmConfig::new(512, 1 << 16);
        cfg.memtable_bytes = 256;
        cfg.block_bytes = 128;
        cfg.level_ratio = 2;
        cfg.l0_limit = 1;
        let mut tree = LsmTree::create(dev, cfg).unwrap();
        for (&k, &v) in &keys {
            tree.insert(&key_from_u64(k as u64), &value_for(v)).unwrap();
        }
        for (&k, &v) in &keys {
            let got = tree.get(&key_from_u64(k as u64)).unwrap();
            assert_eq!(got, Some(value_for(v)), "key {}", k);
        }
        assert_eq!(tree.len().unwrap(), keys.len() as u64);
    }
}
