//! Property test: a bulk-loaded B-tree holds exactly the pairs it was given,
//! with its structural invariants intact. The model check every dictionary
//! shares lives in `tests/dictionary_contract.rs`.

use dam_btree::{BTree, BTreeConfig};
use dam_kv::{key_from_u64, Dictionary};
use dam_stats::prop::vec;
use dam_stats::property;
use dam_storage::{RamDisk, SharedDevice, SimDuration};
use std::collections::BTreeSet;

fn value_for(v: u8) -> Vec<u8> {
    vec![v; 10 + (v as usize % 20)]
}

property! {
    cases = 48, rng = r;

    #[test]
    fn bulk_load_equals_map(
        keys in vec(r, 0..500, |r| r.next_u64() as u32).into_iter().collect::<BTreeSet<_>>(),
    ) {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .map(|&k| (key_from_u64(k as u64).to_vec(), value_for(k as u8)))
            .collect();
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut tree = BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 16), pairs.clone()).unwrap();
        assert_eq!(tree.check_invariants().unwrap(), pairs.len() as u64);
        for (k, v) in &pairs {
            let got = tree.get(k).unwrap();
            assert_eq!(got.as_ref(), Some(v));
        }
    }
}
