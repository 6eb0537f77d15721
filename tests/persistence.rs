//! Persistence across structures: each superblock or manifest opens only
//! as its own kind. Reopen cycles for every dictionary are a case of the
//! shared contract in `tests/dictionary_contract.rs`.

use refined_dam::prelude::*;

fn ramdisk() -> SharedDevice {
    SharedDevice::new(Box::new(RamDisk::new(1 << 27, SimDuration(500))))
}

#[test]
fn superblock_kinds_do_not_cross_open() {
    // A persisted B-tree must not open as a Bε-tree, and vice versa.
    let dev = ramdisk();
    let mut bt = BTree::create(dev.clone(), BTreeConfig::new(1024, 1 << 16)).unwrap();
    bt.insert(b"k", b"v").unwrap();
    bt.persist().unwrap();
    drop(bt);
    assert!(matches!(
        BeTree::open(dev.clone(), BeTreeConfig::new(1024, 4, 1 << 16)),
        Err(KvError::Corrupt(_))
    ));
    assert!(matches!(
        OptBeTree::open(dev, OptConfig::new(4, 512, 1 << 16)),
        Err(KvError::Corrupt(_))
    ));
}
