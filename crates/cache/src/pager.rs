//! The buffer pool: variable-size cached objects over a device, with LRU
//! write-back eviction under a byte budget, pinning, and cost accounting.
//!
//! One [`Pager`] owns the simulated clock for its client: cache hits are
//! free, misses and write-backs advance `now` by the device's realized IO
//! latency. Experiment harnesses snapshot the counters around each
//! dictionary operation to attribute IO cost per op.

use crate::alloc::Allocator;
use crate::lru::LruList;
use dam_kv::codec::{CodecError, Reader, Writer};
use dam_storage::{IoError, SharedDevice, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Pager failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagerError {
    /// Device-level failure.
    Io(IoError),
    /// The device has no room for a new allocation.
    OutOfSpace,
    /// Everything in the cache is pinned; nothing can be evicted.
    OutOfCache,
    /// A cached object's size differs from the requested read size —
    /// a caller bug (stale offset or wrong node size).
    SizeMismatch {
        /// Offset of the object.
        offset: u64,
        /// Cached object size.
        cached: usize,
        /// Requested size.
        requested: usize,
    },
}

impl From<IoError> for PagerError {
    fn from(e: IoError) -> Self {
        PagerError::Io(e)
    }
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::Io(e) => write!(f, "io error: {e}"),
            PagerError::OutOfSpace => write!(f, "device out of space"),
            PagerError::OutOfCache => write!(f, "cache exhausted (all pages pinned)"),
            PagerError::SizeMismatch {
                offset,
                cached,
                requested,
            } => write!(
                f,
                "size mismatch at {offset}: cached {cached} vs requested {requested}"
            ),
        }
    }
}

impl std::error::Error for PagerError {}

/// A dictionary sees every pager failure as a storage error.
impl From<PagerError> for dam_kv::KvError {
    fn from(e: PagerError) -> Self {
        dam_kv::KvError::Storage(e.to_string())
    }
}

/// Cumulative pager counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerCounters {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (device reads).
    pub misses: u64,
    /// Evictions (clean or dirty).
    pub evictions: u64,
    /// Dirty evictions + flush writes that reached the device.
    pub writebacks: u64,
    /// Device IOs issued (misses + write-backs + bypasses).
    pub ios: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Simulated nanoseconds spent waiting on the device.
    pub io_time_ns: u64,
}

impl PagerCounters {
    fn sub(&self, earlier: &PagerCounters) -> PagerCounters {
        PagerCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            ios: self.ios - earlier.ios,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            io_time_ns: self.io_time_ns - earlier.io_time_ns,
        }
    }

    /// Hit rate over all cache lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Opaque snapshot for windowed cost measurement.
#[derive(Debug, Clone, Copy)]
pub struct CostSnapshot(PagerCounters);

struct PageEntry {
    offset: u64,
    data: Vec<u8>,
    dirty: bool,
    pins: u32,
}

/// Byte-budgeted LRU write-back buffer pool (see module docs).
pub struct Pager {
    dev: SharedDevice,
    budget: u64,
    used: u64,
    map: BTreeMap<u64, u32>,
    lru: LruList,
    slots: Vec<Option<PageEntry>>,
    alloc: Allocator,
    now: SimTime,
    counters: PagerCounters,
}

impl Pager {
    /// A pager over `dev` with a cache budget of `cache_bytes`; the first
    /// `reserved` device bytes are left to the caller (superblock).
    pub fn new(dev: SharedDevice, cache_bytes: u64, reserved: u64) -> Self {
        let capacity = dev.capacity_bytes();
        Pager {
            dev,
            budget: cache_bytes,
            used: 0,
            map: BTreeMap::new(),
            lru: LruList::new(),
            slots: Vec::new(),
            alloc: Allocator::new(capacity, reserved),
            now: SimTime::ZERO,
            counters: PagerCounters::default(),
        }
    }

    /// Current simulated time as seen by this pager's client.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock (model CPU work between IOs).
    pub fn advance_time(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Cache budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Cumulative counters.
    pub fn counters(&self) -> PagerCounters {
        self.counters
    }

    /// Snapshot for [`Pager::cost_since`].
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot(self.counters)
    }

    /// Counter deltas since a snapshot.
    pub fn cost_since(&self, snap: &CostSnapshot) -> PagerCounters {
        self.counters.sub(&snap.0)
    }

    /// The underlying device handle.
    pub fn device(&self) -> &SharedDevice {
        &self.dev
    }

    /// Allocate `len` bytes of device space.
    pub fn alloc(&mut self, len: u64) -> Result<u64, PagerError> {
        self.alloc.alloc(len).ok_or(PagerError::OutOfSpace)
    }

    /// Free device space and discard any cached copy (without write-back —
    /// the object is dead).
    pub fn free(&mut self, offset: u64, len: u64) {
        self.discard(offset);
        self.alloc.free(offset, len);
    }

    /// Bytes of live allocations on the device.
    pub fn live_bytes(&self) -> u64 {
        self.alloc.live_bytes()
    }

    /// Append the allocator state to a superblock or manifest: the
    /// high-water mark, then each free list as its extent length and
    /// offsets.
    pub fn write_alloc(&self, w: &mut Writer) {
        let (high_water, free) = self.alloc.export_state();
        w.put_u64(high_water);
        w.put_u32(free.len() as u32);
        for (len, offs) in &free {
            w.put_u64(*len);
            w.put_u32(offs.len() as u32);
            for &o in offs {
                w.put_u64(o);
            }
        }
    }

    /// Restore allocator state written by [`Pager::write_alloc`]; the
    /// `reserved` value must match the one this pager was built with.
    pub fn read_alloc(&mut self, r: &mut Reader<'_>, reserved: u64) -> Result<(), CodecError> {
        let high_water = r.get_u64()?;
        let nfree = r.get_u32()? as usize;
        let mut free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            let len = r.get_u64()?;
            let k = r.get_u32()? as usize;
            let mut offs = Vec::with_capacity(k);
            for _ in 0..k {
                offs.push(r.get_u64()?);
            }
            free.push((len, offs));
        }
        self.alloc.restore_state(high_water, free, reserved);
        Ok(())
    }

    /// Drop a cached object without writing it back.
    pub fn discard(&mut self, offset: u64) {
        if let Some(slot) = self.map.remove(&offset) {
            let entry = self.slots[slot as usize]
                .take()
                .expect("mapped slot must be live");
            self.used -= entry.data.len() as u64;
            self.lru.remove(slot);
        }
    }

    /// Drop every cached object whose offset lies in `[offset, offset+len)`,
    /// except an exact match at `offset`. Used to keep nested objects
    /// (sub-range reads of a larger object) coherent when the enclosing
    /// object is re-read or rewritten.
    pub fn discard_range_contained(&mut self, offset: u64, len: u64) {
        let victims: Vec<u64> = self
            .map
            .range(offset..offset.saturating_add(len))
            .map(|(&o, _)| o)
            .filter(|&o| o != offset)
            .collect();
        for o in victims {
            self.discard(o);
        }
    }

    fn ensure_slot(&mut self, id: u32) {
        if self.slots.len() <= id as usize {
            self.slots.resize_with(id as usize + 1, || None);
        }
    }

    /// Evict until `incoming` more bytes fit, skipping pinned entries.
    fn make_room(&mut self, incoming: u64) -> Result<(), PagerError> {
        while self.used + incoming > self.budget {
            // Walk from LRU toward MRU until an unpinned entry is found.
            let mut candidate = self.lru.peek_lru();
            loop {
                match candidate {
                    None => return Err(PagerError::OutOfCache),
                    Some(slot) => {
                        let pinned = self.slots[slot as usize]
                            .as_ref()
                            .expect("lru slot must be live")
                            .pins
                            > 0;
                        if pinned {
                            candidate = self.lru.next_more_recent(slot);
                        } else {
                            break;
                        }
                    }
                }
            }
            let slot = candidate.expect("loop exits with Some");
            let entry = self.slots[slot as usize]
                .take()
                .expect("lru slot must be live");
            self.map.remove(&entry.offset);
            self.lru.remove(slot);
            self.used -= entry.data.len() as u64;
            if entry.dirty {
                if let Err(e) = self.device_write(entry.offset, &entry.data) {
                    // The cache holds the only copy of a dirty object;
                    // discarding it on a failed writeback would silently
                    // lose acknowledged writes. Reinstate the victim (at
                    // MRU, so the next attempt tries a different one) and
                    // surface the error.
                    let slot = self.lru.push_front();
                    self.ensure_slot(slot);
                    self.used += entry.data.len() as u64;
                    self.map.insert(entry.offset, slot);
                    self.slots[slot as usize] = Some(entry);
                    return Err(e);
                }
                self.counters.writebacks += 1;
            }
            self.counters.evictions += 1;
        }
        Ok(())
    }

    fn device_write(&mut self, offset: u64, data: &[u8]) -> Result<(), PagerError> {
        let c = self.dev.write(offset, data, self.now)?;
        self.counters.ios += 1;
        self.counters.bytes_written += data.len() as u64;
        self.counters.io_time_ns += (c.complete - self.now).0;
        self.now = c.complete;
        Ok(())
    }

    fn device_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), PagerError> {
        let c = self.dev.read(offset, buf, self.now)?;
        self.counters.ios += 1;
        self.counters.bytes_read += buf.len() as u64;
        self.counters.io_time_ns += (c.complete - self.now).0;
        self.now = c.complete;
        Ok(())
    }

    fn insert_entry(&mut self, offset: u64, data: Vec<u8>, dirty: bool) -> Result<(), PagerError> {
        debug_assert!(!self.map.contains_key(&offset));
        // Insert first, evict after: the cache must accept the object even
        // when making room fails (e.g. a writeback hits a device fault), so
        // a surfaced error never means a half-applied write. The budget may
        // be exceeded transiently; the next make_room restores it.
        let slot = self.lru.push_front();
        self.ensure_slot(slot);
        self.used += data.len() as u64;
        self.slots[slot as usize] = Some(PageEntry {
            offset,
            data,
            dirty,
            pins: 0,
        });
        self.map.insert(offset, slot);
        if self.used > self.budget {
            // Never evict the object just inserted.
            self.slots[slot as usize]
                .as_mut()
                .expect("just inserted")
                .pins += 1;
            let room = self.make_room(0);
            self.slots[slot as usize]
                .as_mut()
                .expect("just inserted")
                .pins -= 1;
            room?;
        }
        Ok(())
    }

    /// Read `len` bytes at `offset` (a whole object, as written). Hits are
    /// free; misses charge device time and cache the object.
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, PagerError> {
        if let Some(&slot) = self.map.get(&offset) {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            if entry.data.len() != len {
                // A clean object of a different size is a stale sub-range
                // view (a segment cached at the enclosing object's base
                // offset): discard it and fall through to a device read.
                // A dirty mismatch is a caller bug — losing it would lose
                // writes.
                if entry.dirty {
                    return Err(PagerError::SizeMismatch {
                        offset,
                        cached: entry.data.len(),
                        requested: len,
                    });
                }
                self.discard(offset);
            } else {
                self.counters.hits += 1;
                self.lru.touch(slot);
                return Ok(self.slots[slot as usize]
                    .as_ref()
                    .expect("just checked")
                    .data
                    .clone());
            }
        }
        let mut buf = vec![0u8; len];
        self.device_read(offset, &mut buf)?;
        self.counters.misses += 1;
        if (len as u64) <= self.budget {
            // Any cached sub-objects inside this range are clean copies of
            // device state; the whole object supersedes them.
            self.discard_range_contained(offset, len as u64);
            self.insert_entry(offset, buf.clone(), false)?;
        }
        Ok(buf)
    }

    /// Read a sub-range `[sub_off, sub_off + sub_len)` of a larger object of
    /// `base_len` bytes at `base`.
    ///
    /// This models partial node reads (Theorem 9's segment reads, §8's
    /// block-at-a-time vEB walks): if the whole object is cached, the read
    /// is a hit; otherwise only `sub_len` bytes are fetched from the device
    /// — a *small* IO — and cached as a read-only sub-object that is
    /// invalidated whenever the enclosing object is rewritten or re-read.
    ///
    /// `sub_off` is relative to `base`.
    pub fn read_within(
        &mut self,
        base: u64,
        base_len: usize,
        sub_off: usize,
        sub_len: usize,
    ) -> Result<Vec<u8>, PagerError> {
        assert!(
            sub_off + sub_len <= base_len,
            "sub-range escapes the object"
        );
        // Whole object cached (possibly dirty): serve from it.
        if let Some(&slot) = self.map.get(&base) {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            if entry.data.len() == base_len {
                self.counters.hits += 1;
                self.lru.touch(slot);
                let entry = self.slots[slot as usize].as_ref().expect("just checked");
                return Ok(entry.data[sub_off..sub_off + sub_len].to_vec());
            }
        }
        // Sub-object cached from an earlier partial read.
        let abs = base + sub_off as u64;
        if let Some(&slot) = self.map.get(&abs) {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            if entry.data.len() == sub_len && !entry.dirty {
                self.counters.hits += 1;
                self.lru.touch(slot);
                let entry = self.slots[slot as usize].as_ref().expect("just checked");
                return Ok(entry.data.clone());
            }
        }
        // Miss: fetch only the sub-range.
        let mut buf = vec![0u8; sub_len];
        self.device_read(abs, &mut buf)?;
        self.counters.misses += 1;
        if (sub_len as u64) <= self.budget && !self.map.contains_key(&abs) {
            self.insert_entry(abs, buf.clone(), false)?;
        }
        Ok(buf)
    }

    /// Write an object into the cache (dirty); it reaches the device on
    /// eviction or flush. Objects larger than the cache write through.
    ///
    /// Cached sub-objects inside the written range become stale and are
    /// discarded.
    pub fn write(&mut self, offset: u64, data: Vec<u8>) -> Result<(), PagerError> {
        self.discard_range_contained(offset, data.len() as u64);
        if let Some(&slot) = self.map.get(&offset) {
            let entry = self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live");
            self.used = self.used - entry.data.len() as u64 + data.len() as u64;
            entry.data = data;
            entry.dirty = true;
            self.lru.touch(slot);
            // Replacing with a larger object can overflow the budget; evict
            // others to restore the invariant.
            self.make_room(0)?;
            return Ok(());
        }
        if data.len() as u64 > self.budget {
            return self.device_write(offset, &data);
        }
        self.insert_entry(offset, data, true)
    }

    /// Write an object straight to the device (charging the IO now) and
    /// cache a *clean* copy. Models durable writes — an LSM fsyncs each
    /// SSTable at build time, unlike the write-back node updates of the
    /// trees.
    pub fn write_through(&mut self, offset: u64, data: Vec<u8>) -> Result<(), PagerError> {
        self.discard_range_contained(offset, data.len() as u64);
        self.device_write(offset, &data)?;
        if let Some(&slot) = self.map.get(&offset) {
            let entry = self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live");
            self.used = self.used - entry.data.len() as u64 + data.len() as u64;
            entry.data = data;
            entry.dirty = false;
            self.lru.touch(slot);
            self.make_room(0)?;
            return Ok(());
        }
        if data.len() as u64 <= self.budget {
            self.insert_entry(offset, data, false)?;
        }
        Ok(())
    }

    /// Pin a cached object (prevents eviction). Returns false if not cached.
    pub fn pin(&mut self, offset: u64) -> bool {
        if let Some(&slot) = self.map.get(&offset) {
            self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live")
                .pins += 1;
            true
        } else {
            false
        }
    }

    /// Release a pin.
    pub fn unpin(&mut self, offset: u64) {
        if let Some(&slot) = self.map.get(&offset) {
            let e = self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live");
            assert!(e.pins > 0, "unpin without pin");
            e.pins -= 1;
        }
    }

    /// Write every dirty object to the device, keeping contents cached.
    pub fn flush(&mut self) -> Result<(), PagerError> {
        // Deterministic order: by offset.
        let mut dirty: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, &slot)| {
                self.slots[slot as usize]
                    .as_ref()
                    .expect("mapped slot must be live")
                    .dirty
            })
            .map(|(&off, _)| off)
            .collect();
        dirty.sort_unstable();
        for off in dirty {
            let slot = self.map[&off];
            let data = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live")
                .data
                .clone();
            self.device_write(off, &data)?;
            self.counters.writebacks += 1;
            self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live")
                .dirty = false;
        }
        Ok(())
    }

    /// Flush then empty the cache — the "cold cache" reset used between
    /// experiment phases.
    pub fn drop_cache(&mut self) -> Result<(), PagerError> {
        self.flush()?;
        let offsets: Vec<u64> = self.map.keys().copied().collect();
        for off in offsets {
            self.discard(off);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_storage::{FaultInjector, FaultMode, RamDisk};

    fn pager(cache: u64) -> Pager {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 20, SimDuration(1000))));
        Pager::new(dev, cache, 0)
    }

    #[test]
    fn alloc_state_roundtrip() {
        let mut p = Pager::new(pager(0).device().clone(), 1 << 16, 128);
        let a = p.alloc(100).unwrap();
        p.alloc(200).unwrap();
        p.free(a, 100);
        let mut w = Writer::new();
        p.write_alloc(&mut w);
        let bytes = w.into_bytes();

        let mut q = Pager::new(p.device().clone(), 1 << 16, 128);
        q.read_alloc(&mut Reader::new(&bytes), 128).unwrap();
        let mut again = Writer::new();
        q.write_alloc(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(q.live_bytes(), p.live_bytes());
        assert_eq!(q.alloc(100).unwrap(), a, "the freed extent is reused");
    }

    #[test]
    fn write_then_read_hits_cache() {
        let mut p = pager(10_000);
        let off = p.alloc(100).unwrap();
        p.write(off, vec![7; 100]).unwrap();
        let data = p.read(off, 100).unwrap();
        assert_eq!(data, vec![7; 100]);
        let c = p.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 0);
        // No device IO yet: write-back caching.
        assert_eq!(c.ios, 0);
        assert_eq!(p.now(), SimTime::ZERO);
    }

    #[test]
    fn eviction_writes_back_and_read_misses() {
        let mut p = pager(250);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        p.write(c, vec![3; 100]).unwrap(); // evicts a (dirty)
        let counters = p.counters();
        assert_eq!(counters.evictions, 1);
        assert_eq!(counters.writebacks, 1);
        assert!(p.used() <= 250);
        // Reading a again misses and fetches the written-back bytes.
        let data = p.read(a, 100).unwrap();
        assert_eq!(data, vec![1; 100]);
        assert_eq!(p.counters().misses, 1);
        assert!(p.now() > SimTime::ZERO);
    }

    #[test]
    fn lru_order_decides_victim() {
        let mut p = pager(250);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        // Touch a so b is the LRU.
        p.read(a, 100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(c, vec![3; 100]).unwrap();
        // a must still be cached (hit), b evicted (miss).
        let before = p.counters().misses;
        p.read(a, 100).unwrap();
        assert_eq!(p.counters().misses, before);
        p.read(b, 100).unwrap();
        assert_eq!(p.counters().misses, before + 1);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut p = pager(250);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        assert!(p.pin(a));
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        p.write(c, vec![3; 100]).unwrap(); // must evict b, not pinned a
        let before = p.counters().misses;
        p.read(a, 100).unwrap();
        assert_eq!(
            p.counters().misses,
            before,
            "pinned page must still be cached"
        );
        p.unpin(a);
    }

    #[test]
    fn all_pinned_errors_out() {
        let mut p = pager(200);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        p.pin(a);
        p.pin(b);
        let c = p.alloc(100).unwrap();
        assert_eq!(p.write(c, vec![3; 100]), Err(PagerError::OutOfCache));
    }

    #[test]
    fn flush_persists_and_cleans() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![9; 100]).unwrap();
        p.flush().unwrap();
        assert_eq!(p.counters().writebacks, 1);
        // Second flush: nothing dirty.
        p.flush().unwrap();
        assert_eq!(p.counters().writebacks, 1);
        // Still cached.
        p.read(a, 100).unwrap();
        assert_eq!(p.counters().hits, 1);
    }

    #[test]
    fn drop_cache_forces_cold_reads() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![5; 100]).unwrap();
        p.drop_cache().unwrap();
        assert_eq!(p.used(), 0);
        let data = p.read(a, 100).unwrap();
        assert_eq!(data, vec![5; 100]);
        assert_eq!(p.counters().misses, 1);
    }

    #[test]
    fn discard_drops_dirty_data_without_writeback() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![5; 100]).unwrap();
        p.free(a, 100);
        assert_eq!(p.counters().writebacks, 0);
        assert_eq!(p.used(), 0);
        // Space is reusable.
        let b = p.alloc(100).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn size_mismatch_detected() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        assert!(matches!(
            p.read(a, 50),
            Err(PagerError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn oversized_object_bypasses_cache() {
        let mut p = pager(100);
        let a = p.alloc(500).unwrap();
        p.write(a, vec![3; 500]).unwrap(); // write-through
        assert_eq!(p.used(), 0);
        assert_eq!(p.counters().ios, 1);
        let data = p.read(a, 500).unwrap(); // read, not cached
        assert_eq!(data, vec![3; 500]);
        assert_eq!(p.used(), 0);
        assert_eq!(p.counters().misses, 1);
    }

    #[test]
    fn rewrite_in_place_updates_size_accounting() {
        let mut p = pager(1000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        assert_eq!(p.used(), 100);
        p.write(a, vec![2; 400]).unwrap();
        assert_eq!(p.used(), 400);
        assert_eq!(p.read(a, 400).unwrap(), vec![2; 400]);
    }

    #[test]
    fn cost_snapshot_windows() {
        let mut p = pager(100); // tiny cache: everything misses
        let a = p.alloc(80).unwrap();
        p.write(a, vec![1; 80]).unwrap();
        let snap = p.snapshot();
        let b = p.alloc(80).unwrap();
        p.write(b, vec![2; 80]).unwrap(); // evicts a → writeback
        p.read(a, 80).unwrap(); // evicts b → writeback, then miss-read a
        let delta = p.cost_since(&snap);
        assert_eq!(delta.misses, 1);
        assert!(delta.writebacks >= 1);
        assert!(delta.io_time_ns > 0);
    }

    #[test]
    fn read_within_hits_cached_whole_object() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        let mut img = vec![0u8; 400];
        img[100..200].fill(7);
        p.write(a, img).unwrap();
        // Whole object is cached (dirty): segment read is a hit and sees
        // the unflushed bytes.
        let seg = p.read_within(a, 400, 100, 100).unwrap();
        assert_eq!(seg, vec![7; 100]);
        assert_eq!(p.counters().misses, 0);
        assert_eq!(p.counters().ios, 0);
    }

    #[test]
    fn read_within_cold_fetches_only_segment() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        let mut img = vec![0u8; 400];
        img[300..].fill(9);
        p.write(a, img).unwrap();
        p.drop_cache().unwrap();
        let snap = p.snapshot();
        let seg = p.read_within(a, 400, 300, 100).unwrap();
        assert_eq!(seg, vec![9; 100]);
        let d = p.cost_since(&snap);
        assert_eq!(d.bytes_read, 100, "only the segment is fetched");
        assert_eq!(d.misses, 1);
        // Repeat is a hit on the cached sub-object.
        p.read_within(a, 400, 300, 100).unwrap();
        assert_eq!(p.cost_since(&snap).hits, 1);
    }

    #[test]
    fn whole_write_invalidates_sub_objects() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![1; 400]).unwrap();
        p.drop_cache().unwrap();
        // Cache a stale-to-be segment.
        let seg = p.read_within(a, 400, 0, 100).unwrap();
        assert_eq!(seg, vec![1; 100]);
        // Rewrite the whole object.
        p.write(a, vec![2; 400]).unwrap();
        let seg = p.read_within(a, 400, 0, 100).unwrap();
        assert_eq!(
            seg,
            vec![2; 100],
            "stale sub-object must have been discarded"
        );
    }

    #[test]
    fn whole_read_supersedes_sub_objects() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![3; 400]).unwrap();
        p.drop_cache().unwrap();
        p.read_within(a, 400, 100, 50).unwrap(); // cache a sub-object
        let whole = p.read(a, 400).unwrap(); // re-read whole
        assert_eq!(whole, vec![3; 400]);
        // Sub-object entry was dropped; segment reads now hit the whole.
        let before = p.counters().hits;
        p.read_within(a, 400, 100, 50).unwrap();
        assert_eq!(p.counters().hits, before + 1);
    }

    #[test]
    fn failed_writeback_reinstates_dirty_victim() {
        // Regression: a dirty victim whose writeback fails used to be
        // dropped from the cache, silently losing acknowledged writes.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 20, SimDuration(1000)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut p = Pager::new(dev, 250, 0);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        switch.set(FaultMode::Writes);
        // Inserting c forces an eviction whose writeback fails. The error
        // surfaces, but neither the victim nor the new write may be lost.
        assert!(p.write(c, vec![3; 100]).is_err());
        switch.set(FaultMode::None);
        for (off, byte) in [(a, 1u8), (b, 2), (c, 3)] {
            assert_eq!(p.read(off, 100).unwrap(), vec![byte; 100]);
        }
    }

    #[test]
    fn failed_eviction_does_not_drop_overwrite() {
        // Regression: an overwrite hit used to surface the eviction error
        // without having applied the new bytes, leaving callers unable to
        // tell whether the write landed. Writes now always apply to the
        // cache; the error covers only the eviction writeback.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 20, SimDuration(1000)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut p = Pager::new(dev, 250, 0);
        let a = p.alloc(200).unwrap();
        let b = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        switch.set(FaultMode::Writes);
        // Growing `a` to its full allocation exceeds the budget; the
        // eviction writeback fails but the new bytes must stick.
        assert!(p.write(a, vec![9; 200]).is_err());
        switch.set(FaultMode::None);
        assert_eq!(p.read(a, 200).unwrap(), vec![9; 200]);
        assert_eq!(p.read(b, 100).unwrap(), vec![2; 100]);
    }

    #[test]
    fn hit_rate_computation() {
        let c = PagerCounters {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PagerCounters::default().hit_rate(), 0.0);
    }
}
