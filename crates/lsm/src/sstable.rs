//! SSTables: immutable sorted runs of `(key, value-or-tombstone)` entries,
//! stored as a sequence of fixed-target-size blocks with an in-memory
//! block index (first key + extent per block).
//!
//! The data region is one contiguous device extent: it is written with a
//! single IO and point reads fetch single blocks through
//! [`dam_cache::Pager::read_within`].

use dam_cache::Pager;
use dam_kv::codec::{frame, unframe, CodecError, Reader, Writer};
use dam_kv::KvError;

/// One entry in a run: `None` is a tombstone.
pub type RunEntry = (Vec<u8>, Option<Vec<u8>>);

/// Index record for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// First key in the block.
    pub first_key: Vec<u8>,
    /// Offset of the block within the table's data region.
    pub offset: u32,
    /// Encoded length of the block.
    pub len: u32,
}

/// An immutable on-device sorted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsTable {
    /// Device offset of the data region.
    pub base: u64,
    /// Total data-region bytes (the allocation size).
    pub data_len: u64,
    /// Block index, ascending by `first_key`.
    pub blocks: Vec<BlockMeta>,
    /// Smallest key in the table.
    pub min_key: Vec<u8>,
    /// Largest key in the table.
    pub max_key: Vec<u8>,
    /// Number of entries (including tombstones).
    pub entries: u64,
    /// Creation stamp; larger = newer (orders overlapping L0 runs).
    pub stamp: u64,
}

fn map_codec(e: CodecError) -> KvError {
    KvError::Corrupt(e.to_string())
}

fn encode_block(entries: &[RunEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(entries.len() as u32);
    for (k, v) in entries {
        w.put_bytes(k);
        match v {
            Some(v) => {
                w.put_u8(1);
                w.put_bytes(v);
            }
            None => w.put_u8(0),
        }
    }
    w.into_bytes()
}

fn decode_block(buf: &[u8]) -> Result<Vec<RunEntry>, CodecError> {
    let mut r = Reader::new(buf);
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.get_bytes()?.to_vec();
        let v = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_bytes()?.to_vec()),
            _ => return Err(CodecError::Invalid("unknown entry tag")),
        };
        out.push((k, v));
    }
    Ok(out)
}

impl SsTable {
    /// Entry footprint inside a block.
    pub fn entry_bytes(k: &[u8], v: &Option<Vec<u8>>) -> usize {
        4 + k.len() + 1 + v.as_ref().map_or(0, |v| 4 + v.len())
    }

    /// Build an SSTable from ascending entries: pack blocks of
    /// ~`block_bytes`, allocate one extent, and write the whole data region
    /// in a single IO.
    pub fn build(
        pager: &mut Pager,
        block_bytes: usize,
        entries: Vec<RunEntry>,
        stamp: u64,
    ) -> Result<SsTable, KvError> {
        assert!(!entries.is_empty(), "empty SSTable");
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries not ascending"
        );
        let min_key = entries[0].0.clone();
        let max_key = entries.last().expect("nonempty").0.clone();
        let n = entries.len() as u64;

        // Pack into blocks.
        let mut blocks = Vec::new();
        let mut image = Vec::new();
        let mut cur: Vec<RunEntry> = Vec::new();
        let mut cur_bytes = 4usize;
        let flush = |cur: &mut Vec<RunEntry>, image: &mut Vec<u8>, blocks: &mut Vec<BlockMeta>| {
            if cur.is_empty() {
                return;
            }
            let first_key = cur[0].0.clone();
            // Each block carries its own checksummed frame so single-block
            // point reads validate independently; the index records the
            // framed extent.
            let framed = frame(&encode_block(cur));
            blocks.push(BlockMeta {
                first_key,
                offset: image.len() as u32,
                len: framed.len() as u32,
            });
            image.extend_from_slice(&framed);
            cur.clear();
        };
        for (k, v) in entries {
            let sz = Self::entry_bytes(&k, &v);
            if !cur.is_empty() && cur_bytes + sz > block_bytes {
                flush(&mut cur, &mut image, &mut blocks);
                cur_bytes = 4;
            }
            cur_bytes += sz;
            cur.push((k, v));
        }
        flush(&mut cur, &mut image, &mut blocks);

        let data_len = image.len() as u64;
        let base = pager.alloc(data_len)?;
        // One sequential *durable* write for the whole table — the LSM's
        // write pattern (LevelDB fsyncs each SSTable), and the reason large
        // SSTables amortize the setup cost.
        if let Err(e) = pager.write_through(base, image) {
            // Don't leak the extent on a failed write; the caller may
            // retry the whole build once the fault clears.
            pager.free(base, data_len);
            return Err(e.into());
        }
        Ok(SsTable {
            base,
            data_len,
            blocks,
            min_key,
            max_key,
            entries: n,
            stamp,
        })
    }

    /// Free the table's extent (after compaction).
    pub fn destroy(&self, pager: &mut Pager) {
        pager.free(self.base, self.data_len);
    }

    /// Whether `key` can be in this table's range.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }

    /// Whether this table overlaps the key range `[lo, hi]` of another.
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        !(self.max_key.as_slice() < lo || hi < self.min_key.as_slice())
    }

    /// Whether this table overlaps `[lo, hi)` where `hi = None` means
    /// unbounded above. Used by scans that must see *every* key, including
    /// keys that sort above any finite sentinel.
    pub fn overlaps_open(&self, lo: &[u8], hi: Option<&[u8]>) -> bool {
        if self.max_key.as_slice() < lo {
            return false;
        }
        match hi {
            Some(h) => self.min_key.as_slice() < h,
            None => true,
        }
    }

    fn block_index_for(&self, key: &[u8]) -> usize {
        // Last block whose first_key <= key.
        self.blocks
            .partition_point(|b| b.first_key.as_slice() <= key)
            .saturating_sub(1)
    }

    /// Read and decode block `i` (one sub-range IO / cache hit).
    pub fn read_block(&self, pager: &mut Pager, i: usize) -> Result<Vec<RunEntry>, KvError> {
        let b = &self.blocks[i];
        let buf = pager.read_within(
            self.base,
            self.data_len as usize,
            b.offset as usize,
            b.len as usize,
        )?;
        let payload = unframe(&buf).map_err(map_codec)?;
        decode_block(payload).map_err(map_codec)
    }

    /// Point lookup. `Ok(None)` = key absent from this table;
    /// `Ok(Some(None))` = tombstone.
    #[allow(clippy::type_complexity)]
    pub fn get(&self, pager: &mut Pager, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, KvError> {
        if !self.covers(key) {
            return Ok(None);
        }
        let entries = self.read_block(pager, self.block_index_for(key))?;
        Ok(entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| entries[i].1.clone()))
    }

    /// All entries with `start <= key < end`, reading only overlapping
    /// blocks.
    pub fn scan(
        &self,
        pager: &mut Pager,
        start: &[u8],
        end: &[u8],
    ) -> Result<Vec<RunEntry>, KvError> {
        if end <= start {
            return Ok(Vec::new());
        }
        self.scan_open(pager, start, Some(end))
    }

    /// All entries with `start <= key < end`, where `end = None` means
    /// unbounded above (scan to the last key of the table).
    pub fn scan_open(
        &self,
        pager: &mut Pager,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<RunEntry>, KvError> {
        let mut out = Vec::new();
        if self.blocks.is_empty() {
            return Ok(out);
        }
        let first = self.block_index_for(start);
        for i in first..self.blocks.len() {
            if i > first && end.is_some_and(|e| self.blocks[i].first_key.as_slice() >= e) {
                break;
            }
            let entries = self.read_block(pager, i)?;
            for (k, v) in entries {
                if k.as_slice() < start {
                    continue;
                }
                if end.is_some_and(|e| k.as_slice() >= e) {
                    return Ok(out);
                }
                out.push((k, v));
            }
        }
        Ok(out)
    }

    /// Read the entire table in block order (compaction input).
    pub fn scan_all(&self, pager: &mut Pager) -> Result<Vec<RunEntry>, KvError> {
        let mut out = Vec::with_capacity(self.entries as usize);
        for i in 0..self.blocks.len() {
            out.extend(self.read_block(pager, i)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_storage::{RamDisk, SharedDevice, SimDuration};

    fn pager() -> Pager {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(1000))));
        Pager::new(dev, 1 << 20, 0)
    }

    fn entries(n: u64) -> Vec<RunEntry> {
        (0..n)
            .map(|i| {
                let v = if i % 7 == 3 {
                    None
                } else {
                    Some(vec![(i % 251) as u8; 20])
                };
                (dam_kv::key_from_u64(i).to_vec(), v)
            })
            .collect()
    }

    #[test]
    fn build_get_roundtrip() {
        let mut p = pager();
        let t = SsTable::build(&mut p, 512, entries(500), 1).unwrap();
        assert_eq!(t.entries, 500);
        assert!(
            t.blocks.len() > 10,
            "should span many blocks: {}",
            t.blocks.len()
        );
        for i in [0u64, 3, 250, 499] {
            let got = t.get(&mut p, &dam_kv::key_from_u64(i)).unwrap();
            if i % 7 == 3 {
                assert_eq!(got, Some(None), "key {i} should be a tombstone");
            } else {
                assert_eq!(got, Some(Some(vec![(i % 251) as u8; 20])), "key {i}");
            }
        }
        assert_eq!(t.get(&mut p, &dam_kv::key_from_u64(500)).unwrap(), None);
    }

    #[test]
    fn point_read_touches_one_block() {
        let mut p = pager();
        let t = SsTable::build(&mut p, 512, entries(1000), 1).unwrap();
        p.drop_cache().unwrap();
        let snap = p.snapshot();
        t.get(&mut p, &dam_kv::key_from_u64(777)).unwrap();
        let d = p.cost_since(&snap);
        assert_eq!(d.ios, 1);
        assert!(d.bytes_read <= 600, "read {} bytes", d.bytes_read);
    }

    #[test]
    fn build_writes_one_sequential_io() {
        let mut p = pager();
        let snap = p.snapshot();
        let t = SsTable::build(&mut p, 512, entries(1000), 1).unwrap();
        p.flush().unwrap();
        let d = p.cost_since(&snap);
        assert_eq!(d.ios, 1, "whole table should be one device write");
        assert_eq!(d.bytes_written, t.data_len);
    }

    #[test]
    fn scan_respects_bounds() {
        let mut p = pager();
        let t = SsTable::build(&mut p, 256, entries(300), 1).unwrap();
        let out = t
            .scan(&mut p, &dam_kv::key_from_u64(50), &dam_kv::key_from_u64(60))
            .unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|(k, _)| dam_kv::key_to_u64(k).unwrap())
            .collect();
        assert_eq!(keys, (50..60).collect::<Vec<_>>());
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let mut p = pager();
        let es = entries(400);
        let t = SsTable::build(&mut p, 256, es.clone(), 1).unwrap();
        assert_eq!(t.scan_all(&mut p).unwrap(), es);
    }

    #[test]
    fn covers_and_overlaps() {
        let mut p = pager();
        let es: Vec<RunEntry> = (100..200u64)
            .map(|i| (dam_kv::key_from_u64(i).to_vec(), Some(vec![1])))
            .collect();
        let t = SsTable::build(&mut p, 256, es, 1).unwrap();
        assert!(t.covers(&dam_kv::key_from_u64(150)));
        assert!(!t.covers(&dam_kv::key_from_u64(99)));
        assert!(!t.covers(&dam_kv::key_from_u64(200)));
        assert!(t.overlaps(&dam_kv::key_from_u64(190), &dam_kv::key_from_u64(300)));
        assert!(!t.overlaps(&dam_kv::key_from_u64(200), &dam_kv::key_from_u64(300)));
    }

    #[test]
    fn destroy_releases_space() {
        let mut p = pager();
        let t = SsTable::build(&mut p, 512, entries(100), 1).unwrap();
        let live = p.live_bytes();
        t.destroy(&mut p);
        assert!(p.live_bytes() < live);
    }

    #[test]
    fn corrupted_block_surfaces_as_corrupt() {
        use dam_storage::SimTime;
        let mut p = pager();
        let t = SsTable::build(&mut p, 512, entries(200), 1).unwrap();
        p.drop_cache().unwrap();
        // Flip one payload byte of block 1 behind the pager's back.
        let off = t.base + t.blocks[1].offset as u64 + 12;
        let dev = p.device().clone();
        let mut byte = [0u8; 1];
        dev.read(off, &mut byte, SimTime::ZERO).unwrap();
        dev.write(off, &[byte[0] ^ 0xFF], SimTime::ZERO).unwrap();
        assert!(matches!(t.read_block(&mut p, 1), Err(KvError::Corrupt(_))));
        // Untouched blocks still read fine.
        assert!(t.read_block(&mut p, 0).is_ok());
    }
}
