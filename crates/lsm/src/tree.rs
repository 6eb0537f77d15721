//! The leveled LSM-tree: memtable → L0 runs → exponentially larger,
//! non-overlapping levels, with size-triggered compaction.

use crate::sstable::{BlockMeta, RunEntry, SsTable};
use dam_cache::Pager;
use dam_kv::codec::{frame, unframe, CodecError, Reader, Writer, FRAME_OVERHEAD};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedCost};
use dam_storage::{SharedDevice, SimTime};
use std::collections::BTreeMap;

/// Bytes reserved at device offset 0 for the manifest (level layout, table
/// metadata + block indexes, allocator state). Only the used prefix is
/// ever written — the reservation is address space, not per-sync IO.
pub const MANIFEST_BYTES: u64 = 1 << 20;
const MANIFEST_MAGIC: u32 = 0x4441_4D4C; // "DAML"
const MANIFEST_VERSION: u8 = 1;

/// LSM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Memtable flush threshold, bytes.
    pub memtable_bytes: usize,
    /// Data-block granularity inside SSTables (the point-read IO unit).
    pub block_bytes: usize,
    /// Target SSTable size, bytes (LevelDB default: 2 MiB).
    pub sstable_bytes: usize,
    /// Per-level size ratio `T` (LevelDB: 10).
    pub level_ratio: usize,
    /// Runs allowed in L0 before compacting into L1.
    pub l0_limit: usize,
    /// Buffer-pool budget, bytes.
    pub cache_bytes: u64,
}

impl LsmConfig {
    /// LevelDB-flavored defaults for a given SSTable size: memtable =
    /// one SSTable, 4 KiB blocks, ratio 10, 4 L0 runs.
    pub fn new(sstable_bytes: usize, cache_bytes: u64) -> Self {
        LsmConfig {
            memtable_bytes: sstable_bytes,
            block_bytes: 4096,
            sstable_bytes,
            level_ratio: 10,
            l0_limit: 4,
            cache_bytes,
        }
    }
}

/// A leveled LSM-tree (see crate docs).
pub struct LsmTree {
    pager: Pager,
    cfg: LsmConfig,
    mem: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    mem_bytes: usize,
    /// L0 runs; **later entries are newer**.
    l0: Vec<SsTable>,
    /// `levels[i]` is level `i+1`: non-overlapping, ascending by `min_key`.
    levels: Vec<Vec<SsTable>>,
    next_stamp: u64,
    last_cost: OpCost,
    obs: Option<Obs>,
}

fn encode_tables(w: &mut Writer, tables: &[SsTable]) {
    w.put_u32(tables.len() as u32);
    for t in tables {
        w.put_u64(t.base);
        w.put_u64(t.data_len);
        w.put_u64(t.entries);
        w.put_u64(t.stamp);
        w.put_bytes(&t.min_key);
        w.put_bytes(&t.max_key);
        w.put_u32(t.blocks.len() as u32);
        for b in &t.blocks {
            w.put_bytes(&b.first_key);
            w.put_u32(b.offset);
            w.put_u32(b.len);
        }
    }
}

fn decode_tables(r: &mut Reader<'_>) -> Result<Vec<SsTable>, CodecError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let base = r.get_u64()?;
        let data_len = r.get_u64()?;
        let entries = r.get_u64()?;
        let stamp = r.get_u64()?;
        let min_key = r.get_bytes()?.to_vec();
        let max_key = r.get_bytes()?.to_vec();
        let nblocks = r.get_u32()? as usize;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let first_key = r.get_bytes()?.to_vec();
            let offset = r.get_u32()?;
            let len = r.get_u32()?;
            blocks.push(BlockMeta {
                first_key,
                offset,
                len,
            });
        }
        out.push(SsTable {
            base,
            data_len,
            blocks,
            min_key,
            max_key,
            entries,
            stamp,
        });
    }
    Ok(out)
}

/// Merge runs where **earlier runs take precedence** (newer data first).
/// Output is ascending by key; tombstones retained unless `drop_tombstones`.
fn merge_runs(runs: Vec<Vec<RunEntry>>, drop_tombstones: bool) -> Vec<RunEntry> {
    let mut map: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    // Lowest precedence first; later (higher-precedence) inserts overwrite.
    for run in runs.into_iter().rev() {
        for (k, v) in run {
            map.insert(k, v);
        }
    }
    map.into_iter()
        .filter(|(_, v)| !(drop_tombstones && v.is_none()))
        .collect()
}

/// Reject configurations the tree cannot run under; `create` and `open`
/// both call it.
fn validate(cfg: &LsmConfig) -> Result<(), KvError> {
    if cfg.block_bytes < 64 || cfg.sstable_bytes < cfg.block_bytes {
        return Err(KvError::Config("block/sstable sizes too small".into()));
    }
    if cfg.level_ratio < 2 || cfg.l0_limit < 1 || cfg.memtable_bytes < cfg.block_bytes {
        return Err(KvError::Config("bad ratio/l0 limit/memtable size".into()));
    }
    Ok(())
}

impl LsmTree {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: LsmConfig) -> Result<Self, KvError> {
        validate(&cfg)?;
        Ok(LsmTree {
            pager: Pager::new(device, cfg.cache_bytes, MANIFEST_BYTES),
            cfg,
            mem: BTreeMap::new(),
            mem_bytes: 0,
            l0: Vec::new(),
            levels: Vec::new(),
            next_stamp: 1,
            last_cost: OpCost::default(),
            obs: None,
        })
    }

    /// Reopen a tree persisted with [`LsmTree::persist`] / `sync`.
    ///
    /// Reads the framed manifest at offset 0, validates its checksum and
    /// rebuilds the level layout, block indexes and allocator state.  A
    /// torn or corrupted manifest surfaces as [`KvError::Corrupt`]; a
    /// config that `create` would reject, as [`KvError::Config`].
    pub fn open(device: SharedDevice, cfg: LsmConfig) -> Result<Self, KvError> {
        validate(&cfg)?;
        // Read the manifest straight from the device: it can be far
        // larger than the cache budget, and caching a one-shot read of
        // the whole region would only evict useful pages.
        let mut image = vec![0u8; MANIFEST_BYTES as usize];
        device
            .read(0, &mut image, SimTime::ZERO)
            .map_err(|e| KvError::Storage(e.to_string()))?;
        let mut pager = Pager::new(device, cfg.cache_bytes, MANIFEST_BYTES);
        let corrupt = |m: &str| KvError::Corrupt(format!("lsm manifest: {m}"));
        let dec = |e: CodecError| KvError::Corrupt(format!("lsm manifest: {e}"));
        let payload = unframe(&image).map_err(dec)?;
        let mut r = Reader::new(payload);
        if r.get_u32().map_err(dec)? != MANIFEST_MAGIC {
            return Err(corrupt("bad magic (no tree persisted on this device?)"));
        }
        if r.get_u8().map_err(dec)? != MANIFEST_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let next_stamp = r.get_u64().map_err(dec)?;
        let l0 = decode_tables(&mut r).map_err(dec)?;
        let nlevels = r.get_u32().map_err(dec)? as usize;
        let mut levels = Vec::with_capacity(nlevels);
        for _ in 0..nlevels {
            levels.push(decode_tables(&mut r).map_err(dec)?);
        }
        pager.read_alloc(&mut r, MANIFEST_BYTES).map_err(dec)?;
        Ok(LsmTree {
            pager,
            cfg,
            mem: BTreeMap::new(),
            mem_bytes: 0,
            l0,
            levels,
            next_stamp,
            last_cost: OpCost::default(),
            obs: None,
        })
    }

    /// Attach an observability registry: point reads open per-level spans
    /// (`lsm.l0` at level 0, `lsm.level` below), flush/compaction work is
    /// spanned, and every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Flush the memtable and dirty pages, then durably write the manifest.
    ///
    /// After `persist` returns, [`LsmTree::open`] on the same device
    /// reconstructs the tree.
    pub fn persist(&mut self) -> Result<(), KvError> {
        self.flush_memtable()?;
        self.pager.flush()?;
        let mut w = Writer::with_capacity(4096);
        w.put_u32(MANIFEST_MAGIC);
        w.put_u8(MANIFEST_VERSION);
        w.put_u64(self.next_stamp);
        encode_tables(&mut w, &self.l0);
        w.put_u32(self.levels.len() as u32);
        for level in &self.levels {
            encode_tables(&mut w, level);
        }
        self.pager.write_alloc(&mut w);
        let payload = w.into_bytes();
        if (payload.len() + FRAME_OVERHEAD) as u64 > MANIFEST_BYTES {
            return Err(KvError::Config(format!(
                "manifest of {} bytes exceeds the reserved {} (too many tables)",
                payload.len(),
                MANIFEST_BYTES
            )));
        }
        // Write only the used prefix: `unframe` on open reads the stored
        // length, and the device zero-fills the rest of the region.
        let image = frame(&payload);
        Ok(self.pager.write_through(0, image)?)
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// The pager (counters, flush, cache drops).
    pub fn pager(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Number of runs in L0 plus tables per deeper level (diagnostics).
    pub fn level_table_counts(&self) -> Vec<usize> {
        let mut out = vec![self.l0.len()];
        out.extend(self.levels.iter().map(|l| l.len()));
        out
    }

    /// Flush dirty cache pages (not the memtable).
    pub fn flush(&mut self) -> Result<(), KvError> {
        Ok(self.pager.flush()?)
    }

    /// Flush and empty the cache.
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        Ok(self.pager.drop_cache()?)
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn update(&mut self, key: &[u8], value: Option<Vec<u8>>) -> Result<(), KvError> {
        let add = SsTable::entry_bytes(key, &value);
        if add > self.cfg.block_bytes {
            return Err(KvError::Config(format!(
                "entry of {add} bytes exceeds block_bytes {}",
                self.cfg.block_bytes
            )));
        }
        if let Some(old) = self.mem.insert(key.to_vec(), value) {
            self.mem_bytes = self
                .mem_bytes
                .saturating_sub(SsTable::entry_bytes(key, &old));
        }
        self.mem_bytes += add;
        if self.mem_bytes >= self.cfg.memtable_bytes {
            self.flush_memtable()?;
        }
        Ok(())
    }

    /// Write the memtable out as a new L0 run, compacting as needed.
    ///
    /// Failure-atomic: the memtable is cleared only once its SSTable is
    /// durably written, so a device fault mid-flush loses nothing — the
    /// caller can retry once the fault clears.
    pub fn flush_memtable(&mut self) -> Result<(), KvError> {
        let _span = self.obs.as_ref().map(|o| o.span("lsm.flush"));
        if !self.mem.is_empty() {
            let entries: Vec<RunEntry> = self
                .mem
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let stamp = self.stamp();
            let table = SsTable::build(&mut self.pager, self.cfg.block_bytes, entries, stamp)?;
            self.mem.clear();
            self.mem_bytes = 0;
            self.l0.push(table);
        }
        // Checked outside the memtable branch so a compaction that failed
        // on a previous (errored) flush is retried even when the memtable
        // is already empty.
        if self.l0.len() > self.cfg.l0_limit {
            self.compact_l0()?;
        }
        Ok(())
    }

    /// Size budget of level `i+1` (`levels[i]`): `sstable · ratio^(i+1)`.
    fn level_budget(&self, idx: usize) -> u64 {
        let mut b = self.cfg.sstable_bytes as u64;
        for _ in 0..=idx {
            b = b.saturating_mul(self.cfg.level_ratio as u64);
        }
        b
    }

    fn level_bytes(&self, idx: usize) -> u64 {
        self.levels
            .get(idx)
            .map_or(0, |l| l.iter().map(|t| t.data_len).sum())
    }

    /// True when no data lives below `levels[idx]` — tombstones can drop.
    fn is_bottom(&self, idx: usize) -> bool {
        self.levels.iter().skip(idx + 1).all(|l| l.is_empty())
    }

    /// Split merged entries into SSTables of at most `sstable_bytes`.
    /// On error, tables already built for this batch are destroyed so a
    /// failed compaction leaks no extents.
    fn build_tables(&mut self, merged: Vec<RunEntry>) -> Result<Vec<SsTable>, KvError> {
        let mut out: Vec<SsTable> = Vec::new();
        let unwind = |out: &mut Vec<SsTable>, pager: &mut Pager, e: KvError| {
            for t in out.drain(..) {
                t.destroy(pager);
            }
            e
        };
        let mut cur: Vec<RunEntry> = Vec::new();
        let mut bytes = 0usize;
        for (k, v) in merged {
            let sz = SsTable::entry_bytes(&k, &v);
            if !cur.is_empty() && bytes + sz > self.cfg.sstable_bytes {
                let stamp = self.stamp();
                let batch = std::mem::take(&mut cur);
                match SsTable::build(&mut self.pager, self.cfg.block_bytes, batch, stamp) {
                    Ok(t) => out.push(t),
                    Err(e) => return Err(unwind(&mut out, &mut self.pager, e)),
                }
                bytes = 0;
            }
            bytes += sz;
            cur.push((k, v));
        }
        if !cur.is_empty() {
            let stamp = self.stamp();
            match SsTable::build(&mut self.pager, self.cfg.block_bytes, cur, stamp) {
                Ok(t) => out.push(t),
                Err(e) => return Err(unwind(&mut out, &mut self.pager, e)),
            }
        }
        Ok(out)
    }

    /// Merge every L0 run plus the overlapping part of L1 into L1.
    ///
    /// Failure-atomic: old tables are destroyed and the level rewired only
    /// after every replacement table is durably written; on error the
    /// level is restored untouched.
    fn compact_l0(&mut self) -> Result<(), KvError> {
        if self.l0.is_empty() {
            return Ok(());
        }
        let _span = self.obs.as_ref().map(|o| o.span_at("lsm.compact", 0));
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let lo = self
            .l0
            .iter()
            .map(|t| t.min_key.clone())
            .min()
            .expect("nonempty");
        let hi = self
            .l0
            .iter()
            .map(|t| t.max_key.clone())
            .max()
            .expect("nonempty");
        // Partition L1 into overlapping and untouched.
        let l1 = std::mem::take(&mut self.levels[0]);
        let (overlapping, untouched): (Vec<_>, Vec<_>) =
            l1.into_iter().partition(|t| t.overlaps(&lo, &hi));

        let built = (|| {
            // Precedence: newest L0 first, then older L0, then L1
            // (concatenated — non-overlapping, so order within the run is
            // by key already).
            let mut runs: Vec<Vec<RunEntry>> = Vec::new();
            for t in self.l0.iter().rev() {
                runs.push(t.scan_all(&mut self.pager)?);
            }
            let mut l1_run = Vec::new();
            for t in &overlapping {
                l1_run.extend(t.scan_all(&mut self.pager)?);
            }
            runs.push(l1_run);

            let drop_tombs = self.is_bottom(0);
            let merged = merge_runs(runs, drop_tombs);
            self.build_tables(merged)
        })();
        let new_tables = match built {
            Ok(t) => t,
            Err(e) => {
                // Nothing was destroyed; put L1 back together.
                let mut level = untouched;
                level.extend(overlapping);
                level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
                self.levels[0] = level;
                return Err(e);
            }
        };

        for t in self.l0.drain(..).collect::<Vec<_>>() {
            t.destroy(&mut self.pager);
        }
        for t in overlapping {
            t.destroy(&mut self.pager);
        }
        let mut level = untouched;
        level.extend(new_tables);
        level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        self.levels[0] = level;
        self.maybe_compact_level(0)
    }

    /// Push one table per round from `levels[idx]` down while the level is
    /// over budget.
    fn maybe_compact_level(&mut self, idx: usize) -> Result<(), KvError> {
        let _span = self
            .obs
            .as_ref()
            .filter(|_| self.level_bytes(idx) > self.level_budget(idx))
            .map(|o| o.span_at("lsm.compact", idx as u32 + 1));
        while self.level_bytes(idx) > self.level_budget(idx) {
            if self.levels.len() <= idx + 1 {
                self.levels.push(Vec::new());
            }
            // Victim: the table with the smallest min_key (simple round
            // robin would also work; determinism is what matters).
            let victim = self.levels[idx].remove(0);
            let next = std::mem::take(&mut self.levels[idx + 1]);
            let (overlapping, untouched): (Vec<_>, Vec<_>) = next
                .into_iter()
                .partition(|t| t.overlaps(&victim.min_key, &victim.max_key));
            let built = (|| {
                let mut runs: Vec<Vec<RunEntry>> = vec![victim.scan_all(&mut self.pager)?];
                let mut low_run = Vec::new();
                for t in &overlapping {
                    low_run.extend(t.scan_all(&mut self.pager)?);
                }
                runs.push(low_run);
                let drop_tombs = self.is_bottom(idx + 1);
                let merged = merge_runs(runs, drop_tombs);
                self.build_tables(merged)
            })();
            let new_tables = match built {
                Ok(t) => t,
                Err(e) => {
                    // Failure-atomic: nothing was destroyed — reinstate
                    // the victim and the lower level as they were.
                    self.levels[idx].insert(0, victim);
                    let mut level = untouched;
                    level.extend(overlapping);
                    level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
                    self.levels[idx + 1] = level;
                    return Err(e);
                }
            };
            victim.destroy(&mut self.pager);
            for t in overlapping {
                t.destroy(&mut self.pager);
            }
            let mut level = untouched;
            level.extend(new_tables);
            level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
            self.levels[idx + 1] = level;
            self.maybe_compact_level(idx + 1)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn get_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        if let Some(v) = self.mem.get(key) {
            return Ok(v.clone());
        }
        // L0: newest run wins.
        for i in (0..self.l0.len()).rev() {
            let t = self.l0[i].clone();
            let _lvl = self.obs.as_ref().map(|o| o.span_at("lsm.l0", 0));
            if let Some(v) = t.get(&mut self.pager, key)? {
                return Ok(v);
            }
        }
        for li in 0..self.levels.len() {
            // Non-overlapping: at most one candidate table.
            let cand = {
                let level = &self.levels[li];
                let i = level.partition_point(|t| t.min_key.as_slice() <= key);
                if i == 0 {
                    continue;
                }
                level[i - 1].clone()
            };
            let _lvl = self
                .obs
                .as_ref()
                .map(|o| o.span_at("lsm.level", li as u32 + 1));
            if let Some(v) = cand.get(&mut self.pager, key)? {
                return Ok(v);
            }
        }
        Ok(None)
    }

    /// Merged live view of `start ≤ key < end`; `end = None` means
    /// unbounded above. The unbounded form is what `len` and
    /// `check_invariants` use — scanning to a finite sentinel like
    /// `[0xFF; 64]` would silently miss keys that sort above it.
    fn range_inner(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<dam_kv::KvPair>, KvError> {
        if end.is_some_and(|e| e <= start) {
            return Ok(Vec::new());
        }
        let mut runs: Vec<Vec<RunEntry>> = Vec::new();
        // Memtable: highest precedence.
        runs.push(match end {
            Some(e) => self
                .mem
                .range(start.to_vec()..e.to_vec())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            None => self
                .mem
                .range(start.to_vec()..)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        });
        for i in (0..self.l0.len()).rev() {
            let t = self.l0[i].clone();
            if t.overlaps_open(start, end) {
                runs.push(t.scan_open(&mut self.pager, start, end)?);
            }
        }
        for li in 0..self.levels.len() {
            let tables: Vec<SsTable> = self.levels[li]
                .iter()
                .filter(|t| t.overlaps_open(start, end))
                .cloned()
                .collect();
            let mut run = Vec::new();
            for t in tables {
                run.extend(t.scan_open(&mut self.pager, start, end)?);
            }
            runs.push(run);
        }
        Ok(merge_runs(runs, true)
            .into_iter()
            .map(|(k, v)| (k, v.expect("tombstones dropped")))
            .collect())
    }

    // ------------------------------------------------------------------
    // Invariants (test support)
    // ------------------------------------------------------------------

    /// Verify level ordering and table metadata; returns live entries.
    pub fn check_invariants(&mut self) -> Result<u64, KvError> {
        for (li, level) in self.levels.iter().enumerate() {
            for w in level.windows(2) {
                if w[0].max_key >= w[1].min_key {
                    return Err(KvError::Corrupt(format!("level {} tables overlap", li + 1)));
                }
            }
            for t in level {
                if t.min_key > t.max_key || t.blocks.is_empty() {
                    return Err(KvError::Corrupt("malformed table".into()));
                }
            }
        }
        // Count live keys by a full unbounded merge (also validates every
        // block decodes).
        let all = self.range_inner(&[], None)?;
        for w in all.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(KvError::Corrupt("merged output unsorted".into()));
            }
        }
        Ok(all.len() as u64)
    }
}

impl PagedCost for LsmTree {
    fn cost_parts(&mut self) -> (&Pager, &mut OpCost, Option<&Obs>) {
        (&self.pager, &mut self.last_cost, self.obs.as_ref())
    }
}

impl Dictionary for LsmTree {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let snap = self.begin_op();
        self.update(key, Some(value.to_vec()))?;
        self.finish_op(&snap);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        let snap = self.begin_op();
        self.update(key, None)?;
        self.finish_op(&snap);
        Ok(())
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // Batched writes land in the memtable back to back under one cost
        // window; a flush or compaction triggered mid-batch is charged to
        // the batch, matching the group-commit accounting in `dam-serve`.
        let snap = self.begin_op();
        for op in batch {
            match op {
                BatchOp::Put { key, value } => self.update(key, Some(value.clone()))?,
                BatchOp::Del { key } => self.update(key, None)?,
            }
        }
        self.finish_op(&snap);
        Ok(())
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let snap = self.begin_op();
        let r = self.get_inner(key)?;
        self.finish_op(&snap);
        Ok(r)
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        let snap = self.begin_op();
        let r = if start < end {
            self.range_inner(start, Some(end))?
        } else {
            Vec::new()
        };
        self.finish_op(&snap);
        Ok(r)
    }

    fn last_op_cost(&self) -> OpCost {
        self.last_cost
    }

    fn sync(&mut self) -> Result<(), KvError> {
        // Durability contract: after sync returns, `open` on the same
        // device reconstructs everything inserted so far — so sync writes
        // the manifest, not just the dirty pages.
        let snap = self.begin_op();
        self.persist()?;
        self.finish_op(&snap);
        Ok(())
    }

    /// Exact live-key count via a full unbounded merge scan (O(N) IO).
    fn len(&mut self) -> Result<u64, KvError> {
        let snap = self.begin_op();
        let all = self.range_inner(&[], None)?;
        self.finish_op(&snap);
        Ok(all.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    //! LSM-specific behaviour. The contract every dictionary shares is
    //! checked once, for all four, by `tests/dictionary_contract.rs`.

    use super::*;
    use dam_kv::key_from_u64;
    use dam_storage::{RamDisk, SimDuration};

    fn tree(sstable_bytes: usize) -> LsmTree {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let mut cfg = LsmConfig::new(sstable_bytes, 1 << 20);
        cfg.memtable_bytes = sstable_bytes / 2;
        cfg.block_bytes = 512;
        cfg.level_ratio = 4;
        cfg.l0_limit = 2;
        LsmTree::create(dev, cfg).unwrap()
    }

    fn insert(t: &mut LsmTree, i: u64) {
        let v = format!("value-{i:08}").into_bytes();
        t.insert(&key_from_u64(i), &v).unwrap();
    }

    #[test]
    fn point_read_cost_is_blocks_not_tables() {
        let mut t = tree(8192);
        for i in 0..5000 {
            insert(&mut t, i);
        }
        t.sync().unwrap();
        t.drop_cache().unwrap();
        t.get(&key_from_u64(2500)).unwrap();
        let c = t.last_op_cost();
        // A point read touches at most a block per sorted run on the path.
        assert!(c.ios <= 8, "ios {}", c.ios);
        assert!(c.bytes_read < 8 * 1024, "bytes {}", c.bytes_read);
    }

    #[test]
    fn write_amp_is_moderate() {
        let mut t = tree(4096);
        let n = 4000u64;
        for i in 0..n {
            insert(&mut t, (i * 2654435761) % 100_000);
        }
        t.sync().unwrap();
        let written = t.pager().counters().bytes_written as f64;
        let logical = (n * 40) as f64; // ~40 bytes per entry footprint
        let amp = written / logical;
        // Leveled LSM write amp ~ ratio × levels — way below the B-tree's
        // node-size amp, way above 1.
        assert!(amp > 1.5 && amp < 60.0, "write amp {amp}");
    }

    #[test]
    fn sync_persists_memtable() {
        let mut t = tree(1 << 20); // huge memtable: nothing auto-flushes
        for i in 0..50 {
            insert(&mut t, i);
        }
        assert_eq!(t.level_table_counts(), vec![0]);
        t.sync().unwrap();
        assert_eq!(t.level_table_counts(), vec![1]);
        t.drop_cache().unwrap();
        let got = t.get(&key_from_u64(25)).unwrap();
        assert_eq!(got, Some(b"value-00000025".to_vec()));
    }

    #[test]
    fn reopen_restores_the_level_layout() {
        let mut t = tree(2048);
        for i in 0..2000 {
            insert(&mut t, i);
        }
        t.sync().unwrap();
        let counts = t.level_table_counts();
        assert!(counts.len() > 2, "levels: {counts:?}");
        let reopened = LsmTree::open(t.pager().device().clone(), *t.config()).unwrap();
        assert_eq!(reopened.level_table_counts(), counts);
    }

    #[test]
    fn deep_levels_stay_sorted_nonoverlapping() {
        let mut t = tree(1024);
        for i in 0..6000 {
            let k = key_from_u64((i * 7919) % 3000);
            t.insert(&k, &[(i % 251) as u8; 30]).unwrap();
        }
        t.check_invariants().unwrap();
        let counts = t.level_table_counts();
        assert!(counts.len() >= 3, "expected several levels: {counts:?}");
    }
}
