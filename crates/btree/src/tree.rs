//! The B-tree proper: descent, split, merge/borrow, range scans, bulk load,
//! and per-operation cost accounting.

use crate::node::{Node, NodeId, LEAF_ENTRY_OVERHEAD, NODE_HEADER_BYTES};
use dam_cache::Pager;
use dam_kv::codec::{Reader, Writer};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedCost};
use dam_storage::SharedDevice;

/// Bytes reserved at device offset 0 for the superblock.
pub const SUPERBLOCK_BYTES: u64 = 4096;
const SUPERBLOCK_MAGIC: u32 = 0x4441_4D42; // "DAMB"
const SUPERBLOCK_VERSION: u8 = 1;

/// B-tree configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BTreeConfig {
    /// Node (and IO) size in bytes — the `B` the paper tunes.
    pub node_bytes: usize,
    /// Buffer-pool budget in bytes — the `M` of the DAM hierarchy.
    pub cache_bytes: u64,
    /// Fill fraction bulk-loaded nodes target (0.5–1.0).
    pub bulk_fill: f64,
}

impl BTreeConfig {
    /// Config with the given node size and cache, 90% bulk fill.
    pub fn new(node_bytes: usize, cache_bytes: u64) -> Self {
        BTreeConfig {
            node_bytes,
            cache_bytes,
            bulk_fill: 0.9,
        }
    }
}

/// An on-disk B-tree (see crate docs).
pub struct BTree {
    pager: Pager,
    cfg: BTreeConfig,
    root: NodeId,
    /// Levels including the leaf level; an empty tree has height 1.
    height: u32,
    count: u64,
    last_cost: OpCost,
    obs: Option<Obs>,
}

impl BTree {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: BTreeConfig) -> Result<Self, KvError> {
        if cfg.node_bytes < NODE_HEADER_BYTES + 64 {
            return Err(KvError::Config(format!(
                "node_bytes {} too small to hold any entry",
                cfg.node_bytes
            )));
        }
        if !(0.5..=1.0).contains(&cfg.bulk_fill) {
            return Err(KvError::Config("bulk_fill must be in [0.5, 1.0]".into()));
        }
        let mut pager = Pager::new(device, cfg.cache_bytes, SUPERBLOCK_BYTES);
        let root = pager.alloc(cfg.node_bytes as u64)?;
        let mut tree = BTree {
            pager,
            cfg,
            root,
            height: 1,
            count: 0,
            last_cost: OpCost::default(),
            obs: None,
        };
        tree.write_node(root, &Node::empty_leaf())?;
        Ok(tree)
    }

    /// Checkpoint the tree: flush all dirty nodes, then durably write a
    /// superblock (root pointer, height, count, allocator state) at device
    /// offset 0. After `persist`, [`BTree::open`] on the same device
    /// reconstructs the tree.
    pub fn persist(&mut self) -> Result<(), KvError> {
        self.flush()?;
        let mut w = Writer::with_capacity(SUPERBLOCK_BYTES as usize);
        w.put_u32(SUPERBLOCK_MAGIC);
        w.put_u8(SUPERBLOCK_VERSION);
        w.put_u64(self.root);
        w.put_u32(self.height);
        w.put_u64(self.count);
        w.put_u64(self.cfg.node_bytes as u64);
        self.pager.write_alloc(&mut w);
        let payload = w.into_bytes();
        if (payload.len() + dam_kv::codec::FRAME_OVERHEAD) as u64 > SUPERBLOCK_BYTES {
            return Err(KvError::Config(format!(
                "superblock of {} bytes exceeds the reserved {} (too many free extents)",
                payload.len(),
                SUPERBLOCK_BYTES
            )));
        }
        let image = dam_kv::codec::frame_into_slot(&payload, SUPERBLOCK_BYTES as usize);
        Ok(self.pager.write_through(0, image)?)
    }

    /// Reopen a tree previously [`BTree::persist`]ed on `device`.
    pub fn open(device: SharedDevice, cfg: BTreeConfig) -> Result<Self, KvError> {
        let mut pager = Pager::new(device, cfg.cache_bytes, SUPERBLOCK_BYTES);
        let image = pager.read(0, SUPERBLOCK_BYTES as usize)?;
        let corrupt = |what: &str| KvError::Corrupt(format!("superblock: {what}"));
        let payload = dam_kv::codec::unframe(&image).map_err(|e| corrupt(&e.to_string()))?;
        let mut r = Reader::new(payload);
        if r.get_u32().map_err(|e| corrupt(&e.to_string()))? != SUPERBLOCK_MAGIC {
            return Err(corrupt("bad magic (no tree persisted on this device?)"));
        }
        if r.get_u8().map_err(|e| corrupt(&e.to_string()))? != SUPERBLOCK_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let dec = |e: dam_kv::codec::CodecError| corrupt(&e.to_string());
        let root = r.get_u64().map_err(dec)?;
        let height = r.get_u32().map_err(dec)?;
        let count = r.get_u64().map_err(dec)?;
        let node_bytes = r.get_u64().map_err(dec)?;
        if node_bytes != cfg.node_bytes as u64 {
            return Err(KvError::Config(format!(
                "node_bytes mismatch: device has {node_bytes}, config says {}",
                cfg.node_bytes
            )));
        }
        pager.read_alloc(&mut r, SUPERBLOCK_BYTES).map_err(dec)?;
        Ok(BTree {
            pager,
            cfg,
            root,
            height,
            count,
            last_cost: OpCost::default(),
            obs: None,
        })
    }

    /// Attach an observability registry: each node visit during descent
    /// opens a `btree.level` span (so per-level IO attribution works) and
    /// every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The node size in use.
    pub fn node_bytes(&self) -> usize {
        self.cfg.node_bytes
    }

    /// Tree height in levels (leaves = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pager (for counters, flush, cache drops).
    pub fn pager(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Write all dirty nodes to the device.
    pub fn flush(&mut self) -> Result<(), KvError> {
        Ok(self.pager.flush()?)
    }

    /// Flush and empty the cache (cold-cache experiment reset).
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        Ok(self.pager.drop_cache()?)
    }

    fn read_node(&mut self, id: NodeId) -> Result<Node, KvError> {
        let buf = self.pager.read(id, self.cfg.node_bytes)?;
        Node::decode(&buf).map_err(|e| KvError::Corrupt(format!("node {id}: {e}")))
    }

    fn write_node(&mut self, id: NodeId, node: &Node) -> Result<(), KvError> {
        if node.serialized_size() > self.cfg.node_bytes {
            return Err(KvError::Config(format!(
                "node image {} exceeds node_bytes {} (entry too large?)",
                node.serialized_size(),
                self.cfg.node_bytes
            )));
        }
        let buf = node.encode(self.cfg.node_bytes);
        Ok(self.pager.write(id, buf)?)
    }

    fn alloc_node(&mut self) -> Result<NodeId, KvError> {
        Ok(self.pager.alloc(self.cfg.node_bytes as u64)?)
    }

    fn free_node(&mut self, id: NodeId) {
        self.pager.free(id, self.cfg.node_bytes as u64);
    }

    fn entry_fits(&self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let need = NODE_HEADER_BYTES + LEAF_ENTRY_OVERHEAD + key.len() + value.len();
        if need > self.cfg.node_bytes {
            return Err(KvError::Config(format!(
                "entry of {} bytes cannot fit in node_bytes {}",
                need, self.cfg.node_bytes
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Split an overflowing leaf's entries at the byte-balanced midpoint;
    /// returns (promoted pivot, right entries).
    #[allow(clippy::type_complexity)]
    fn split_leaf_entries(
        entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> (Vec<u8>, Vec<(Vec<u8>, Vec<u8>)>) {
        debug_assert!(entries.len() >= 2, "cannot split a leaf with < 2 entries");
        let total: usize = entries
            .iter()
            .map(|(k, v)| LEAF_ENTRY_OVERHEAD + k.len() + v.len())
            .sum();
        let mut acc = 0usize;
        let mut split = entries.len() - 1;
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += LEAF_ENTRY_OVERHEAD + k.len() + v.len();
            if acc * 2 >= total && i + 1 < entries.len() {
                split = i + 1;
                break;
            }
        }
        let right = entries.split_off(split);
        let pivot = right[0].0.clone();
        (pivot, right)
    }

    /// Recursive insert. Returns `(inserted_new_key, Option<(pivot, new_right)>)`.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &mut self,
        id: NodeId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(bool, Option<(Vec<u8>, NodeId)>), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let mut node = self.read_node(id)?;
        match &mut node {
            Node::Leaf { entries } => {
                let new_key = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        entries[i].1 = value.to_vec();
                        false
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value.to_vec()));
                        true
                    }
                };
                if node.serialized_size() <= self.cfg.node_bytes {
                    self.write_node(id, &node)?;
                    return Ok((new_key, None));
                }
                let Node::Leaf { entries } = &mut node else {
                    unreachable!()
                };
                let (pivot, right_entries) = Self::split_leaf_entries(entries);
                let right_id = self.alloc_node()?;
                let right = Node::Leaf {
                    entries: right_entries,
                };
                self.write_node(id, &node)?;
                self.write_node(right_id, &right)?;
                Ok((new_key, Some((pivot, right_id))))
            }
            Node::Internal { pivots, children } => {
                let idx = pivots.partition_point(|p| p.as_slice() <= key);
                let child = children[idx];
                let (new_key, split) = self.insert_rec(child, key, value)?;
                let Some((pivot, right_id)) = split else {
                    return Ok((new_key, None));
                };
                let Node::Internal { pivots, children } = &mut node else {
                    unreachable!()
                };
                pivots.insert(idx, pivot);
                children.insert(idx + 1, right_id);
                if node.serialized_size() <= self.cfg.node_bytes {
                    self.write_node(id, &node)?;
                    return Ok((new_key, None));
                }
                // Split the internal node: promote the byte-midpoint pivot.
                let Node::Internal { pivots, children } = &mut node else {
                    unreachable!()
                };
                if pivots.len() < 3 {
                    return Err(KvError::Config(format!(
                        "internal node with {} pivots overflows node_bytes {}; keys too large",
                        pivots.len(),
                        self.cfg.node_bytes
                    )));
                }
                let total: usize = pivots.iter().map(|p| 4 + p.len()).sum();
                let mut acc = 0usize;
                let mut mid = pivots.len() / 2;
                for (i, p) in pivots.iter().enumerate() {
                    acc += 4 + p.len();
                    if acc * 2 >= total && i + 1 < pivots.len() {
                        mid = (i + 1).min(pivots.len() - 1).max(1);
                        break;
                    }
                }
                let right_pivots = pivots.split_off(mid + 1);
                let promoted = pivots.pop().expect("mid >= 1 leaves a pivot to promote");
                let right_children = children.split_off(mid + 1);
                let right_id = self.alloc_node()?;
                let right = Node::Internal {
                    pivots: right_pivots,
                    children: right_children,
                };
                self.write_node(id, &node)?;
                self.write_node(right_id, &right)?;
                Ok((new_key, Some((promoted, right_id))))
            }
        }
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    fn underfull(&self, node: &Node) -> bool {
        node.serialized_size() < self.cfg.node_bytes / 4
    }

    /// Recursive delete. Returns `(removed, child_now_underfull)`.
    fn delete_rec(&mut self, id: NodeId, key: &[u8]) -> Result<(bool, bool), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let mut node = self.read_node(id)?;
        match &mut node {
            Node::Leaf { entries } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        entries.remove(i);
                        let under = self.underfull(&node);
                        self.write_node(id, &node)?;
                        Ok((true, under))
                    }
                    Err(_) => Ok((false, false)),
                }
            }
            Node::Internal { pivots, children } => {
                let idx = pivots.partition_point(|p| p.as_slice() <= key);
                let child = children[idx];
                let (removed, child_under) = self.delete_rec(child, key)?;
                if !child_under {
                    return Ok((removed, false));
                }
                self.rebalance_child(id, &mut node, idx)?;
                let under = self.underfull(&node);
                Ok((removed, under))
            }
        }
    }

    /// Fix up an underfull child of `node` (at child index `idx`) by merging
    /// with or borrowing from an adjacent sibling, then persist `node`.
    fn rebalance_child(&mut self, id: NodeId, node: &mut Node, idx: usize) -> Result<(), KvError> {
        let Node::Internal { pivots, children } = node else {
            unreachable!("rebalance_child on a leaf");
        };
        // Single child (possible transiently at the root): nothing to do.
        if children.len() == 1 {
            self.write_node(id, node)?;
            return Ok(());
        }
        // Prefer the left sibling; fall back to the right when idx == 0.
        let (li, ri) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        let left_id = children[li];
        let right_id = children[ri];
        let mut left = self.read_node(left_id)?;
        let mut right = self.read_node(right_id)?;
        let separator = pivots[li].clone();

        let merged_size = left.serialized_size() + right.serialized_size() - NODE_HEADER_BYTES
            + match &left {
                Node::Internal { .. } => 4 + separator.len(),
                Node::Leaf { .. } => 0,
            };
        if merged_size <= self.cfg.node_bytes {
            // Merge right into left.
            match (&mut left, right) {
                (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                    le.extend(re);
                }
                (
                    Node::Internal {
                        pivots: lp,
                        children: lc,
                    },
                    Node::Internal {
                        pivots: rp,
                        children: rc,
                    },
                ) => {
                    lp.push(separator.clone());
                    lp.extend(rp);
                    lc.extend(rc);
                }
                _ => return Err(KvError::Corrupt("sibling level mismatch".into())),
            }
            self.write_node(left_id, &left)?;
            self.free_node(right_id);
            pivots.remove(li);
            children.remove(ri);
            self.write_node(id, node)?;
            return Ok(());
        }

        // Borrow: rebalance contents between the two siblings by bytes and
        // refresh the separator pivot.
        let new_separator = match (&mut left, &mut right) {
            (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                let mut all: Vec<(Vec<u8>, Vec<u8>)> = std::mem::take(le);
                all.extend(std::mem::take(re));
                let total: usize = all
                    .iter()
                    .map(|(k, v)| LEAF_ENTRY_OVERHEAD + k.len() + v.len())
                    .sum();
                let mut acc = 0usize;
                let mut split = all.len() / 2;
                for (i, (k, v)) in all.iter().enumerate() {
                    acc += LEAF_ENTRY_OVERHEAD + k.len() + v.len();
                    if acc * 2 >= total && i + 1 < all.len() {
                        split = i + 1;
                        break;
                    }
                }
                let re_new = all.split_off(split);
                let sep = re_new[0].0.clone();
                *le = all;
                *re = re_new;
                sep
            }
            (
                Node::Internal {
                    pivots: lp,
                    children: lc,
                },
                Node::Internal {
                    pivots: rp,
                    children: rc,
                },
            ) => {
                let mut all_p: Vec<Vec<u8>> = std::mem::take(lp);
                all_p.push(separator.clone());
                all_p.extend(std::mem::take(rp));
                let mut all_c: Vec<NodeId> = std::mem::take(lc);
                all_c.extend(std::mem::take(rc));
                let mid = all_p.len() / 2;
                let rp_new = all_p.split_off(mid + 1);
                let sep = all_p.pop().expect("nonempty");
                let rc_new = all_c.split_off(mid + 1);
                *lp = all_p;
                *rp = rp_new;
                *lc = all_c;
                *rc = rc_new;
                sep
            }
            _ => return Err(KvError::Corrupt("sibling level mismatch".into())),
        };
        self.write_node(left_id, &left)?;
        self.write_node(right_id, &right)?;
        pivots[li] = new_separator;
        self.write_node(id, node)?;
        Ok(())
    }

    /// Collapse single-child roots after deletions.
    fn collapse_root(&mut self) -> Result<(), KvError> {
        loop {
            let node = self.read_node(self.root)?;
            match node {
                Node::Internal {
                    ref pivots,
                    ref children,
                } if pivots.is_empty() => {
                    let only = children[0];
                    self.free_node(self.root);
                    self.root = only;
                    self.height -= 1;
                }
                _ => return Ok(()),
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn get_rec(&mut self, id: NodeId, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let node = self.read_node(id)?;
        match node {
            Node::Leaf { entries } => Ok(entries
                .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                .ok()
                .map(|i| entries[i].1.clone())),
            Node::Internal { ref children, .. } => {
                let idx = node.route(key);
                self.get_rec(children[idx], key)
            }
        }
    }

    fn range_rec(
        &mut self,
        id: NodeId,
        start: &[u8],
        end: &[u8],
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let node = self.read_node(id)?;
        match node {
            Node::Leaf { entries } => {
                let lo = entries.partition_point(|(k, _)| k.as_slice() < start);
                for (k, v) in &entries[lo..] {
                    if k.as_slice() >= end {
                        break;
                    }
                    out.push((k.clone(), v.clone()));
                }
                Ok(())
            }
            Node::Internal { pivots, children } => {
                for (i, &child) in children.iter().enumerate() {
                    let lower_ok = i == 0 || pivots[i - 1].as_slice() < end;
                    let upper_ok = i == pivots.len() || pivots[i].as_slice() > start;
                    if lower_ok && upper_ok {
                        self.range_rec(child, start, end, out)?;
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Build a tree bottom-up from strictly ascending `(key, value)` pairs.
    /// Far faster than repeated inserts for experiment preloads, and
    /// produces `bulk_fill`-full nodes.
    pub fn bulk_load(
        device: SharedDevice,
        cfg: BTreeConfig,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<Self, KvError> {
        let mut tree = BTree::create(device, cfg)?;
        let target = (cfg.node_bytes as f64 * cfg.bulk_fill) as usize;

        // Level 0: pack leaves.
        let mut leaf_refs: Vec<(Vec<u8>, NodeId)> = Vec::new(); // (first key, id)
        let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut current_bytes = NODE_HEADER_BYTES;
        let mut count = 0u64;
        let mut last_key: Option<Vec<u8>> = None;
        for (k, v) in pairs {
            if let Some(prev) = &last_key {
                if *prev >= k {
                    return Err(KvError::Config(
                        "bulk_load input not strictly ascending".into(),
                    ));
                }
            }
            last_key = Some(k.clone());
            tree.entry_fits(&k, &v)?;
            let sz = LEAF_ENTRY_OVERHEAD + k.len() + v.len();
            if current_bytes + sz > target && !current.is_empty() {
                let id = tree.alloc_node()?;
                let first = current[0].0.clone();
                tree.write_node(
                    id,
                    &Node::Leaf {
                        entries: std::mem::take(&mut current),
                    },
                )?;
                leaf_refs.push((first, id));
                current_bytes = NODE_HEADER_BYTES;
            }
            current_bytes += sz;
            current.push((k, v));
            count += 1;
        }
        if !current.is_empty() {
            let id = tree.alloc_node()?;
            let first = current[0].0.clone();
            tree.write_node(id, &Node::Leaf { entries: current })?;
            leaf_refs.push((first, id));
        }

        if leaf_refs.is_empty() {
            tree.count = 0;
            return Ok(tree);
        }

        // Upper levels: pack (first_key, id) runs into internal nodes.
        let mut level: Vec<(Vec<u8>, NodeId)> = leaf_refs;
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Vec<(Vec<u8>, NodeId)> = Vec::new();
            let mut pivots: Vec<Vec<u8>> = Vec::new();
            let mut children: Vec<NodeId> = Vec::new();
            let mut bytes = NODE_HEADER_BYTES + 8;
            let mut first_key: Option<Vec<u8>> = None;
            for (k, id) in level {
                let extra = 4 + k.len() + 8;
                if !children.is_empty() && bytes + extra > target {
                    let nid = tree.alloc_node()?;
                    tree.write_node(
                        nid,
                        &Node::Internal {
                            pivots: std::mem::take(&mut pivots),
                            children: std::mem::take(&mut children),
                        },
                    )?;
                    next.push((first_key.take().expect("nonempty internal"), nid));
                    bytes = NODE_HEADER_BYTES + 8;
                }
                if children.is_empty() {
                    first_key = Some(k);
                } else {
                    pivots.push(k);
                    bytes += extra - 8;
                }
                children.push(id);
                bytes += 8;
            }
            let nid = tree.alloc_node()?;
            tree.write_node(nid, &Node::Internal { pivots, children })?;
            next.push((first_key.expect("nonempty internal"), nid));
            height += 1;
            level = next;
        }

        // Free the placeholder root and install the built one.
        let built_root = level[0].1;
        tree.free_node(tree.root);
        tree.root = built_root;
        tree.height = height;
        tree.count = count;
        tree.flush()?;
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // Aging simulation
    // ------------------------------------------------------------------

    /// Scatter leaf placement: permute which device slot each leaf lives in,
    /// patching parent pointers. Content is unchanged; only *locality* is
    /// destroyed — a cheap stand-in for the fragmentation a long
    /// insert/delete history produces (§5: "as B-trees age, their nodes get
    /// spread out across disk, and range-query performance degrades").
    pub fn scatter_leaves(&mut self, seed: u64) -> Result<(), KvError> {
        if self.height == 1 {
            return Ok(());
        }
        // Collect (parent id, child index, leaf id) for every leaf.
        let mut refs: Vec<(NodeId, usize, NodeId)> = Vec::new();
        let mut stack: Vec<(NodeId, u32)> = vec![(self.root, self.height)];
        while let Some((id, level)) = stack.pop() {
            let node = self.read_node(id)?;
            if let Node::Internal { children, .. } = node {
                for (i, &child) in children.iter().enumerate() {
                    if level - 1 == 1 {
                        refs.push((id, i, child));
                    } else {
                        stack.push((child, level - 1));
                    }
                }
            }
        }
        // Permute the leaf slots among themselves.
        let mut rng = dam_stats::SplitMix64::new(seed);
        let mut perm: Vec<usize> = (0..refs.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        // Read every leaf, rewrite it at its permuted slot, patch parents.
        let contents: Vec<Node> = refs
            .iter()
            .map(|&(_, _, leaf)| self.read_node(leaf))
            .collect::<Result<_, _>>()?;
        for (i, &(parent, idx, _)) in refs.iter().enumerate() {
            let new_slot = refs[perm[i]].2;
            self.write_node(new_slot, &contents[i])?;
            let mut pnode = self.read_node(parent)?;
            let Node::Internal { children, .. } = &mut pnode else {
                unreachable!()
            };
            children[idx] = new_slot;
            self.write_node(parent, &pnode)?;
        }
        self.flush()
    }

    // ------------------------------------------------------------------
    // Invariant checking (test support)
    // ------------------------------------------------------------------

    /// Walk the whole tree verifying structural invariants; returns the
    /// number of live entries. Used by property tests.
    pub fn check_invariants(&mut self) -> Result<u64, KvError> {
        let root = self.root;
        let height = self.height;
        let n = self.check_rec(root, height, None, None)?;
        if n != self.count {
            return Err(KvError::Corrupt(format!(
                "count mismatch: walked {n}, tracked {}",
                self.count
            )));
        }
        Ok(n)
    }

    fn check_rec(
        &mut self,
        id: NodeId,
        level: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<u64, KvError> {
        let node = self.read_node(id)?;
        if node.serialized_size() > self.cfg.node_bytes {
            return Err(KvError::Corrupt(format!("node {id} oversize")));
        }
        match node {
            Node::Leaf { entries } => {
                if level != 1 {
                    return Err(KvError::Corrupt(format!("leaf {id} at level {level}")));
                }
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(KvError::Corrupt(format!("leaf {id} unsorted")));
                    }
                }
                for (k, _) in &entries {
                    if lo.is_some_and(|l| k.as_slice() < l) || hi.is_some_and(|h| k.as_slice() >= h)
                    {
                        return Err(KvError::Corrupt(format!("leaf {id} key out of bounds")));
                    }
                }
                Ok(entries.len() as u64)
            }
            Node::Internal { pivots, children } => {
                if level < 2 {
                    return Err(KvError::Corrupt(format!("internal {id} at leaf level")));
                }
                if children.len() != pivots.len() + 1 {
                    return Err(KvError::Corrupt(format!("internal {id} arity mismatch")));
                }
                for w in pivots.windows(2) {
                    if w[0] >= w[1] {
                        return Err(KvError::Corrupt(format!("internal {id} pivots unsorted")));
                    }
                }
                let mut total = 0u64;
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 {
                        lo
                    } else {
                        Some(pivots[i - 1].as_slice())
                    };
                    let chi = if i == pivots.len() {
                        hi
                    } else {
                        Some(pivots[i].as_slice())
                    };
                    total += self.check_rec(child, level - 1, clo, chi)?;
                }
                Ok(total)
            }
        }
    }
}

impl PagedCost for BTree {
    fn cost_parts(&mut self) -> (&Pager, &mut OpCost, Option<&Obs>) {
        (&self.pager, &mut self.last_cost, self.obs.as_ref())
    }
}

impl BTree {
    fn insert_inner(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.entry_fits(key, value)?;
        let root = self.root;
        let (new_key, split) = self.insert_rec(root, key, value)?;
        if let Some((pivot, right)) = split {
            let new_root = self.alloc_node()?;
            let node = Node::Internal {
                pivots: vec![pivot],
                children: vec![root, right],
            };
            self.write_node(new_root, &node)?;
            self.root = new_root;
            self.height += 1;
        }
        if new_key {
            self.count += 1;
        }
        Ok(())
    }

    fn delete_inner(&mut self, key: &[u8]) -> Result<(), KvError> {
        let root = self.root;
        let (removed, _) = self.delete_rec(root, key)?;
        if removed {
            self.count -= 1;
            self.collapse_root()?;
        }
        Ok(())
    }
}

impl Dictionary for BTree {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let snap = self.begin_op();
        self.insert_inner(key, value)?;
        self.finish_op(&snap);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        let snap = self.begin_op();
        self.delete_inner(key)?;
        self.finish_op(&snap);
        Ok(())
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // One cost window for the whole batch: successive root-to-leaf
        // descents share the cache, so the batch cost is what the serving
        // engine's group commit actually pays.
        let snap = self.begin_op();
        for op in batch {
            match op {
                BatchOp::Put { key, value } => self.insert_inner(key, value)?,
                BatchOp::Del { key } => self.delete_inner(key)?,
            }
        }
        self.finish_op(&snap);
        Ok(())
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let snap = self.begin_op();
        let root = self.root;
        let r = self.get_rec(root, key)?;
        self.finish_op(&snap);
        Ok(r)
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        let snap = self.begin_op();
        let mut out = Vec::new();
        if start < end {
            let root = self.root;
            self.range_rec(root, start, end, &mut out)?;
        }
        self.finish_op(&snap);
        Ok(out)
    }

    fn last_op_cost(&self) -> OpCost {
        self.last_cost
    }

    fn sync(&mut self) -> Result<(), KvError> {
        let snap = self.begin_op();
        // Durability contract: after a successful sync, `open` on the same
        // device recovers this exact state — so write the superblock too,
        // not just the dirty nodes.
        self.persist()?;
        self.finish_op(&snap);
        Ok(())
    }

    fn len(&mut self) -> Result<u64, KvError> {
        // No IO, but the accounting contract still applies: `last_op_cost`
        // must describe *this* op, so reset it rather than leaving the
        // previous op's numbers in place.
        let snap = self.begin_op();
        self.finish_op(&snap);
        Ok(self.count)
    }
}

#[cfg(test)]
mod tests {
    //! B-tree-specific behaviour. The contract every dictionary shares is
    //! checked once, for all four, by `tests/dictionary_contract.rs`.

    use super::*;
    use dam_kv::key_from_u64;
    use dam_storage::{RamDisk, SimDuration};

    fn tree(node_bytes: usize) -> BTree {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        BTree::create(dev, BTreeConfig::new(node_bytes, 1 << 20)).unwrap()
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            key_from_u64(i).to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }

    fn insert_all(t: &mut BTree, n: u64) {
        for i in 0..n {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
    }

    #[test]
    fn splits_grow_height_and_deletes_collapse_the_root() {
        let mut t = tree(256);
        assert_eq!(t.height(), 1);
        insert_all(&mut t, 500);
        assert!(t.height() >= 3, "height {}", t.height());
        for i in 0..500 {
            t.delete(&key_from_u64(i)).unwrap();
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.height(), 1, "root should collapse back to a leaf");
        assert_eq!(t.check_invariants().unwrap(), 0);
    }

    #[test]
    fn node_size_affects_tree_height() {
        let mut small = tree(256);
        let mut large = tree(4096);
        insert_all(&mut small, 1000);
        insert_all(&mut large, 1000);
        assert!(large.height() < small.height());
    }

    #[test]
    fn op_cost_reported() {
        let mut t = tree(512);
        insert_all(&mut t, 200);
        t.drop_cache().unwrap();
        let (k, _) = kv(100);
        t.get(&k).unwrap();
        let cost = t.last_op_cost();
        assert!(cost.ios >= 1, "cold get must do IO");
        assert!(cost.io_time_ns > 0);
        assert_eq!(cost.bytes_read, cost.ios * 512);
        // Warm repeat: free.
        t.get(&k).unwrap();
        assert_eq!(t.last_op_cost().ios, 0);
    }

    #[test]
    fn cold_query_reads_height_many_nodes() {
        let mut t = tree(512);
        insert_all(&mut t, 2000);
        t.drop_cache().unwrap();
        let (k, _) = kv(1234);
        t.get(&k).unwrap();
        assert_eq!(t.last_op_cost().ios as u32, t.height());
    }

    #[test]
    fn scatter_preserves_content_and_invariants() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..2000).map(kv).collect();
        let mut t = BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 20), pairs.clone()).unwrap();
        t.scatter_leaves(99).unwrap();
        t.check_invariants().unwrap();
        for (k, v) in pairs.iter().step_by(53) {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        let out = t.range(&key_from_u64(0), &key_from_u64(2000)).unwrap();
        assert_eq!(out, pairs);
    }

    #[test]
    fn scatter_on_single_leaf_is_noop() {
        let mut t = tree(4096);
        let (k, v) = kv(1);
        t.insert(&k, &v).unwrap();
        t.scatter_leaves(1).unwrap();
        assert_eq!(t.get(&k).unwrap(), Some(v));
    }
}
