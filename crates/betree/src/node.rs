//! Standard Bε-tree node representation and on-disk format.
//!
//! An internal node carries, for each child, a buffer of pending messages
//! sorted by `(key, seq)`; "the buffer is part of the node and is written to
//! disk with the rest of the node" (§3).

use dam_kv::codec::{frame_into_slot, unframe, CodecError, Reader, Writer, FRAME_OVERHEAD};
use dam_kv::msg::Message;

/// Node location on the device.
pub type NodeId = u64;

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// Fixed serialization overhead per node: the checksummed frame header plus
/// tag + count.
pub const NODE_HEADER_BYTES: usize = FRAME_OVERHEAD + 1 + 4;
/// Per-leaf-entry overhead (two length prefixes).
pub const LEAF_ENTRY_OVERHEAD: usize = 8;

/// A standard Bε-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeNode {
    /// Sorted key-value pairs (like a B-tree leaf).
    Leaf {
        /// Entries in strictly ascending key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Pivots, children, and one message buffer per child.
    Internal {
        /// Strictly ascending pivots; `children.len() == pivots.len() + 1`.
        pivots: Vec<Vec<u8>>,
        /// Child node ids.
        children: Vec<NodeId>,
        /// `buffers[i]` holds messages destined for `children[i]`'s subtree,
        /// sorted by `(key, seq)`.
        buffers: Vec<Vec<Message>>,
    },
}

impl BeNode {
    /// An empty leaf.
    pub fn empty_leaf() -> BeNode {
        BeNode::Leaf {
            entries: Vec::new(),
        }
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, BeNode::Leaf { .. })
    }

    /// Exact serialized size in bytes.
    pub fn serialized_size(&self) -> usize {
        match self {
            BeNode::Leaf { entries } => {
                NODE_HEADER_BYTES
                    + entries
                        .iter()
                        .map(|(k, v)| LEAF_ENTRY_OVERHEAD + k.len() + v.len())
                        .sum::<usize>()
            }
            BeNode::Internal {
                pivots,
                children,
                buffers,
            } => {
                NODE_HEADER_BYTES
                    + pivots.iter().map(|p| 4 + p.len()).sum::<usize>()
                    + children.len() * 8
                    + buffers
                        .iter()
                        .map(|b| 4 + b.iter().map(Message::footprint).sum::<usize>())
                        .sum::<usize>()
            }
        }
    }

    /// Total bytes of buffered messages (internal nodes; 0 for leaves).
    pub fn buffer_bytes(&self) -> usize {
        match self {
            BeNode::Leaf { .. } => 0,
            BeNode::Internal { buffers, .. } => buffers
                .iter()
                .map(|b| b.iter().map(Message::footprint).sum::<usize>())
                .sum(),
        }
    }

    /// Index of the child routing `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        match self {
            BeNode::Internal { pivots, .. } => pivots.partition_point(|p| p.as_slice() <= key),
            BeNode::Leaf { .. } => panic!("route() on a leaf"),
        }
    }

    /// Serialize into a checksummed frame, padded with zeros to exactly
    /// `node_bytes`.
    pub fn encode(&self, node_bytes: usize) -> Vec<u8> {
        debug_assert!(
            self.serialized_size() <= node_bytes,
            "node of {} bytes exceeds slot of {}",
            self.serialized_size(),
            node_bytes
        );
        let mut w = Writer::with_capacity(node_bytes - FRAME_OVERHEAD);
        match self {
            BeNode::Leaf { entries } => {
                w.put_u8(TAG_LEAF);
                w.put_u32(entries.len() as u32);
                for (k, v) in entries {
                    w.put_bytes(k);
                    w.put_bytes(v);
                }
            }
            BeNode::Internal {
                pivots,
                children,
                buffers,
            } => {
                w.put_u8(TAG_INTERNAL);
                w.put_u32(pivots.len() as u32);
                for p in pivots {
                    w.put_bytes(p);
                }
                for &c in children {
                    w.put_u64(c);
                }
                debug_assert_eq!(buffers.len(), children.len());
                for buf in buffers {
                    w.put_u32(buf.len() as u32);
                    for m in buf {
                        m.encode(&mut w);
                    }
                }
            }
        }
        frame_into_slot(&w.into_bytes(), node_bytes)
    }

    /// Deserialize a node image, verifying its frame checksum first.
    pub fn decode(buf: &[u8]) -> Result<BeNode, CodecError> {
        let payload = unframe(buf)?;
        let mut r = Reader::new(payload);
        match r.get_u8()? {
            TAG_LEAF => {
                let n = r.get_u32()? as usize;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = r.get_bytes()?.to_vec();
                    let v = r.get_bytes()?.to_vec();
                    entries.push((k, v));
                }
                Ok(BeNode::Leaf { entries })
            }
            TAG_INTERNAL => {
                let n = r.get_u32()? as usize;
                let mut pivots = Vec::with_capacity(n);
                for _ in 0..n {
                    pivots.push(r.get_bytes()?.to_vec());
                }
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    children.push(r.get_u64()?);
                }
                let mut buffers = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    let m = r.get_u32()? as usize;
                    let mut buf = Vec::with_capacity(m);
                    for _ in 0..m {
                        buf.push(Message::decode(&mut r)?);
                    }
                    buffers.push(buf);
                }
                Ok(BeNode::Internal {
                    pivots,
                    children,
                    buffers,
                })
            }
            _ => Err(CodecError::Invalid("unknown benode tag")),
        }
    }
}

/// Apply `(key, seq)`-sorted messages over sorted entries in one merge pass;
/// returns the change in live-key count. Shared by both tree variants'
/// leaf-application paths.
pub fn apply_msgs_to_entries(
    entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    msgs: &[Message],
    merge: &dyn dam_kv::msg::MergeOperator,
) -> i64 {
    use dam_kv::msg::replay;
    if msgs.is_empty() {
        return 0;
    }
    let old = std::mem::take(entries);
    let mut out = Vec::with_capacity(old.len() + msgs.len());
    let mut delta = 0i64;
    let mut ei = old.into_iter().peekable();
    let mut mi = 0usize;
    while mi < msgs.len() {
        let key = &msgs[mi].key;
        while ei.peek().is_some_and(|(k, _)| k < key) {
            out.push(ei.next().expect("peeked"));
        }
        let start = mi;
        while mi < msgs.len() && &msgs[mi].key == key {
            mi += 1;
        }
        let group = &msgs[start..mi];
        let base = if ei.peek().is_some_and(|(k, _)| k == key) {
            Some(ei.next().expect("peeked").1)
        } else {
            None
        };
        let had = base.is_some();
        match replay(base.as_deref(), group, merge) {
            Some(v) => {
                if !had {
                    delta += 1;
                }
                out.push((key.clone(), v));
            }
            None => {
                if had {
                    delta -= 1;
                }
            }
        }
    }
    out.extend(ei);
    *entries = out;
    delta
}

/// Insert a message into a `(key, seq)`-sorted buffer, keeping order.
pub fn buffer_insert(buf: &mut Vec<Message>, msg: Message) {
    let pos = buf.partition_point(|m| (m.key.as_slice(), m.seq) <= (msg.key.as_slice(), msg.seq));
    buf.insert(pos, msg);
}

/// Merge two `(key, seq)`-sorted message runs.
pub fn buffer_merge(a: Vec<Message>, b: Vec<Message>) -> Vec<Message> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                if (x.key.as_slice(), x.seq) <= (y.key.as_slice(), y.seq) {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::msg::Operation;

    fn m(seq: u64, key: &[u8]) -> Message {
        Message {
            seq,
            key: key.to_vec(),
            op: Operation::Put(vec![seq as u8; 4]),
        }
    }

    #[test]
    fn leaf_roundtrip() {
        let node = BeNode::Leaf {
            entries: vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec()),
            ],
        };
        let buf = node.encode(256);
        assert_eq!(BeNode::decode(&buf).unwrap(), node);
    }

    #[test]
    fn internal_with_buffers_roundtrip() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a"), m(3, b"c")], vec![m(2, b"x")]],
        };
        let buf = node.encode(1024);
        assert_eq!(BeNode::decode(&buf).unwrap(), node);
    }

    #[test]
    fn serialized_size_is_exact_for_internal() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a")], vec![]],
        };
        let unpadded = node.encode(node.serialized_size());
        assert_eq!(unpadded.len(), node.serialized_size());
        assert_eq!(BeNode::decode(&unpadded).unwrap(), node);
    }

    #[test]
    fn buffer_bytes_counts_messages_only() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a")], vec![m(2, b"z"), m(3, b"z")]],
        };
        let expect: usize = [m(1, b"a"), m(2, b"z"), m(3, b"z")]
            .iter()
            .map(Message::footprint)
            .sum();
        assert_eq!(node.buffer_bytes(), expect);
        assert_eq!(BeNode::empty_leaf().buffer_bytes(), 0);
    }

    #[test]
    fn apply_messages_merge_pass() {
        use dam_kv::msg::LastWriteWins;
        let mut entries = vec![(b"b".to_vec(), b"old".to_vec())];
        let msgs = vec![
            Message {
                seq: 1,
                key: b"a".to_vec(),
                op: Operation::Put(b"x".to_vec()),
            },
            Message {
                seq: 2,
                key: b"b".to_vec(),
                op: Operation::Delete,
            },
            Message {
                seq: 3,
                key: b"c".to_vec(),
                op: Operation::Put(b"y".to_vec()),
            },
        ];
        let delta = apply_msgs_to_entries(&mut entries, &msgs, &LastWriteWins);
        assert_eq!(delta, 1); // +a, -b, +c
        assert_eq!(
            entries,
            vec![
                (b"a".to_vec(), b"x".to_vec()),
                (b"c".to_vec(), b"y".to_vec())
            ]
        );
    }

    #[test]
    fn buffer_insert_keeps_key_seq_order() {
        let mut buf = Vec::new();
        buffer_insert(&mut buf, m(5, b"b"));
        buffer_insert(&mut buf, m(1, b"b"));
        buffer_insert(&mut buf, m(3, b"a"));
        let order: Vec<(Vec<u8>, u64)> = buf.iter().map(|x| (x.key.clone(), x.seq)).collect();
        assert_eq!(
            order,
            vec![(b"a".to_vec(), 3), (b"b".to_vec(), 1), (b"b".to_vec(), 5)]
        );
    }

    #[test]
    fn buffer_merge_is_stable_sorted() {
        let a = vec![m(1, b"a"), m(4, b"c")];
        let b = vec![m(2, b"a"), m(3, b"b")];
        let out = buffer_merge(a, b);
        let order: Vec<(Vec<u8>, u64)> = out.iter().map(|x| (x.key.clone(), x.seq)).collect();
        assert_eq!(
            order,
            vec![
                (b"a".to_vec(), 1),
                (b"a".to_vec(), 2),
                (b"b".to_vec(), 3),
                (b"c".to_vec(), 4)
            ]
        );
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(BeNode::decode(&[7]).is_err());
        assert!(BeNode::decode(&[]).is_err());
    }

    #[test]
    fn decode_detects_corruption() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a"), m(3, b"c")], vec![m(2, b"x")]],
        };
        let mut buf = node.encode(1024);
        buf[NODE_HEADER_BYTES + 1] ^= 0x02; // flip one payload bit
        assert!(matches!(
            BeNode::decode(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // A torn prefix of the image must not decode either.
        let full = node.encode(1024);
        let mut torn = vec![0u8; 1024];
        torn[..40].copy_from_slice(&full[..40]);
        assert!(BeNode::decode(&torn).is_err());
    }

    #[test]
    fn route_uses_pivots() {
        let node = BeNode::Internal {
            pivots: vec![b"h".to_vec()],
            children: vec![1, 2],
            buffers: vec![vec![], vec![]],
        };
        assert_eq!(node.route(b"a"), 0);
        assert_eq!(node.route(b"h"), 1);
        assert_eq!(node.route(b"z"), 1);
    }
}
