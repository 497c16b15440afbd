//! Hash and btree indexes over `Int64` keys.

use crate::table::RowId;
use std::collections::{BTreeMap, HashMap};

/// The physical structure of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// O(1) point lookups; no ordered iteration.
    Hash,
    /// Ordered; supports range scans.
    BTree,
}

/// A secondary (or primary) index mapping `i64` keys to row ids.
#[derive(Debug)]
pub enum Index {
    Hash(HashMap<i64, Vec<RowId>>),
    BTree(BTreeMap<i64, Vec<RowId>>),
}

/// A hash index (alias used in public re-exports).
pub type HashIndex = HashMap<i64, Vec<RowId>>;
/// A btree index (alias used in public re-exports).
pub type BTreeIndex = BTreeMap<i64, Vec<RowId>>;

impl Index {
    pub fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::Hash => Index::Hash(HashMap::new()),
            IndexKind::BTree => Index::BTree(BTreeMap::new()),
        }
    }

    pub fn kind(&self) -> IndexKind {
        match self {
            Index::Hash(_) => IndexKind::Hash,
            Index::BTree(_) => IndexKind::BTree,
        }
    }

    pub fn insert(&mut self, key: i64, id: RowId) {
        match self {
            Index::Hash(m) => m.entry(key).or_default().push(id),
            Index::BTree(m) => m.entry(key).or_default().push(id),
        }
    }

    pub fn remove(&mut self, key: i64, id: RowId) {
        let slot = match self {
            Index::Hash(m) => m.get_mut(&key),
            Index::BTree(m) => m.get_mut(&key),
        };
        if let Some(ids) = slot {
            ids.retain(|&x| x != id);
            if ids.is_empty() {
                match self {
                    Index::Hash(m) => {
                        m.remove(&key);
                    }
                    Index::BTree(m) => {
                        m.remove(&key);
                    }
                }
            }
        }
    }

    /// Row ids under `key`, borrowed from the index; empty on a miss.
    pub fn get(&self, key: i64) -> &[RowId] {
        match self {
            Index::Hash(m) => m.get(&key),
            Index::BTree(m) => m.get(&key),
        }
        .map_or(&[], Vec::as_slice)
    }

    /// Ordered range scan (BTree only; Hash returns an error-free empty set
    /// to keep callers simple — the planner never range-scans a hash index).
    pub fn range(&self, lo: i64, hi: i64) -> Vec<RowId> {
        match self {
            Index::Hash(_) => Vec::new(),
            Index::BTree(m) => m
                .range(lo..=hi)
                .flat_map(|(_, v)| v.iter().copied())
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Index::Hash(m) => m.values().map(Vec::len).sum(),
            Index::BTree(m) => m.values().map(Vec::len).sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        match self {
            Index::Hash(m) => m.is_empty(),
            Index::BTree(m) => m.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut ix = Index::new(kind);
            ix.insert(5, 1);
            ix.insert(5, 2);
            ix.insert(7, 3);
            assert_eq!(ix.get(5), [1, 2]);
            assert_eq!(ix.len(), 3);
            ix.remove(5, 1);
            assert_eq!(ix.get(5), [2]);
            ix.remove(5, 2);
            assert!(ix.get(5).is_empty());
            assert_eq!(ix.len(), 1);
        }
    }

    #[test]
    fn btree_range() {
        let mut ix = Index::new(IndexKind::BTree);
        for k in 0..10 {
            ix.insert(k, k as RowId);
        }
        assert_eq!(ix.range(3, 5), vec![3, 4, 5]);
        assert!(Index::new(IndexKind::Hash).range(0, 10).is_empty());
    }
}
