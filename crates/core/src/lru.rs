//! A least-recently-used map bounded by a total charge.
//!
//! Each entry carries a caller-chosen charge: heap bytes for the
//! [`Runner`](crate::Runner)'s memo, 1 per entry for `tpi-serve`'s
//! completed-result tier. [`Lru::insert`] never evicts on its own;
//! [`Lru::evict`] drops least-recently-used entries until the charges fit
//! the budget again, skipping the entries the caller marks pinned. A
//! `BTreeMap` from last-use tick to key keeps both the touch and the
//! eviction walk logarithmic.
//!
//! ```
//! use tpi::Lru;
//!
//! let mut lru = Lru::new(2);
//! lru.insert("a", 1, 1);
//! lru.insert("b", 2, 1);
//! assert_eq!(lru.get(&"a"), Some(&1)); // "b" is now the oldest
//! lru.insert("c", 3, 1);
//! assert_eq!(lru.evict(|_| false), 1);
//! assert!(lru.get(&"b").is_none());
//! assert_eq!((lru.len(), lru.held()), (2, 2));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

struct Slot<V> {
    value: V,
    used: u64,
    charge: usize,
}

/// A map that evicts its least-recently-used entries once their summed
/// charges pass a fixed budget. See the [module docs](self).
pub struct Lru<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// Last-use tick to key, oldest first.
    order: BTreeMap<u64, K>,
    tick: u64,
    held: usize,
    budget: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map whose entries' charges may sum to `budget`.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Lru {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            held: 0,
            budget,
        }
    }

    /// The value under `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.entries.get_mut(key)?;
        self.tick += 1;
        self.order.remove(&slot.used);
        self.order.insert(self.tick, key.clone());
        slot.used = self.tick;
        Some(&slot.value)
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// replacing any value already there. Evicts nothing: call
    /// [`evict`](Self::evict) to come back under the budget.
    pub fn insert(&mut self, key: K, value: V, charge: usize) {
        self.tick += 1;
        self.order.insert(self.tick, key.clone());
        let slot = Slot {
            value,
            used: self.tick,
            charge,
        };
        self.held += charge;
        if let Some(old) = self.entries.insert(key, slot) {
            self.order.remove(&old.used);
            self.held -= old.charge;
        }
    }

    /// Drops least-recently-used entries until the charges fit the
    /// budget, never one for which `pinned` holds; returns how many
    /// entries it dropped. Pinned entries can keep the map over budget.
    pub fn evict(&mut self, pinned: impl Fn(&V) -> bool) -> u64 {
        let mut victims = Vec::new();
        let mut held = self.held;
        for (&used, key) in &self.order {
            if held <= self.budget {
                break;
            }
            let slot = &self.entries[key];
            if !pinned(&slot.value) {
                held -= slot.charge;
                victims.push(used);
            }
        }
        for used in &victims {
            if let Some(key) = self.order.remove(used) {
                self.entries.remove(&key);
            }
        }
        self.held = held;
        victims.len() as u64
    }

    /// Every entry, in unspecified order, without touching any.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, slot)| (k, &slot.value))
    }

    /// Summed charges of the entries held.
    #[must_use]
    pub fn held(&self) -> usize {
        self.held
    }

    /// Number of entries held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first_and_skips_pinned() {
        let mut lru = Lru::new(10);
        for (k, charge) in [(1, 4), (2, 4), (3, 4)] {
            lru.insert(k, k * 10, charge);
        }
        assert_eq!(lru.held(), 12);
        // 1 is the oldest but pinned, so 2 goes instead.
        assert_eq!(lru.evict(|&v| v == 10), 1);
        assert_eq!(lru.held(), 8);
        assert!(lru.get(&2).is_none());
        assert_eq!(lru.get(&1), Some(&10));
    }

    #[test]
    fn replacing_a_key_recharges_it() {
        let mut lru = Lru::new(5);
        lru.insert("k", 1, 3);
        lru.insert("k", 2, 4);
        assert_eq!((lru.len(), lru.held()), (1, 4));
        assert_eq!(lru.evict(|_| false), 0);
        assert_eq!(lru.get(&"k"), Some(&2));
    }

    #[test]
    fn everything_pinned_stays_over_budget() {
        let mut lru = Lru::new(1);
        lru.insert(1, (), 2);
        lru.insert(2, (), 2);
        assert_eq!(lru.evict(|()| true), 0);
        assert_eq!(lru.held(), 4);
        assert_eq!(lru.evict(|()| false), 2);
        assert!(lru.is_empty());
    }
}
