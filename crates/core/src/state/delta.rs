//! Delta capture of processing state: what an operator hands the SPS at a
//! checkpoint round, and the dirty-mark bookkeeping that makes producing it
//! cost what changed instead of what exists.

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::state::ProcessingState;
use crate::tuple::Key;

/// What [`StatefulOperator::take_state_delta`] captured.
///
/// [`StatefulOperator::take_state_delta`]: crate::StatefulOperator::take_state_delta
#[derive(Debug, Clone, PartialEq)]
pub enum StateDelta {
    /// The whole processing state. The receiver replaces whatever it holds.
    Full(ProcessingState),
    /// The difference to the state as of the previous capture: it contains
    /// **at least** every entry inserted or modified since then, with its
    /// current value, and every key removed since then. It may contain more
    /// (an entry rewritten to the value it already had, a removed key the
    /// previous capture never shipped); applying those is a no-op. No key is
    /// in both lists.
    Changes {
        /// Entries inserted or modified, in key order.
        changed: Vec<(Key, Bytes)>,
        /// Keys removed, in key order.
        removed: Vec<Key>,
    },
}

impl StateDelta {
    /// The delta of a state that did not change (and of a stateless
    /// operator, always).
    pub fn unchanged() -> Self {
        StateDelta::Changes {
            changed: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Add an entry the operator keeps outside its keyed map (window
    /// bookkeeping under a reserved key that sorts after every other): a
    /// full capture always carries it, a delta only if it `changed`.
    pub fn with_entry(mut self, key: Key, value: Bytes, changed: bool) -> Self {
        match &mut self {
            StateDelta::Full(state) => {
                state.insert(key, value);
            }
            StateDelta::Changes {
                changed: entries, ..
            } if changed => entries.push((key, value)),
            StateDelta::Changes { .. } => {}
        }
        self
    }
}

struct Slot<V> {
    value: V,
    /// Modified since the previous capture; the key is in `dirty` exactly
    /// when this is set.
    dirty: bool,
    /// Part of a previous capture, so a receiver may hold it and has to be
    /// told when it goes away.
    shipped: bool,
}

/// A keyed operator state (`Key → V`) that remembers which entries changed
/// since it was last captured.
///
/// Every mutating accessor leaves a dirty mark — one flag test per access,
/// one `Vec` push the first time a key changes in an interval — and
/// [`take_delta`](Self::take_delta) serialises only the marked entries. A
/// map that was never captured, or whose contents were just restored
/// ([`restore_from`](Self::restore_from)), keeps no marks at all; its first
/// capture is a full snapshot.
pub struct TrackedMap<V> {
    entries: BTreeMap<Key, Slot<V>>,
    dirty: Vec<Key>,
    removed: Vec<Key>,
    /// A capture has been taken of the current contents, so marks are kept.
    tracking: bool,
}

impl<V> Default for TrackedMap<V> {
    fn default() -> Self {
        TrackedMap {
            entries: BTreeMap::new(),
            dirty: Vec::new(),
            removed: Vec::new(),
            tracking: false,
        }
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for TrackedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> TrackedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value stored for `key`.
    pub fn get(&self, key: Key) -> Option<&V> {
        self.entries.get(&key).map(|slot| &slot.value)
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> + '_ {
        self.entries.iter().map(|(k, slot)| (*k, &slot.value))
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.values().map(|slot| &slot.value)
    }

    fn mark(tracking: bool, dirty: &mut Vec<Key>, key: Key, slot: &mut Slot<V>) {
        if tracking && !slot.dirty {
            slot.dirty = true;
            dirty.push(key);
        }
    }

    /// Mutable access to the value stored for `key`, marking it changed.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let slot = self.entries.get_mut(&key)?;
        Self::mark(self.tracking, &mut self.dirty, key, slot);
        Some(&mut slot.value)
    }

    /// Insert or replace the value for `key`, marking it changed.
    pub fn insert(&mut self, key: Key, value: V) {
        let mut value = Some(value);
        let slot = self.get_or_insert_with(key, || value.take().expect("taken once"));
        if let Some(value) = value {
            *slot = value;
        }
    }

    /// Mutable access to the value for `key`, inserting `default()` first if
    /// it is absent; either way the entry is marked changed.
    pub fn get_or_insert_with(&mut self, key: Key, default: impl FnOnce() -> V) -> &mut V {
        let slot = self.entries.entry(key).or_insert_with(|| Slot {
            value: default(),
            dirty: false,
            shipped: false,
        });
        Self::mark(self.tracking, &mut self.dirty, key, slot);
        &mut slot.value
    }

    /// Remove every entry (a window close).
    pub fn clear(&mut self) {
        let entries = std::mem::take(&mut self.entries);
        self.removed
            .extend(entries.iter().filter(|(_, s)| s.shipped).map(|(k, _)| *k));
        self.dirty.clear();
    }

    /// Replace the contents. The next capture is a full snapshot: whoever
    /// restores state decides separately what the backup holds.
    fn restore(&mut self, entries: impl IntoIterator<Item = (Key, V)>) {
        *self = Self::default();
        self.entries = entries
            .into_iter()
            .map(|(key, value)| {
                let slot = Slot {
                    value,
                    dirty: false,
                    shipped: false,
                };
                (key, slot)
            })
            .collect();
    }
}

impl<V: DeserializeOwned> TrackedMap<V> {
    /// Replace the contents with the entries of a checkpointed state,
    /// skipping any whose value does not decode as a `V`. The next capture
    /// is a full snapshot.
    pub fn restore_from(&mut self, state: &ProcessingState) {
        self.restore(
            state
                .iter()
                .filter_map(|(key, value)| Some((key, bincode::deserialize(value).ok()?))),
        );
    }
}

impl<V: Serialize> TrackedMap<V> {
    fn encode(value: &V) -> Bytes {
        crate::tuple::encode_bytes(value).expect("operator state entry serialises")
    }

    /// The whole map as processing-state entries. Leaves the marks alone.
    pub fn snapshot(&self) -> ProcessingState {
        self.iter()
            .map(|(key, value)| (key, Self::encode(value)))
            .collect()
    }

    /// Capture what changed since the previous call and clear the marks.
    /// The first call on fresh or restored contents returns
    /// [`StateDelta::Full`], and so does a call that finds more than half of
    /// the entries marked.
    pub fn take_delta(&mut self) -> StateDelta {
        // A delta that would carry most of the entries is taken as the full
        // state instead: it costs the same to serialise, and the receiver
        // replaces its copy rather than patching nearly all of it.
        if !self.tracking || self.dirty.len() * 2 > self.entries.len() {
            self.tracking = true;
            self.dirty.clear();
            self.removed.clear();
            for slot in self.entries.values_mut() {
                slot.dirty = false;
                slot.shipped = true;
            }
            return StateDelta::Full(self.snapshot());
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        let changed = dirty
            .into_iter()
            .map(|key| {
                let slot = self.entries.get_mut(&key).expect("dirty keys are present");
                slot.dirty = false;
                slot.shipped = true;
                (key, Self::encode(&slot.value))
            })
            .collect();
        // No removed key has an entry again: whatever was inserted after a
        // `clear` is all there is, which the rule above captures whole.
        let mut removed = std::mem::take(&mut self.removed);
        removed.sort_unstable();
        StateDelta::Changes { changed, removed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn changes(delta: StateDelta) -> (Vec<u64>, Vec<u64>) {
        match delta {
            StateDelta::Changes { changed, removed } => (
                changed.iter().map(|(k, _)| k.0).collect(),
                removed.iter().map(|k| k.0).collect(),
            ),
            StateDelta::Full(_) => panic!("expected changes"),
        }
    }

    /// A map with entries 100..110 that stay untouched, so that the few keys
    /// a test changes are well under half of it.
    fn map_with_ballast() -> TrackedMap<u64> {
        let mut map = TrackedMap::new();
        for key in 100..110u64 {
            map.insert(Key(key), 0);
        }
        map
    }

    #[test]
    fn first_capture_is_full_then_only_marked_entries_ship() {
        let mut map = map_with_ballast();
        map.insert(Key(2), 20u64);
        map.insert(Key(1), 10u64);
        let StateDelta::Full(state) = map.take_delta() else {
            panic!("first capture is full");
        };
        assert_eq!(state, map.snapshot());
        assert_eq!(state.len(), 12);

        assert_eq!(changes(map.take_delta()), (vec![], vec![]));
        *map.get_mut(Key(2)).unwrap() += 1;
        *map.get_mut(Key(2)).unwrap() += 1;
        *map.get_or_insert_with(Key(9), || 0) += 1;
        assert_eq!(map.get(Key(2)), Some(&22));
        let StateDelta::Changes { changed, removed } = map.take_delta() else {
            panic!("later captures are deltas");
        };
        assert_eq!(
            changed,
            vec![
                (Key(2), TrackedMap::encode(&22u64)),
                (Key(9), TrackedMap::encode(&1u64))
            ]
        );
        assert!(removed.is_empty());
        assert_eq!(changes(map.take_delta()), (vec![], vec![]));
    }

    #[test]
    fn clear_reports_shipped_keys_once_and_refills_ship_whole() {
        let mut map = TrackedMap::new();
        for key in 1..=8u64 {
            map.insert(Key(key), key);
        }
        map.take_delta();
        map.insert(Key(9), 9u64); // never shipped
        map.clear();
        for key in 2..=8u64 {
            map.insert(Key(key), 0); // back before the capture
        }
        // Everything present is new to the receiver: the whole state ships.
        assert!(matches!(map.take_delta(), StateDelta::Full(s) if s.len() == 7));
        map.clear();
        map.insert(Key(1), 1);
        map.take_delta();
        map.clear();
        assert_eq!(changes(map.take_delta()), (vec![], vec![1]));
        assert_eq!(changes(map.take_delta()), (vec![], vec![]));
    }

    #[test]
    fn a_mostly_changed_map_is_captured_whole() {
        let mut map = TrackedMap::new();
        for key in 0..10u64 {
            map.insert(Key(key), key);
        }
        map.take_delta();
        for key in 0..5u64 {
            *map.get_mut(Key(key)).unwrap() += 1;
        }
        assert_eq!(changes(map.take_delta()).0.len(), 5, "half: still a delta");
        for key in 0..6u64 {
            *map.get_mut(Key(key)).unwrap() += 1;
        }
        assert_eq!(map.take_delta(), StateDelta::Full(map.snapshot()));
        // The marks started afresh with that capture.
        *map.get_mut(Key(9)).unwrap() += 1;
        assert_eq!(changes(map.take_delta()), (vec![9], vec![]));
    }

    #[test]
    fn restored_contents_start_untracked() {
        let mut map = TrackedMap::new();
        map.insert(Key(1), 1u64);
        map.take_delta();
        map.restore([(Key(5), 5u64)]);
        *map.get_mut(Key(5)).unwrap() = 6;
        assert!(map.dirty.is_empty(), "no marks before the first capture");
        assert!(matches!(map.take_delta(), StateDelta::Full(s) if s.len() == 1));
        assert_eq!(changes(map.take_delta()), (vec![], vec![]));
    }
}
