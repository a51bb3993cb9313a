//! The stream container and item model.
//!
//! Items are identified by [`ItemKey`]s (64-bit keys; see `cs_hash::mix`
//! for the reduction from arbitrary hashable items). A [`Stream`] is an
//! in-memory sequence of keys — the experiments need random access for
//! multi-pass algorithms (the paper's CANDIDATETOP second pass and the
//! §4.2 max-change algorithm are 2-pass), so streams are materialized
//! rather than consumed lazily. Single-pass algorithms only ever call
//! [`Stream::iter`].

use cs_hash::ItemKey;
use std::hash::Hash;

/// An in-memory data stream: a sequence of item occurrences.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stream {
    items: Vec<ItemKey>,
}

impl Stream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stream from raw keys.
    pub fn from_keys(items: Vec<ItemKey>) -> Self {
        Self { items }
    }

    /// Creates a stream from plain `u64` item identifiers.
    pub fn from_ids(ids: impl IntoIterator<Item = u64>) -> Self {
        Self {
            items: ids.into_iter().map(ItemKey).collect(),
        }
    }

    /// Creates a stream by hashing arbitrary items to keys.
    pub fn from_items<T: Hash>(items: impl IntoIterator<Item = T>) -> Self {
        Self {
            items: items.into_iter().map(|it| ItemKey::of(&it)).collect(),
        }
    }

    /// Appends one occurrence.
    pub fn push(&mut self, key: ItemKey) {
        self.items.push(key);
    }

    /// The stream length `n` (total occurrences, with multiplicity).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over occurrences in stream order.
    pub fn iter(&self) -> impl Iterator<Item = ItemKey> + '_ {
        self.items.iter().copied()
    }

    /// The underlying key slice.
    pub fn as_slice(&self) -> &[ItemKey] {
        &self.items
    }

    /// Concatenates another stream onto this one.
    pub fn extend_from(&mut self, other: &Stream) {
        self.items.extend_from_slice(&other.items);
    }

    /// Bytes of heap memory held by the stream.
    pub fn space_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<ItemKey>()
    }
}

impl FromIterator<ItemKey> for Stream {
    fn from_iter<I: IntoIterator<Item = ItemKey>>(iter: I) -> Self {
        Stream {
            items: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Stream {
    type Item = ItemKey;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ItemKey>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ids_and_len() {
        let s = Stream::from_ids([1, 2, 2, 3]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.as_slice()[1], ItemKey(2));
    }

    #[test]
    fn empty_stream() {
        let s = Stream::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn from_items_hashes_consistently() {
        let s1 = Stream::from_items(["a", "b", "a"]);
        let s2 = Stream::from_items(["a", "b", "a"]);
        assert_eq!(s1, s2);
        assert_eq!(s1.as_slice()[0], s1.as_slice()[2]);
        assert_ne!(s1.as_slice()[0], s1.as_slice()[1]);
    }

    #[test]
    fn push_and_extend() {
        let mut s = Stream::from_ids([1]);
        s.push(ItemKey(2));
        let other = Stream::from_ids([3, 4]);
        s.extend_from(&other);
        assert_eq!(s, Stream::from_ids([1, 2, 3, 4]));
    }

    #[test]
    fn from_iterator_collects() {
        let s: Stream = (0..5).map(ItemKey).collect();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn into_iterator_for_ref() {
        let s = Stream::from_ids([7, 8]);
        let v: Vec<ItemKey> = (&s).into_iter().collect();
        assert_eq!(v, vec![ItemKey(7), ItemKey(8)]);
    }

    #[test]
    fn wire_roundtrip() {
        let s = Stream::from_ids([5, 6, 5]);
        let back = crate::io::decode(&crate::io::encode(&s)).unwrap();
        assert_eq!(s, back);
    }
}
