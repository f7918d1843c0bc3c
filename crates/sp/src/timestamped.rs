//! Generation-stamped scratch vectors.
//!
//! A BFS scratch row has to look "all `UNREACHABLE`" at the start of every
//! sweep; filling an `O(n)` array per query is pure memory traffic that the
//! route-planning engines this project borrows its serving idioms from avoid
//! with *timestamped vectors*: every slot carries the epoch of its last
//! write, and a stale stamp makes the slot read as the default value. A
//! reset is then a single counter increment instead of an `O(n)` fill.
//!
//! [`TimestampedVector`] is the safe-Rust variant of that idiom used by the
//! query engine's full-sweep scratch, its target-restricted sweep's target
//! marks and the interference scans' visit marks.

/// A `Vec<T>` whose `clear` is `O(1)`: each slot is valid only if its epoch
/// stamp matches the vector's current epoch; stale slots read as the default.
#[derive(Clone, Debug)]
pub struct TimestampedVector<T: Copy> {
    data: Vec<T>,
    stamps: Vec<u32>,
    /// Epoch of valid slots. Starts at 1 with all stamps 0, so a fresh
    /// vector reads as all-default without any initial fill of `data`.
    current: u32,
    default: T,
}

impl<T: Copy> TimestampedVector<T> {
    /// A vector of `len` slots, all reading as `default`.
    pub fn new(len: usize, default: T) -> Self {
        TimestampedVector {
            data: vec![default; len],
            stamps: vec![0; len],
            current: 1,
            default,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for a zero-length vector.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Invalidate every slot in `O(1)`: all slots read as the default again.
    ///
    /// On epoch wrap-around (once per `u32::MAX` resets) the stamps are
    /// hard-cleared so a stamp surviving from ~4 billion resets ago can
    /// never masquerade as current.
    pub fn reset(&mut self) {
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            self.stamps.fill(0);
            self.current = 1;
        }
    }

    /// Read slot `index`: the last value set since the latest
    /// [`TimestampedVector::reset`], or the default.
    #[inline]
    pub fn get(&self, index: usize) -> T {
        if self.stamps[index] == self.current {
            self.data[index]
        } else {
            self.default
        }
    }

    /// Write slot `index`, marking it valid for the current epoch.
    #[inline]
    pub fn set(&mut self, index: usize, value: T) {
        self.data[index] = value;
        self.stamps[index] = self.current;
    }

    /// `true` if slot `index` was written since the latest reset.
    #[inline]
    pub fn is_set(&self, index: usize) -> bool {
        self.stamps[index] == self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vector_reads_default_everywhere() {
        let v: TimestampedVector<u32> = TimestampedVector::new(4, u32::MAX);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        for i in 0..4 {
            assert_eq!(v.get(i), u32::MAX);
            assert!(!v.is_set(i));
        }
    }

    #[test]
    fn set_then_reset_restores_defaults_without_touching_data() {
        let mut v = TimestampedVector::new(3, 0u32);
        v.set(1, 42);
        assert_eq!(v.get(1), 42);
        assert!(v.is_set(1));
        v.reset();
        assert_eq!(v.get(1), 0, "stale slot must read as default");
        assert!(!v.is_set(1));
        v.set(1, 7);
        assert_eq!(v.get(1), 7);
        assert_eq!(v.get(0), 0);
    }

    #[test]
    fn epoch_wraparound_hard_clears_stamps() {
        let mut v = TimestampedVector::new(2, -1i32);
        v.set(0, 5);
        // Force the epoch to the wrap point and step over it.
        v.current = u32::MAX;
        v.set(1, 6);
        assert_eq!(v.get(1), 6);
        v.reset();
        assert_eq!(v.current, 1);
        assert_eq!(v.get(0), -1);
        assert_eq!(v.get(1), -1, "wrap must not resurrect old stamps");
    }

    #[test]
    fn zero_length_vector_is_fine() {
        let mut v: TimestampedVector<u8> = TimestampedVector::new(0, 0);
        assert!(v.is_empty());
        v.reset();
    }
}
