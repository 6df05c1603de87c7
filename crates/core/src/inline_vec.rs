//! Fixed-capacity vectors stored inline.
//!
//! A trace holds at most [`crate::MAX_TRACE_LEN`] instructions, so
//! every per-trace table — dependence lists, issue order, execution
//! cycles, the I-cache lines a slow-path build walks — has a small
//! static bound. [`InlineVec`] keeps such a table in a plain array
//! with a length, so building one per trace costs no heap allocation.
//! It keeps insertion order, like `Vec`: the preprocessor's
//! combined-ALU collapse picks the *first* qualifying producer in a
//! dependence list, so the order is part of the timing model.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of at most `N` `Copy` elements (`N` ≤ 255), stored inline.
///
/// Dereferences to a slice; equality and `Debug` look at the live
/// elements only.
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    const CAPACITY_FITS_U8: () = assert!(N <= u8::MAX as usize, "InlineVec capacity above 255");

    /// An empty vector.
    #[inline]
    pub fn new() -> Self {
        let () = Self::CAPACITY_FITS_U8;
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// `len` copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > N`.
    #[inline]
    pub fn filled(value: T, len: usize) -> Self {
        assert!(len <= N, "InlineVec of capacity {N} asked to hold {len}");
        let mut v = Self::new();
        v.items[..len].fill(value);
        v.len = len as u8; // len <= N <= 255
        v
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the vector is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        let len = self.len as usize;
        assert!(len < N, "InlineVec capacity {N} exceeded");
        self.items[len] = value;
        self.len += 1;
    }

    /// Removes and returns the last element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let len = self.len.checked_sub(1)?;
        self.len = len;
        Some(self.items[len as usize])
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps only the elements for which `keep` returns true, in
    /// order.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len as usize {
            if keep(&self.items[i]) {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.len = kept as u8; // kept <= len
    }

    /// The live elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    /// The live elements, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    /// # Panics
    ///
    /// Panics if the iterator yields more than `N` elements.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_insertion_order() {
        let mut v: InlineVec<u8, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(3);
        v.push(1);
        v.push(2);
        assert_eq!(&v[..], [3, 1, 2]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn retain_keeps_order() {
        let mut v: InlineVec<u8, 8> = [5, 1, 4, 2, 3].into_iter().collect();
        v.retain(|&x| x != 4 && x != 1);
        assert_eq!(&v[..], [5, 2, 3]);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a: InlineVec<u8, 4> = [1, 2, 9].into_iter().collect();
        a.retain(|&x| x != 9);
        let b: InlineVec<u8, 4> = [1, 2].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[1, 2]");
    }

    #[test]
    fn pop_and_clear() {
        let mut v: InlineVec<u8, 4> = [1, 2].into_iter().collect();
        assert_eq!(v.pop(), Some(2));
        assert_eq!(&v[..], [1]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn filled_and_mutation() {
        let mut v: InlineVec<u64, 16> = InlineVec::filled(7, 3);
        v[1] = 9;
        assert_eq!(&v[..], [7, 9, 7]);
        assert_eq!(v.iter().copied().max(), Some(9));
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
    }
}
