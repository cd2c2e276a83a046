//! Offline shim for the subset of `rayon` this workspace uses:
//! `par_iter` / `par_iter_mut` / `par_chunks_mut` on slices, plus `zip`,
//! `enumerate`, and `for_each`.
//!
//! Parallel iterators here are splittable index ranges over slices. A
//! `for_each` splits the work into one contiguous part per available core
//! and drives each part on a `std::thread::scope` thread — real
//! parallelism, no work stealing. All uses in this workspace are
//! element-wise or disjoint-panel writes, so the split cannot change
//! results.

/// A splittable, length-aware parallel iterator.
pub trait ParallelIterator: Sized + Send {
    /// Item handed to the consumer closure.
    type Item: Send;
    /// Sequential iterator driving one split part.
    type Seq: Iterator<Item = Self::Item>;

    /// Remaining element count.
    fn len(&self) -> usize;

    /// Whether no elements remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into the first `n` elements and the rest.
    fn split_at(self, n: usize) -> (Self, Self);

    /// Convert into a sequential iterator over this part.
    fn into_seq(self) -> Self::Seq;

    /// Pair element-wise with `other` (length = shorter of the two).
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Attach global indices.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self, offset: 0 }
    }

    /// Apply `f` to every element, in parallel across cores.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = self.len();
        if threads <= 1 || n < 2 {
            self.into_seq().for_each(f);
            return;
        }
        let parts = threads.min(n);
        let per = n.div_ceil(parts);
        let mut chunks = Vec::with_capacity(parts);
        let mut rest = self;
        while rest.len() > per {
            let (head, tail) = rest.split_at(per);
            chunks.push(head);
            rest = tail;
        }
        chunks.push(rest);
        let f = &f;
        std::thread::scope(|s| {
            for part in chunks {
                s.spawn(move || part.into_seq().for_each(f));
            }
        });
    }
}

/// Shared-slice parallel iterator (`par_iter`).
pub struct ParIter<'a, T>(&'a [T]);

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, n: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(n.min(self.0.len()));
        (ParIter(a), ParIter(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter()
    }
}

/// Mutable-slice parallel iterator (`par_iter_mut`).
pub struct ParIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, n: usize) -> (Self, Self) {
        let mid = n.min(self.0.len());
        let (a, b) = self.0.split_at_mut(mid);
        (ParIterMut(a), ParIterMut(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter_mut()
    }
}

/// Mutable fixed-size chunk iterator (`par_chunks_mut`). One "element" is
/// one chunk; splits land on chunk boundaries.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }
    fn split_at(self, n: usize) -> (Self, Self) {
        let mid = (n * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (ParChunksMut { slice: a, chunk: self.chunk }, ParChunksMut { slice: b, chunk: self.chunk })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.chunk)
    }
}

/// Element-wise pairing of two parallel iterators.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, n: usize) -> (Self, Self) {
        let n = n.min(self.len());
        let (a1, a2) = self.a.split_at(n);
        let (b1, b2) = self.b.split_at(n);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Globally-indexed parallel iterator; indices survive splitting.
pub struct Enumerate<I> {
    inner: I,
    offset: usize,
}

/// Sequential side of [`Enumerate`].
pub struct EnumerateSeq<S> {
    inner: S,
    next: usize,
}

impl<S: Iterator> Iterator for EnumerateSeq<S> {
    type Item = (usize, S::Item);
    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        let i = self.next;
        self.next += 1;
        Some((i, item))
    }
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq = EnumerateSeq<I::Seq>;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn split_at(self, n: usize) -> (Self, Self) {
        let n = n.min(self.len());
        let (a, b) = self.inner.split_at(n);
        (
            Enumerate { inner: a, offset: self.offset },
            Enumerate { inner: b, offset: self.offset + n },
        )
    }
    fn into_seq(self) -> Self::Seq {
        EnumerateSeq { inner: self.inner.into_seq(), next: self.offset }
    }
}

/// Entry points on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel `&T` iterator.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter(self)
    }
}

/// Entry points on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel `&mut T` iterator.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over mutable chunks of `chunk` elements.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut(self)
    }
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "par_chunks_mut: chunk size must be nonzero");
        ParChunksMut { slice: self, chunk }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude::*`.
    pub use crate::{ParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn par_iter_mut_zip_matches_sequential() {
        let n = 10_000;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i * 3) as f64).collect();
        let mut out = vec![0.0; n];
        out.par_iter_mut()
            .zip(a.par_iter().zip(b.par_iter()))
            .for_each(|(o, (&x, &y))| *o = x + 2.0 * y);
        for i in 0..n {
            assert_eq!(out[i], a[i] + 2.0 * b[i]);
        }
    }

    #[test]
    fn par_chunks_mut_enumerate_indices_are_global() {
        let mut v = vec![0usize; 1003];
        v.par_chunks_mut(100).enumerate().for_each(|(ci, chunk)| {
            for x in chunk.iter_mut() {
                *x = ci;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 100, "element {i}");
        }
    }

    #[test]
    fn empty_and_single() {
        let mut v: Vec<u32> = vec![];
        v.par_iter_mut().for_each(|x| *x += 1);
        let mut one = [5u32];
        one.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(one[0], 6);
    }
}
