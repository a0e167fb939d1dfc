//! Parallel iterators with **thread-count-independent chunk boundaries**.
//!
//! # The determinism contract
//!
//! Every adapter in this module cuts its input into tasks whose boundaries are
//! a pure function of the input *length* (and the caller's chunk size) — never
//! of the pool's thread count or of runtime scheduling.  Combined with the two
//! execution rules below, that makes every `par_*` entry point bit-for-bit
//! reproducible across thread counts:
//!
//! 1. **Disjoint writes** (`for_each` over `par_iter_mut` / `par_chunks_mut` /
//!    ranges): each output element is written by exactly one task, so the
//!    *order* in which tasks run cannot change the result at all.
//! 2. **Ordered reduction** (`sum`, `collect_into_vec`): per-task partials are
//!    stored in a slot indexed by task id and folded **in ascending task
//!    order** on the calling thread.  The fold tree is therefore fixed by the
//!    input length alone; running with 1 or N threads produces the same bits
//!    even for non-associative `f64` addition.
//!
//! This is the same contract the distributed executor proves at the shard
//! level (`ShardAxis::Rows` folds shard contributions in ascending global row
//! order); here it is enforced at the thread level.

use crate::registry::current_registry;
use std::iter::Sum;
use std::ops::Range;
use std::sync::Mutex;

/// Upper bound on the number of tasks one operation is cut into.  More tasks
/// than threads keeps the claim-based load balancing effective on ragged
/// workloads without swamping the injector.
const TARGET_TASKS: usize = 512;

/// Minimum number of *elements* a task should own before it is worth shipping
/// to another thread.  Tiny inputs collapse to a single task (which
/// [`crate::registry`] then runs inline, serially).
const MIN_TASK_ELEMS: usize = 1024;

/// Units of work per task for an input of `n_units` units, each covering
/// roughly `unit_elems` elements.
///
/// Depends only on `(n_units, unit_elems)` — **never** on the thread count —
/// which is what keeps task boundaries (and hence reduction order) identical
/// across pools.
fn units_per_task(n_units: usize, unit_elems: usize) -> usize {
    let by_target = n_units.div_ceil(TARGET_TASKS);
    let by_elems = MIN_TASK_ELEMS.div_ceil(unit_elems.max(1));
    by_target.max(by_elems).max(1)
}

/// A raw pointer that may cross threads.
///
/// # Safety invariant
///
/// Only ever used to materialise **disjoint** sub-slices of one live slice,
/// with the originating borrow held for the whole parallel call.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the whole
    /// wrapper — Rust 2021's disjoint capture would otherwise grab the bare
    /// `*mut T` field, which is not `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Run `body(task)` for tasks `0..n_tasks` on the current pool.
fn run_tasks(n_tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    current_registry().run_batch(n_tasks, body);
}

// ---------------------------------------------------------------------------
// Ranges: `(0..n).into_par_iter()`
// ---------------------------------------------------------------------------

/// Types convertible into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over a `Range<usize>`.
///
/// Range indices are treated as *heavy* units (each typically drives a whole
/// block of work, as in `gpu_sim::parallel_for`), so they are spread one-ish
/// per task rather than grouped by `MIN_TASK_ELEMS`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Apply `f` to every index, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let (start, len) = (self.range.start, self.range.len());
        if len == 0 {
            return;
        }
        let per = units_per_task(len, MIN_TASK_ELEMS);
        run_tasks(len.div_ceil(per), &|t| {
            let lo = start + t * per;
            let hi = (lo + per).min(start + len);
            for i in lo..hi {
                f(i);
            }
        });
    }

    /// Map every index through `f`, yielding a reducible parallel iterator.
    pub fn map<R, F>(self, f: F) -> ParMap<F, R>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        ParMap {
            range: self.range,
            f,
            _out: std::marker::PhantomData,
        }
    }
}

/// A mapped parallel range, ready for an **ordered** reduction.
pub struct ParMap<F, R> {
    range: Range<usize>,
    f: F,
    _out: std::marker::PhantomData<fn() -> R>,
}

impl<F, R> ParMap<F, R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    /// Cut the range into tasks, compute one partial per task in parallel, and
    /// fold the partials **in ascending task order** on the calling thread.
    fn reduce_ordered<P, Fold>(self, fold_task: Fold) -> Vec<P>
    where
        P: Send,
        Fold: Fn(&F, Range<usize>) -> P + Sync,
    {
        let (start, len) = (self.range.start, self.range.len());
        let per = units_per_task(len, MIN_TASK_ELEMS);
        let n_tasks = len.div_ceil(per);
        let slots: Vec<Mutex<Option<P>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let f = &self.f;
        run_tasks(n_tasks, &|t| {
            let lo = start + t * per;
            let hi = (lo + per).min(start + len);
            *slots[t].lock().unwrap() = Some(fold_task(f, lo..hi));
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every task fills its slot")
            })
            .collect()
    }

    /// Sum the mapped values.
    ///
    /// Per-task partial sums are folded in ascending task order, so the result
    /// depends only on the range length — not the thread count.
    pub fn sum<S>(self) -> S
    where
        S: Send + Sum<R> + Sum<S>,
    {
        if self.range.is_empty() {
            return std::iter::empty::<R>().sum();
        }
        self.reduce_ordered(|f, task| task.map(f).sum::<S>())
            .into_iter()
            .sum()
    }

    /// Collect the mapped values into `target` (cleared first), preserving
    /// index order exactly like the serial `collect`.
    pub fn collect_into_vec(self, target: &mut Vec<R>) {
        target.clear();
        if self.range.is_empty() {
            return;
        }
        let parts = self.reduce_ordered(|f, task| task.map(f).collect::<Vec<R>>());
        for part in parts {
            target.extend(part);
        }
    }
}

// ---------------------------------------------------------------------------
// Mutable slices: `par_iter_mut` / `par_chunks_mut`
// ---------------------------------------------------------------------------

/// `slice.par_iter_mut()` / `slice.par_chunks_mut(n)`: borrowing parallel
/// iterators over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut` elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over non-overlapping mutable chunks of `chunk_size`
    /// elements (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        ParChunksMut {
            slice: self,
            chunk_size,
            max_len: usize::MAX,
        }
    }
}

/// Parallel iterator over mutable elements of a slice.
pub struct ParIterMut<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pair every element with its index.
    pub fn enumerate(self) -> ParIterMutEnumerate<'a, T> {
        ParIterMutEnumerate { slice: self.slice }
    }

    /// Apply `f` to every element, in parallel.  Writes are disjoint, so the
    /// result is independent of scheduling by construction.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        self.enumerate().for_each(|(_, x)| f(x));
    }
}

/// Enumerated variant of [`ParIterMut`].
pub struct ParIterMutEnumerate<'a, T: Send> {
    slice: &'a mut [T],
}

impl<T: Send> ParIterMutEnumerate<'_, T> {
    /// Apply `f` to every `(index, &mut element)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        let len = self.slice.len();
        if len == 0 {
            return;
        }
        let per = units_per_task(len, 1);
        let base = SendPtr(self.slice.as_mut_ptr());
        run_tasks(len.div_ceil(per), &|t| {
            let lo = t * per;
            let hi = (lo + per).min(len);
            // SAFETY: tasks cover disjoint index ranges of one mutable slice
            // whose borrow is held for the duration of `run_tasks`.
            let sub = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            for (k, x) in sub.iter_mut().enumerate() {
                f((lo + k, x));
            }
        });
    }
}

/// Parallel iterator over non-overlapping mutable chunks of a slice.
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
    max_len: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Put at most `max` chunks in one task (rayon's `with_max_len`).
    ///
    /// By default small chunks are grouped until a task owns
    /// `MIN_TASK_ELEMS` elements; a caller whose chunks are heavy (each
    /// drives far more work than its length) lifts that grouping here.  The
    /// cap is the caller's constant, so task boundaries stay a pure function
    /// of the input length.
    pub fn with_max_len(mut self, max: usize) -> Self {
        self.max_len = max.max(1);
        self
    }

    /// Pair every chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate {
            slice: self.slice,
            chunk_size: self.chunk_size,
            max_len: self.max_len,
        }
    }

    /// Apply `f` to every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct ParChunksMutEnumerate<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
    max_len: usize,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Apply `f` to every `(chunk_index, &mut chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let len = self.slice.len();
        if len == 0 {
            return;
        }
        let chunk_size = self.chunk_size;
        let n_chunks = len.div_ceil(chunk_size);
        let per = units_per_task(n_chunks, chunk_size).min(self.max_len);
        let base = SendPtr(self.slice.as_mut_ptr());
        run_tasks(n_chunks.div_ceil(per), &|t| {
            let first = t * per;
            let last = (first + per).min(n_chunks);
            for c in first..last {
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(len);
                // SAFETY: chunks are non-overlapping sub-slices of one mutable
                // slice whose borrow is held for the duration of `run_tasks`.
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
                f((c, chunk));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Shared slices: `par_iter` / `par_chunks`
// ---------------------------------------------------------------------------

/// `slice.par_iter()` / `slice.par_chunks(n)`: borrowing parallel iterators
/// over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&` elements.
    fn par_iter(&self) -> ParIter<'_, T>;
    /// Parallel iterator over non-overlapping shared chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        ParChunks {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over shared elements of a slice.
pub struct ParIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<T: Sync> ParIter<'_, T> {
    /// Apply `f` to every `(index, &element)` pair, in parallel.
    pub fn for_each_indexed<F>(self, f: F)
    where
        F: Fn(usize, &T) + Sync,
    {
        let slice = self.slice;
        if slice.is_empty() {
            return;
        }
        let per = units_per_task(slice.len(), 1);
        run_tasks(slice.len().div_ceil(per), &|t| {
            let lo = t * per;
            let hi = (lo + per).min(slice.len());
            for (i, x) in slice[lo..hi].iter().enumerate() {
                f(lo + i, x);
            }
        });
    }

    /// Apply `f` to every element, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&T) + Sync,
    {
        self.for_each_indexed(|_, x| f(x));
    }
}

/// Parallel iterator over non-overlapping shared chunks of a slice.
pub struct ParChunks<'a, T: Sync> {
    slice: &'a [T],
    chunk_size: usize,
}

impl<T: Sync> ParChunks<'_, T> {
    /// Apply `f` to every `(chunk_index, &chunk)` pair, in parallel.
    pub fn for_each_indexed<F>(self, f: F)
    where
        F: Fn(usize, &[T]) + Sync,
    {
        let (slice, chunk_size) = (self.slice, self.chunk_size);
        if slice.is_empty() {
            return;
        }
        let n_chunks = slice.len().div_ceil(chunk_size);
        let per = units_per_task(n_chunks, chunk_size);
        run_tasks(n_chunks.div_ceil(per), &|t| {
            let first = t * per;
            let last = (first + per).min(n_chunks);
            for c in first..last {
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(slice.len());
                f(c, &slice[lo..hi]);
            }
        });
    }

    /// Apply `f` to every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&[T]) + Sync,
    {
        self.for_each_indexed(|_, chunk| f(chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_per_task_ignores_thread_count_inputs() {
        // Pure function of (n_units, unit_elems): same answer every call.
        assert_eq!(units_per_task(10, 1), MIN_TASK_ELEMS);
        assert_eq!(units_per_task(1 << 20, 1), (1 << 20) / TARGET_TASKS);
        assert_eq!(units_per_task(100, 4096), 1);
        assert_eq!(units_per_task(0, 0), MIN_TASK_ELEMS);
    }

    #[test]
    fn par_iter_mut_enumerate_writes_global_indices() {
        let mut data = vec![0usize; 10_000];
        data.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_chunks_mut_covers_a_ragged_tail() {
        let mut data = vec![0u32; 10_001];
        data.par_chunks_mut(64).enumerate().for_each(|(c, chunk)| {
            for x in chunk {
                *x = c as u32;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x as usize, i / 64, "element {i}");
        }
    }

    #[test]
    fn with_max_len_splits_small_chunks_into_their_own_tasks() {
        // Four 250-element chunks group into one task by default.
        assert!(units_per_task(4, 250) >= 4);
        let mut data = vec![0u32; 1001];
        data.par_chunks_mut(250)
            .with_max_len(1)
            .enumerate()
            .for_each(|(c, chunk)| chunk.fill(c as u32));
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x as usize, i / 250, "element {i}");
        }
    }

    #[test]
    fn collect_into_vec_preserves_order() {
        let mut out = vec![1usize; 3]; // stale contents must be cleared
        (0..5_000usize)
            .into_par_iter()
            .map(|i| i * i)
            .collect_into_vec(&mut out);
        assert_eq!(out.len(), 5_000);
        for (i, x) in out.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn float_sum_is_identical_across_repeats() {
        // The ordered fold must give one fixed answer for a fixed length.
        let reference: f64 = (0..100_000usize)
            .into_par_iter()
            .map(|i| (i as f64).sin())
            .sum();
        for _ in 0..3 {
            let again: f64 = (0..100_000usize)
                .into_par_iter()
                .map(|i| (i as f64).sin())
                .sum();
            assert_eq!(reference.to_bits(), again.to_bits());
        }
    }

    #[test]
    fn shared_par_chunks_sees_every_chunk() {
        let data: Vec<u32> = (0..10_000).collect();
        let seen = Mutex::new(vec![false; data.len().div_ceil(128)]);
        data.par_chunks(128).for_each_indexed(|c, chunk| {
            assert_eq!(chunk[0], (c * 128) as u32);
            seen.lock().unwrap()[c] = true;
        });
        assert!(seen.into_inner().unwrap().into_iter().all(|b| b));
    }
}
