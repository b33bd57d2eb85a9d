//! Offline stand-in for the `rayon` crate: the slice of its API the
//! workspace calls, on a small fork-join executor of its own.
//!
//! A *region* is one terminal call (`for_each`, `collect`, `reduce`).
//! It spawns scoped helper threads, the calling thread works beside
//! them, and everybody claims the next run of items from one shared
//! cursor until none are left; the region returns after every helper
//! has joined. The contract call sites rely on:
//!
//! * **Item-order results.** `collect` returns results in item order and
//!   `reduce` folds them left to right in item order on the calling
//!   thread, so every output — floating-point bits included — is the
//!   sequential one whatever the thread count. (Real rayon only promises
//!   that for associative operators; this is stricter.)
//! * **Nested regions run inline.** A region started from inside a
//!   region runs sequentially on the thread that started it: no
//!   deadlock, no oversubscription.
//! * **Thread count** is [`std::thread::available_parallelism`], read
//!   once; [`ThreadPool::install`] overrides it for the calling thread
//!   while its closure runs. A region runs inline when it has at most
//!   one item or one thread.
//! * **Panics.** A panicking item is re-raised on the calling thread
//!   after every helper has joined; the other threads stop claiming.
//!
//! Safe Rust throughout: borrows cross threads through
//! [`std::thread::scope`], and items are handed out by a mutex-guarded
//! iterator.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Claims per thread a region aims for: enough that unequal items
/// balance out, few enough that a million tiny items take the cursor's
/// lock a few dozen times per thread rather than once each.
const CLAIMS_PER_THREAD: usize = 16;

thread_local! {
    /// True while this thread is executing items of a region.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
    /// The thread count [`ThreadPool::install`] pinned, if any.
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Threads (the caller included) a region started here would use.
fn current_num_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    INSTALLED_THREADS.get().unwrap_or_else(|| {
        *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Marks the current thread as inside a region until dropped, and tells
/// the region's other threads to stop claiming if it unwinds.
struct RegionThread<'a> {
    failed: &'a AtomicBool,
}

impl<'a> RegionThread<'a> {
    fn enter(failed: &'a AtomicBool) -> RegionThread<'a> {
        IN_REGION.set(true);
        RegionThread { failed }
    }
}

impl Drop for RegionThread<'_> {
    fn drop(&mut self) {
        // Only top-level regions get here, so the flag was false before.
        IN_REGION.set(false);
        if std::thread::panicking() {
            // A hint that publishes nothing: Relaxed.
            self.failed.store(true, Ordering::Relaxed);
        }
    }
}

/// Items per claim when `threads` threads share `n` items.
fn claim_len(n: usize, threads: usize) -> usize {
    (n / (threads * CLAIMS_PER_THREAD)).max(1)
}

/// Applies `f` to every item and returns the results in item order.
fn execute<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    if n <= 1 || threads <= 1 || IN_REGION.get() {
        return items.map(f).collect();
    }
    let claim_len = claim_len(n, threads);
    let helpers = threads.min(n.div_ceil(claim_len)) - 1;

    // (index of the next claim, the items not yet claimed)
    let cursor = Mutex::new((0usize, items));
    let failed = AtomicBool::new(false);
    let work = || {
        let _inside = RegionThread::enter(&failed);
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let (index, claimed) = {
                let mut cursor = cursor.lock().expect("an item source panicked in `next`");
                let claimed: Vec<I::Item> = cursor.1.by_ref().take(claim_len).collect();
                let index = cursor.0;
                cursor.0 += 1;
                (index, claimed)
            };
            if claimed.is_empty() {
                break;
            }
            done.push((index, claimed.into_iter().map(&f).collect()));
        }
        done
    };

    let mut claims = std::thread::scope(|scope| {
        // A helper the OS refuses to start is a helper less, not an error.
        let spawned: Vec<_> = (0..helpers)
            .map_while(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
            .collect();
        // If the caller's own share panics, `scope` joins the helpers
        // before that panic leaves it.
        let mut claims = work();
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for helper in spawned {
            match helper.join() {
                Ok(more) => claims.extend(more),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        claims
    });
    claims.sort_unstable_by_key(|&(index, _)| index);
    let mut results = Vec::with_capacity(n);
    results.extend(claims.into_iter().flat_map(|(_, run)| run));
    results
}

/// The parallel-iterator operations the workspace uses.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    /// Plumbing: runs the pipeline with `last` as its final stage and
    /// returns the results in item order.
    fn drive<R, F>(self, last: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.drive(f);
    }

    /// The results in item order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive(|item| item).into_iter().collect()
    }

    /// Left fold of the results in item order, starting from one
    /// `identity()`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        self.drive(|item| item).into_iter().fold(identity(), op)
    }
}

/// A parallel iterator over the items of a sequential one.
pub struct ParIter<I>(I);

impl<I: ExactSizeIterator> ParIter<I> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter(self.0.enumerate())
    }
}

impl<I> ParallelIterator for ParIter<I>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    type Item = I::Item;

    fn drive<R, F>(self, last: F) -> Vec<R>
    where
        R: Send,
        F: Fn(I::Item) -> R + Sync + Send,
    {
        execute(self.0, last)
    }
}

/// [`ParallelIterator::map`]'s adapter.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
    type Item = R;

    fn drive<R2, G>(self, last: G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(R) -> R2 + Sync + Send,
    {
        let f = self.f;
        self.base.drive(move |item| last(f(item)))
    }
}

pub mod prelude {
    use super::ParIter;
    pub use super::ParallelIterator;

    /// `into_par_iter()` for owned collections.
    pub trait IntoParallelIterator {
        type Item: Send;
        type Iter: ParallelIterator<Item = Self::Item>;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = ParIter<std::vec::IntoIter<T>>;
        fn into_par_iter(self) -> Self::Iter {
            ParIter(self.into_iter())
        }
    }

    /// `par_iter()` for slices (and, via deref, `Vec`).
    pub trait ParallelSlice<T: Sync> {
        fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>>;
    }

    /// `par_iter_mut()` for slices (and, via deref, `Vec`).
    pub trait ParallelSliceMut<T: Send> {
        fn par_iter_mut(&mut self) -> ParIter<std::slice::IterMut<'_, T>>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>> {
            ParIter(self.iter())
        }
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> ParIter<std::slice::IterMut<'_, T>> {
            ParIter(self.iter_mut())
        }
    }
}

/// Builds a [`ThreadPool`]; `num_threads(0)`, the default, means the
/// host's parallelism.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Never produced here; kept so `build()` has real rayon's signature.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    pub fn num_threads(mut self, num_threads: usize) -> ThreadPoolBuilder {
        self.num_threads = num_threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: (self.num_threads > 0).then_some(self.num_threads) })
    }
}

/// A thread count for the regions started under [`ThreadPool::install`].
/// Holds no threads of its own: every region spawns and joins its
/// helpers.
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool's thread count in
    /// force for the regions it starts.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.set(self.0);
            }
        }
        let _restore = Restore(INSTALLED_THREADS.replace(self.num_threads));
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;

    fn with_threads<R: Send>(n: usize, op: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new().num_threads(n).build().expect("pool").install(op)
    }

    fn thread_ids(ids: Vec<ThreadId>) -> HashSet<ThreadId> {
        ids.into_iter().collect()
    }

    #[test]
    fn collect_preserves_item_order() {
        let input: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8] {
            let got: Vec<u64> = with_threads(threads, || input.par_iter().map(|x| x * x).collect());
            assert_eq!(got, expected, "{threads} threads");
            let owned: Vec<u64> =
                with_threads(threads, || input.clone().into_par_iter().map(|x| x * x).collect());
            assert_eq!(owned, expected, "{threads} threads, owned items");
            let indexed: Vec<(usize, u64)> = with_threads(threads, || {
                input.par_iter().enumerate().map(|(i, x)| (i, *x)).collect()
            });
            assert!(indexed.iter().all(|&(i, x)| i as u64 == x), "{threads} threads, enumerate");
        }
    }

    #[test]
    fn reduce_folds_in_item_order_even_when_op_is_not_commutative() {
        let words: Vec<String> = (0..200).map(|i| format!("{i},")).collect();
        let expected = words.iter().fold(String::from(">"), |a, b| a + b);
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || {
                words.par_iter().map(String::clone).reduce(|| String::from(">"), |a, b| a + &b)
            });
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn float_sums_do_not_depend_on_thread_count() {
        let xs: Vec<f64> = (0..10_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let expected = xs.iter().fold(0.0, |a, b| a + b);
        for threads in [1, 2, 8] {
            let got =
                with_threads(threads, || xs.par_iter().map(|x| *x).reduce(|| 0.0, |a, b| a + b));
            assert_eq!(got.to_bits(), expected.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn par_iter_mut_reaches_every_item_once() {
        let mut xs = vec![1u32; 513];
        with_threads(4, || xs.par_iter_mut().for_each(|x| *x += 1));
        assert!(xs.iter().all(|&x| x == 2));
    }

    #[test]
    fn empty_and_single_item_inputs() {
        for threads in [1, 8] {
            with_threads(threads, || {
                let none: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x + 1).collect();
                assert!(none.is_empty());
                assert_eq!(Vec::<u32>::new().into_par_iter().reduce(|| 7, |a, b| a + b), 7);
                let caller = std::thread::current().id();
                let one: Vec<ThreadId> =
                    vec![0u32].into_par_iter().map(|_| std::thread::current().id()).collect();
                assert_eq!(one, [caller], "one item runs inline");
            });
        }
    }

    #[test]
    fn a_region_uses_at_most_the_installed_threads_and_the_caller_takes_part() {
        let items: Vec<u32> = (0..64).collect();
        let caller = std::thread::current().id();
        let one = with_threads(1, || {
            thread_ids(items.par_iter().map(|_| std::thread::current().id()).collect())
        });
        assert_eq!(one, HashSet::from([caller]));
        // Every thread is held at a barrier inside its first item, so
        // all three must exist at once and each takes a claim.
        let barrier = std::sync::Barrier::new(3);
        let met = AtomicUsize::new(0);
        let three = with_threads(3, || {
            thread_ids(
                items
                    .par_iter()
                    .map(|_| {
                        if met.fetch_add(1, Ordering::SeqCst) < 3 {
                            barrier.wait();
                        }
                        std::thread::current().id()
                    })
                    .collect(),
            )
        });
        assert_eq!(three.len(), 3);
        assert!(three.contains(&caller));
    }

    #[test]
    fn nested_regions_run_inline_on_their_thread() {
        let outer: Vec<u32> = (0..16).collect();
        let seen: Vec<(ThreadId, Vec<ThreadId>, u32)> = with_threads(4, || {
            outer
                .par_iter()
                .map(|&i| {
                    let inner: Vec<u32> = (0..50).collect();
                    let ids: Vec<ThreadId> =
                        inner.par_iter().map(|_| std::thread::current().id()).collect();
                    let sum = inner.par_iter().map(|x| x + i).reduce(|| 0, |a, b| a + b);
                    (std::thread::current().id(), ids, sum)
                })
                .collect()
        });
        let mut all = HashSet::new();
        for (i, (outer_id, inner_ids, sum)) in seen.into_iter().enumerate() {
            assert!(inner_ids.iter().all(|id| *id == outer_id), "inner region left its thread");
            assert_eq!(sum, 1225 + 50 * i as u32);
            all.insert(outer_id);
        }
        assert!(all.len() <= 4, "nesting added threads: {}", all.len());
        // The flag is cleared afterwards: a new top-level region forks again.
        assert!(!IN_REGION.get());
    }

    #[test]
    fn a_panicking_item_propagates_after_every_helper_has_left() {
        let entered = AtomicUsize::new(0);
        let left = AtomicUsize::new(0);
        struct Leaving<'a>(&'a AtomicUsize);
        impl Drop for Leaving<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let items: Vec<u32> = (0..400).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                items.par_iter().for_each(|&i| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let _leaving = Leaving(&left);
                    if i == 37 {
                        panic!("item 37");
                    }
                })
            })
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("item 37"));
        // `entered`/`left` borrow this frame: were a helper still
        // running, the counts could still move.
        assert_eq!(entered.load(Ordering::SeqCst), left.load(Ordering::SeqCst));
        assert!(!IN_REGION.get(), "the caller is outside the region again");
        assert_eq!(INSTALLED_THREADS.get(), None, "install restored on unwind");
        // And the executor still works.
        let again: Vec<u32> = with_threads(4, || items.par_iter().map(|x| x + 1).collect());
        assert_eq!(again.len(), 400);
    }

    #[test]
    fn many_tiny_items_are_claimed_in_runs() {
        let n = 100_000usize;
        let mut xs = vec![0u8; n];
        let threads = 8;
        let hits = AtomicUsize::new(0);
        with_threads(threads, || {
            xs.par_iter_mut().for_each(|x| {
                *x = 1;
                hits.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert!(xs.iter().all(|&x| x == 1));
        // ~128 trips to the cursor, not 100 000.
        assert_eq!(claim_len(n, threads), 781);
        assert_eq!(claim_len(32, 2), 1, "a few unequal items are claimed one by one");
    }

    #[test]
    fn install_nests_and_restores() {
        let host = current_num_threads();
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(5, || assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 3);
            with_threads(0, || assert_eq!(current_num_threads(), host));
        });
        assert_eq!(current_num_threads(), host);
    }
}
