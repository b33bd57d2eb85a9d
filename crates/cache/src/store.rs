//! An append-only store of set-once `OnceLock` slots: readers take no
//! lock and see a slot empty or whole. The slots live in chunks that
//! double in size, allocated on first use — `n` appends allocate
//! `O(log n)` times and nothing moves. Which slot is next is the
//! caller's book-keeping (the cache's, under its lock).

use std::sync::OnceLock;

/// Slots in the first chunk; chunk `k` holds `FIRST << k`.
const FIRST: usize = 64;

/// Chunks enough for every `u32` index.
const CHUNKS: usize = 27;

pub(crate) struct Store<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
}

impl<T> Store<T> {
    pub(crate) fn new() -> Store<T> {
        Store { chunks: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// The chunk slot `i` lies in, and its offset there.
    #[inline]
    fn locate(i: u32) -> (usize, usize) {
        let k = (i as usize / FIRST + 1).ilog2() as usize;
        (k, i as usize - FIRST * ((1 << k) - 1))
    }

    /// Writes slot `i`, which must still be empty.
    pub(crate) fn set(&self, i: u32, value: T) {
        let (k, at) = Self::locate(i);
        let chunk =
            self.chunks[k].get_or_init(|| (0..FIRST << k).map(|_| OnceLock::new()).collect());
        assert!(chunk[at].set(value).is_ok(), "store slot {i} written twice");
    }

    /// Slot `i`, if it has been written.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        let (k, at) = Self::locate(i);
        self.chunks.get(k)?.get()?.get(at)?.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_tile_the_chunks_and_are_set_once() {
        let mut next = 0;
        for k in 0..CHUNKS - 1 {
            for at in [0, (FIRST << k) - 1] {
                assert_eq!(Store::<()>::locate(next + at as u32), (k, at));
            }
            next += (FIRST << k) as u32;
        }
        assert_eq!(Store::<()>::locate(u32::MAX).0, CHUNKS - 1);
        let store = Store::new();
        for i in 0..1000u32 {
            store.set(i, i * 3);
        }
        assert!((0..1000).all(|i| store.get(i) == Some(&(i * 3))));
        assert_eq!(store.get(1000), None);
        let rewrite = std::panic::AssertUnwindSafe(|| store.set(7, 0));
        assert!(std::panic::catch_unwind(rewrite).is_err());
    }
}
