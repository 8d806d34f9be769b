//! Reuse of short-lived per-operation lists.

use std::cell::RefCell;
use std::fmt;

/// A free list of empty `Vec`s. An operation that keeps a short list
/// while it runs (the join handles of the legs it spawned) takes one and
/// gives it back when done, so a steady stream of operations allocates
/// no list at all. Operations in flight at once each hold their own.
pub struct VecPool<T> {
    spare: RefCell<Vec<Vec<T>>>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool {
            spare: RefCell::new(Vec::new()),
        }
    }
}

impl<T> fmt::Debug for VecPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VecPool")
            .field("spare", &self.spare.borrow().len())
            .finish()
    }
}

impl<T> VecPool<T> {
    /// An empty list, reusing a returned one when there is one.
    pub fn take(&self) -> Vec<T> {
        self.spare.borrow_mut().pop().unwrap_or_default()
    }

    /// Return a list for reuse; whatever it still holds is dropped.
    pub fn give(&self, mut list: Vec<T>) {
        list.clear();
        self.spare.borrow_mut().push(list);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_list_is_reused_empty() {
        let pool = VecPool::default();
        let mut a = pool.take();
        a.extend([1u32, 2, 3]);
        let at = a.as_ptr();
        pool.give(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.as_ptr(), at, "the returned allocation comes back");
        // Two lists in use at once are distinct.
        let c: Vec<u32> = pool.take();
        assert_eq!(c.capacity(), 0);
    }
}
