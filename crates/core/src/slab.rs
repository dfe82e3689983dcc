/// A minimal arena with slot reuse: edges get stable ids while the graph
/// mutates, and iteration skips holes. Ids are recycled, which is safe here
/// because every external reference to an id (the two R-trees) is removed
/// in the same operation that frees the slot.
///
/// Every value belongs to a class, and a freed slot is reused only by a
/// value of its own class, last freed first. The slots one class takes
/// therefore rank among themselves exactly as they would in an arena of
/// that class alone, whatever the other classes do meanwhile: a graph's
/// bands each compress as they would in a graph of their own (ties among
/// candidate edges go by id).
#[derive(Debug, Clone, Default)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    /// The freed slots of each class that has freed one, by class (one
    /// entry for a graph of one grid).
    free: Vec<(u64, Vec<usize>)>,
    len: usize,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab { slots: Vec::new(), free: Vec::new(), len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn insert(&mut self, class: u64, value: T) -> usize {
        self.len += 1;
        let freed = self.free.binary_search_by_key(&class, |&(c, _)| c).ok();
        match freed.and_then(|at| self.free[at].1.pop()) {
            Some(id) => {
                debug_assert!(self.slots[id].is_none());
                self.slots[id] = Some(value);
                id
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    #[inline]
    pub fn remove(&mut self, class: u64, id: usize) -> T {
        let v = self.slots[id].take().expect("removing a live slot");
        let at = self.free.binary_search_by_key(&class, |&(c, _)| c).unwrap_or_else(|at| {
            self.free.insert(at, (class, Vec::new()));
            at
        });
        self.free[at].1.push(id);
        self.len -= 1;
        v
    }

    pub fn get(&self, id: usize) -> &T {
        self.slots[id].as_ref().expect("accessing a live slot")
    }

    /// Mutable access to a live slot (in-place edge rewrites during
    /// `clear_cells` keep the slot id stable instead of remove+reinsert).
    pub fn get_mut(&mut self, id: usize) -> &mut T {
        self.slots[id].as_mut().expect("accessing a live slot")
    }

    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_reuse() {
        let mut s = Slab::new();
        let a = s.insert(0, "a");
        let b = s.insert(0, "b");
        assert_eq!(s.len(), 2);
        assert_eq!(*s.get(a), "a");
        assert_eq!(s.remove(0, a), "a");
        assert_eq!(s.len(), 1);
        let c = s.insert(0, "c");
        assert_eq!(c, a, "freed slot is reused");
        let ids: Vec<usize> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&b) && ids.contains(&c));
    }

    #[test]
    fn a_freed_slot_goes_to_its_own_class() {
        let mut s = Slab::new();
        let (a, b) = (s.insert(1, "a"), s.insert(2, "b"));
        s.remove(1, a);
        assert_eq!(s.insert(2, "c"), 2, "another class takes a new slot");
        assert_eq!(s.insert(1, "d"), a);
        s.remove(2, b);
        assert_eq!(s.insert(2, "e"), b);
    }

    #[test]
    #[should_panic(expected = "live slot")]
    fn double_remove_panics() {
        let mut s = Slab::new();
        let a = s.insert(0, 1);
        s.remove(0, a);
        s.remove(0, a);
    }
}
