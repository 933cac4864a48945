//! The Ready set, indexed: a binary min-heap of task ids keyed by
//! `(candidate, tie, id)`, with each task's heap position tracked so a
//! wake-up can lower (or a yield set) one task's key in `O(log n)` instead
//! of the pick scanning every task.

/// A Ready task's `(candidate, tie)`; the id completes the key.
pub(crate) type Key = (u64, u64);

/// Not in the heap.
const ABSENT: usize = usize::MAX;

#[derive(Default)]
pub(crate) struct ReadyQueue {
    /// `(key, id)` in heap order; tuple order is the pick order.
    heap: Vec<(Key, usize)>,
    /// Heap index of each task id, or [`ABSENT`].
    pos: Vec<usize>,
}

impl ReadyQueue {
    /// Insert task `id` with `key`, or move it to `key` if already present.
    pub(crate) fn upsert(&mut self, id: usize, key: Key) {
        if id >= self.pos.len() {
            self.pos.resize(id + 1, ABSENT);
        }
        match self.pos[id] {
            ABSENT => {
                self.heap.push((key, id));
                self.pos[id] = self.heap.len() - 1;
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                self.heap[i].0 = key;
                let i = self.sift_up(i);
                self.sift_down(i);
            }
        }
    }

    /// Remove task `id` if present.
    pub(crate) fn remove(&mut self, id: usize) {
        let Some(&i) = self.pos.get(id).filter(|&&i| i != ABSENT) else { return };
        self.take(i);
    }

    /// Remove and return the minimal entry.
    pub(crate) fn pop(&mut self) -> Option<(usize, Key)> {
        if self.heap.is_empty() {
            return None;
        }
        let (key, id) = self.take(0);
        Some((id, key))
    }

    fn take(&mut self, i: usize) -> (Key, usize) {
        let last = self.heap.len() - 1;
        self.swap(i, last);
        let out = self.heap.pop().expect("non-empty");
        self.pos[out.1] = ABSENT;
        if i < self.heap.len() {
            let i = self.sift_up(i);
            self.sift_down(i);
        }
        out
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1] = a;
        self.pos[self.heap[b].1] = b;
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.heap.len() && self.heap[l] < self.heap[min] {
                min = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[min] {
                min = r;
            }
            if min == i {
                return;
            }
            self.swap(i, min);
            i = min;
        }
    }
}
