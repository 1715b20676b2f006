//! The bounded ring both the span sink and the flight recorder keep.

/// A fixed-capacity buffer of the most recent `capacity` items: once full,
/// each push overwrites the oldest item and counts one drop.
pub(crate) struct Ring<T> {
    items: Vec<T>,
    /// The oldest item's slot once the ring has wrapped (0 before).
    next: usize,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: Vec::new(),
            next: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items overwritten by wrap since the ring was made.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.next] = item;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The buffered items, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.items.split_at(self.next);
        older.iter().chain(newer)
    }

    /// Takes every buffered item, oldest first, leaving the ring empty (the
    /// drop count stays).
    pub(crate) fn drain(&mut self) -> Vec<T> {
        let mut items = std::mem::take(&mut self.items);
        items.rotate_left(self.next);
        self.next = 0;
        items
    }
}
