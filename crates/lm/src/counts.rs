//! Flat count tables shared by the [`crate::ngram`] and [`crate::ppm`]
//! backends.
//!
//! Both backends learn in context by counting which token followed each
//! `k`-token context, for every order `k` in `0..=max_order`. A
//! [`CountTable`] holds those counts without a heap allocation per
//! context: each order has an open-addressed index (radix context key →
//! row id; power-of-two capacity, linear probing, multiplicative hash,
//! doubled before it is half full) into one arena of rows, stored in
//! blocks of at most 64 KiB. A row is its context's key followed by
//! `vocab_size` counts, so a probe compares keys on the cache line it
//! then counts in, and an index slot is a 4-byte row id. Cloning a table
//! is a memcpy per block and dropping it a free per block, instead of
//! one per context. The hash is fixed, not seeded: a series rendered
//! into keys crafted to collide would lengthen probes, never change a
//! count.
//!
//! The same type is a fitted model's table and, starting empty, each
//! decode session's copy-on-first-touch overlay: the first count a
//! session adds to a context copies that context's base row into its
//! overlay. A [`Cursor`] looks each usable order's context up once per
//! token — in the table it counts into, else in the frozen base, else
//! absent — and both the distribution kernels (through [`Rows`]) and the
//! count update that follows work from those locations, so a model and
//! its sessions run the same math and no context is probed twice.
//!
//! A session's overlay is recycled: each thread keeps the table of the
//! last session it dropped and hands it, emptied but with its capacity,
//! to the next session of the same shape, so a warm thread decodes
//! without growing an index or an arena.

use std::cell::Cell;
use std::mem;
use std::ops::Range;

use crate::cost::InferenceCost;
use crate::vocab::TokenId;

/// An order's index has at least this many slots once it holds a context.
const MIN_SLOTS: usize = 8;

/// Fibonacci-hashing multiplier: 2^64 / φ, rounded to odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Arena words before a row's counts: its context key, low half first.
const KEY_WORDS: usize = 2;

/// One order's index: slot → arena row id + 1, or 0 for an empty slot.
#[derive(Debug, Clone, Default)]
struct Index {
    slots: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

/// The first empty slot at or after `key`'s home slot. `slots` must have
/// a power-of-two length and an empty slot.
fn vacant(slots: &[u32], key: u64) -> usize {
    let mask = slots.len() - 1;
    let mut slot = home(key, slots.len());
    while slots[slot] != 0 {
        slot = (slot + 1) & mask;
    }
    slot
}

/// `key`'s home slot among `len` (a power of two, at least 2) slots.
fn home(key: u64, len: usize) -> usize {
    (key.wrapping_mul(GOLDEN) >> (64 - len.trailing_zeros())) as usize
}

/// Arena segments hold at most this many bytes of rows. Fixed-size blocks
/// let a freed table's memory serve the next one and never move; one
/// doubling buffer would leave each decoding thread's heap holding its
/// chain of outgrown copies.
const SEGMENT_BYTES: usize = 64 * 1024;

/// Next-token counts for every context order, in one row arena.
///
/// The default table has no orders: a placeholder, not a usable table.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountTable {
    width: usize,
    /// `orders[k]` indexes the `k`-token contexts.
    orders: Vec<Index>,
    /// The row arena, in segments of `1 << shift` rows of `KEY_WORDS +
    /// width` words. Only the first grows by doubling, so a small table
    /// stays small; later ones are allocated full size and never move, so
    /// a big table grows without copying. A cleared table keeps its
    /// segments, empty, and refills them in order.
    segments: Vec<Vec<u32>>,
    shift: u32,
    /// Rows stored.
    len: usize,
}

impl CountTable {
    /// An empty table of `width`-wide rows for orders `0..=max_order`.
    fn new(width: usize, max_order: usize) -> Self {
        Self {
            width,
            orders: vec![Index::default(); max_order + 1],
            segments: Vec::new(),
            shift: (SEGMENT_BYTES / 4 / (KEY_WORDS + width)).max(1).ilog2(),
            len: 0,
        }
    }

    /// Empties the table, keeping the capacity of its indexes and arena.
    fn clear(&mut self) {
        for index in &mut self.orders {
            index.slots.fill(0);
            index.len = 0;
        }
        for segment in &mut self.segments {
            segment.clear();
        }
        self.len = 0;
    }

    /// Where row `row`'s words (key, then counts) sit: segment and range.
    fn locate(&self, row: usize) -> (usize, Range<usize>) {
        let stride = KEY_WORDS + self.width;
        let at = (row & ((1 << self.shift) - 1)) * stride;
        (row >> self.shift, at..at + stride)
    }

    fn words(&self, row: usize) -> &[u32] {
        let (segment, words) = self.locate(row);
        &self.segments[segment][words]
    }

    /// The context key stored with row `row`.
    fn key(&self, row: usize) -> u64 {
        let words = self.words(row);
        u64::from(words[0]) | u64::from(words[1]) << 32
    }

    /// Row `row`'s next-token counts.
    fn counts(&self, row: usize) -> &[u32] {
        &self.words(row)[KEY_WORDS..]
    }

    fn counts_mut(&mut self, row: usize) -> &mut [u32] {
        let (segment, words) = self.locate(row);
        &mut self.segments[segment][words][KEY_WORDS..]
    }

    /// The row holding context `key` at `order`, or else the empty slot
    /// where it belongs (`None` if the order's index has no slots).
    fn find(&self, order: usize, key: u64) -> Result<usize, Option<usize>> {
        let slots = &self.orders[order].slots;
        if slots.is_empty() {
            return Err(None);
        }
        let mask = slots.len() - 1;
        let mut slot = home(key, slots.len());
        loop {
            let row = match slots[slot] {
                0 => return Err(Some(slot)),
                id => id as usize - 1,
            };
            if self.key(row) == key {
                return Ok(row);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores context `key` at `order` in the empty `slot` that [`find`]
    /// returned for it, with a row holding `counts` (zeros if `None`).
    /// Returns the row.
    ///
    /// [`find`]: CountTable::find
    fn insert(
        &mut self,
        order: usize,
        key: u64,
        slot: Option<usize>,
        counts: Option<&[u32]>,
    ) -> usize {
        let row = self.push_row(key, counts);
        // Double the slots first if this entry would leave the index more
        // than half full.
        let index = &self.orders[order];
        let slot = match slot {
            Some(slot) if (index.len + 1) * 2 <= index.slots.len() => slot,
            _ => {
                self.grow(order);
                vacant(&self.orders[order].slots, key)
            }
        };
        let index = &mut self.orders[order];
        index.slots[slot] = row as u32 + 1;
        index.len += 1;
        row
    }

    /// Appends a row for `key` holding `counts` (zeros if `None`).
    fn push_row(&mut self, key: u64, counts: Option<&[u32]>) -> usize {
        let row = self.len;
        assert!(row < u32::MAX as usize, "count table exceeds u32 row ids");
        let segment = row >> self.shift;
        if segment == self.segments.len() {
            let full = if segment == 0 { 0 } else { (KEY_WORDS + self.width) << self.shift };
            self.segments.push(Vec::with_capacity(full));
        }
        let words = &mut self.segments[segment];
        words.extend_from_slice(&[key as u32, (key >> 32) as u32]);
        match counts {
            Some(counts) => words.extend_from_slice(counts),
            None => words.resize(words.len() + self.width, 0),
        }
        self.len += 1;
        row
    }

    /// Doubles `order`'s slots and re-homes its rows.
    fn grow(&mut self, order: usize) {
        let len = (self.orders[order].slots.len() * 2).max(MIN_SLOTS);
        let old = mem::replace(&mut self.orders[order].slots, vec![0; len]);
        for id in old.into_iter().filter(|&id| id != 0) {
            let key = self.key(id as usize - 1);
            let slots = &mut self.orders[order].slots;
            let slot = vacant(slots, key);
            slots[slot] = id;
        }
    }

    /// Heap bytes held by the table (capacity, not length).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let index: usize = self.orders.iter().map(|ix| ix.slots.capacity() * 4).sum();
        let rows: usize = self.segments.iter().map(|s| s.capacity() * 4).sum();
        rows + self.segments.capacity() * mem::size_of::<Vec<u32>>()
            + self.orders.capacity() * mem::size_of::<Index>()
            + index
    }

    /// Stored contexts over all orders.
    #[cfg(test)]
    pub(crate) fn contexts(&self) -> usize {
        self.orders.iter().map(|ix| ix.len).sum()
    }
}

/// The context keys of the most recent tokens, rolled forward per token.
#[derive(Debug, Clone)]
struct History {
    /// `keys[k]` is the radix key of the last `k` tokens, oldest digit
    /// first; it is exact for `k <= depth`.
    keys: Vec<u64>,
    /// Usable orders: `min(max_order, tokens seen)`.
    depth: usize,
}

impl History {
    fn new(max_order: usize) -> Self {
        Self { keys: vec![0; max_order + 1], depth: 0 }
    }

    /// The keys of orders `0..=min(max_order, tokens seen)`.
    fn keys(&self) -> &[u64] {
        &self.keys[..=self.depth]
    }

    /// Appends `token`: `key_k ← key_{k−1} · vocab + token`, deepest
    /// order first.
    fn push(&mut self, token: TokenId, vocab: usize) {
        for k in (1..self.keys.len()).rev() {
            self.keys[k] = self.keys[k - 1] * vocab as u64 + u64::from(token);
        }
        self.depth = (self.depth + 1).min(self.keys.len() - 1);
    }
}

/// Where one order's row for the current history sits.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// In the table counts go into.
    Own(usize),
    /// Not there yet: the empty index slot it belongs in (as
    /// [`CountTable::find`] returns it) and its row in the frozen base,
    /// if the base has one.
    Missing { slot: Option<usize>, base: Option<usize> },
}

/// A history and, once resolved, where each of its contexts' rows sits.
#[derive(Debug, Clone)]
struct Cursor {
    history: History,
    /// `locs[k]` locates order `k`'s row; current only while `resolved`.
    locs: Vec<Loc>,
    resolved: bool,
}

impl Cursor {
    fn new(history: History) -> Self {
        let locs = Vec::with_capacity(history.keys.len());
        Self { history, locs, resolved: false }
    }

    /// Looks each usable order's context up, once per token: in `own`,
    /// else in `base`.
    fn resolve(&mut self, own: &CountTable, base: Option<&CountTable>) {
        if self.resolved {
            return;
        }
        self.locs.clear();
        for (order, &key) in self.history.keys().iter().enumerate() {
            self.locs.push(match own.find(order, key) {
                Ok(row) => Loc::Own(row),
                Err(slot) => {
                    Loc::Missing { slot, base: base.and_then(|b| b.find(order, key).ok()) }
                }
            });
        }
        self.resolved = true;
    }

    /// The history's rows in `own`, else in `base`, resolved if need be.
    fn rows<'t>(&'t mut self, own: &'t CountTable, base: Option<&'t CountTable>) -> Rows<'t> {
        self.resolve(own, base);
        Rows { own, base, locs: &self.locs }
    }

    /// Counts `token` after the context of every usable order in `own` —
    /// a context's first count copies its `base` row, if any — then rolls
    /// the history forward. Returns the orders visited.
    fn count(&mut self, own: &mut CountTable, base: Option<&CountTable>, token: TokenId) -> u64 {
        assert!((token as usize) < own.width, "token {token} out of range");
        self.resolve(own, base);
        for (order, (&key, &loc)) in self.history.keys().iter().zip(&self.locs).enumerate() {
            let row = match loc {
                Loc::Own(row) => row,
                Loc::Missing { slot, base: seed } => {
                    let seed = base.zip(seed).map(|(table, row)| table.counts(row));
                    own.insert(order, key, slot, seed)
                }
            };
            own.counts_mut(row)[token as usize] += 1;
        }
        self.history.push(token, own.width);
        self.resolved = false;
        self.locs.len() as u64
    }
}

/// The rows the next token is predicted from: one per usable order,
/// resolved once for the current history.
pub(crate) struct Rows<'a> {
    own: &'a CountTable,
    base: Option<&'a CountTable>,
    locs: &'a [Loc],
}

impl Rows<'_> {
    /// Row width: the vocabulary size.
    pub(crate) fn width(&self) -> usize {
        self.own.width
    }

    /// Usable orders: `min(max_order, tokens seen) + 1`.
    pub(crate) fn orders(&self) -> usize {
        self.locs.len()
    }

    /// The counts of each token seen after the current `order`-token
    /// context, or `None` for a context never seen.
    pub(crate) fn row(&self, order: usize) -> Option<&[u32]> {
        match self.locs[order] {
            Loc::Own(row) => Some(self.own.counts(row)),
            Loc::Missing { base, .. } => Some(self.base?.counts(base?)),
        }
    }
}

/// A count backend's conditioned state: its table, history and cost.
#[derive(Debug, Clone)]
pub(crate) struct CountState {
    pub(crate) table: CountTable,
    cursor: Cursor,
    pub(crate) cost: InferenceCost,
}

impl CountState {
    /// # Panics
    /// If `vocab_size == 0`, or the radix key of `max_order` tokens could
    /// reach 2^63.
    pub(crate) fn new(vocab_size: usize, max_order: usize) -> Self {
        assert!(vocab_size > 0, "vocab_size must be positive");
        let bits = (vocab_size as f64).log2().ceil().max(1.0) * max_order as f64;
        assert!(bits <= 63.0, "max_order {max_order} too deep for vocab {vocab_size}");
        Self {
            table: CountTable::new(vocab_size, max_order),
            cursor: Cursor::new(History::new(max_order)),
            cost: InferenceCost::default(),
        }
    }

    pub(crate) fn vocab_size(&self) -> usize {
        self.table.width
    }

    pub(crate) fn max_order(&self) -> usize {
        self.cursor.history.keys.len() - 1
    }

    /// Clears counts, history and cost.
    pub(crate) fn reset(&mut self) {
        *self = Self::new(self.vocab_size(), self.max_order());
    }

    /// The counts the next token is predicted from.
    pub(crate) fn rows(&mut self) -> Rows<'_> {
        self.cursor.rows(&self.table, None)
    }

    /// Consumes one prompt (`generated == false`) or generated token.
    pub(crate) fn observe(&mut self, token: TokenId, generated: bool) {
        self.cost.work_units += self.cursor.count(&mut self.table, None, token);
        if generated {
            self.cost.generated_tokens += 1;
        } else {
            self.cost.prompt_tokens += 1;
        }
    }
}

thread_local! {
    /// The overlay of the last decode session this thread dropped, kept
    /// for the next session of the same shape. Freed when the thread exits.
    static SPARE: Cell<Option<CountTable>> = const { Cell::new(None) };
}

/// An empty overlay for a session over `base`: this thread's spare,
/// emptied, if it has the same row width and orders, else a new table.
fn overlay_for(base: &CountTable) -> CountTable {
    match SPARE.try_with(Cell::take).ok().flatten() {
        Some(mut table) if table.width == base.width && table.orders.len() == base.orders.len() => {
            table.clear();
            table
        }
        other => {
            give_back(other);
            CountTable::new(base.width, base.orders.len() - 1)
        }
    }
}

/// Makes `table` this thread's spare. During thread teardown the spare
/// may already be gone; the table is then freed.
fn give_back(table: Option<CountTable>) {
    // The error case drops `table`, as a plain drop would.
    let _ = SPARE.try_with(|spare| spare.set(table));
}

/// A decode session's state over a frozen [`CountState`]: an overlay
/// table that starts empty, plus the session's own history and cost.
#[derive(Debug)]
pub(crate) struct ForkState<'a> {
    base: &'a CountState,
    overlay: CountTable,
    cursor: Cursor,
    pub(crate) cost: InferenceCost,
}

impl<'a> ForkState<'a> {
    pub(crate) fn new(base: &'a CountState) -> Self {
        Self {
            base,
            overlay: overlay_for(&base.table),
            cursor: Cursor::new(base.cursor.history.clone()),
            cost: InferenceCost::default(),
        }
    }

    pub(crate) fn vocab_size(&self) -> usize {
        self.base.table.width
    }

    /// The counts this session predicts its next token from: its overlay
    /// first, then the frozen base.
    pub(crate) fn rows(&mut self) -> Rows<'_> {
        self.cursor.rows(&self.overlay, Some(&self.base.table))
    }

    /// Consumes one generated token.
    pub(crate) fn observe(&mut self, token: TokenId) {
        let base = Some(&self.base.table);
        self.cost.work_units += self.cursor.count(&mut self.overlay, base, token);
        self.cost.generated_tokens += 1;
    }
}

impl Drop for ForkState<'_> {
    /// Hands the overlay to this thread's next session.
    fn drop(&mut self) {
        give_back(Some(mem::take(&mut self.overlay)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ngram::radix_key;

    /// Access by key: `row` reads a context's counts, `row_mut` creates
    /// them on first touch.
    impl CountTable {
        fn row(&self, order: usize, key: u64) -> Option<&[u32]> {
            self.find(order, key).ok().map(|row| self.counts(row))
        }

        fn row_mut(&mut self, order: usize, key: u64) -> &mut [u32] {
            let row = match self.find(order, key) {
                Ok(row) => row,
                Err(slot) => self.insert(order, key, slot, None),
            };
            self.counts_mut(row)
        }
    }

    fn lcg(seed: u64, len: usize, vocab: u64) -> Vec<TokenId> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % vocab) as TokenId
            })
            .collect()
    }

    #[test]
    fn rolling_keys_equal_radix_keys() {
        for (vocab, max_order) in [(1, 63), (2, 63), (7, 10), (13, 10), (16, 15), (3, 0)] {
            let tokens = lcg(vocab as u64, 80, vocab as u64);
            let mut history = History::new(max_order);
            for (i, &t) in tokens.iter().enumerate() {
                history.push(t, vocab);
                let seen = &tokens[..=i];
                assert_eq!(history.keys().len(), max_order.min(seen.len()) + 1);
                for (k, &key) in history.keys().iter().enumerate() {
                    assert_eq!(key, radix_key(seen, k, vocab), "vocab {vocab} order {k} at {i}");
                }
            }
        }
    }

    #[test]
    fn index_survives_growth() {
        // Multiples of a large power of two share their low bits; the
        // multiplicative hash must still spread them.
        let keys: Vec<u64> = (0..500u64).map(|i| i << 40).chain(1..500).collect();
        let mut table = CountTable::new(1, 0);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(table.row(0, key), None);
            table.row_mut(0, key)[0] = i as u32;
        }
        let index = &table.orders[0];
        assert!(index.len * 2 <= index.slots.len() && index.slots.len().is_power_of_two());
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(table.row(0, key), Some(&[i as u32][..]));
        }
        assert_eq!(table.row(0, 501), None);
    }

    /// Wide rows give 8-row segments: rows keep their counts across
    /// segment boundaries, and every segment after the first, the partly
    /// filled last one included, is allocated at full size. A cleared
    /// table refills the same segments without allocating new ones.
    #[test]
    fn rows_survive_segment_boundaries_and_clearing() {
        let width = 2000;
        let mut table = CountTable::new(width, 1);
        assert_eq!(1 << table.shift, 8);
        for round in 0..2u32 {
            for i in 0..41u32 {
                let row = table.row_mut(i as usize % 2, u64::from(i + round));
                row[0] = i;
                row[width - 1] = i + 1;
            }
            assert_eq!(table.segments.len(), 6);
            assert!(table.segments[1..].iter().all(|s| s.capacity() == 8 * (KEY_WORDS + width)));
            for i in 0..41u32 {
                let row = table.row(i as usize % 2, u64::from(i + round)).unwrap();
                assert_eq!((row.len(), row[0], row[width - 1]), (width, i, i + 1));
            }
            let bytes = table.heap_bytes();
            table.clear();
            assert_eq!((table.contexts(), table.heap_bytes()), (0, bytes));
            assert_eq!(table.row(0, 0), None);
        }
    }

    #[test]
    fn overlay_copies_base_rows_on_first_touch_only() {
        let mut base = CountState::new(3, 2);
        for t in [0, 1, 2, 0, 1] {
            base.observe(t, false);
        }
        let mut fork = ForkState::new(&base);
        assert_eq!(fork.overlay.contexts(), 0);
        fork.observe(2);
        // Orders 0..=2 each touched one context, copied from the base.
        assert_eq!(fork.overlay.contexts(), 3);
        assert_eq!(fork.rows().row(0), Some(&[2, 2, 2][..]));
        assert_eq!(base.table.row(0, 0), Some(&[2, 2, 1][..]));
        fork.observe(0);
        assert_eq!(fork.rows().row(0), Some(&[3, 2, 2][..]));
        assert_eq!(base.table.row(0, 0), Some(&[2, 2, 1][..]));
    }

    /// A dropped session's overlay serves this thread's next session of
    /// the same shape, emptied; a session of another shape leaves it be.
    #[test]
    fn overlays_are_recycled_per_thread_by_shape() {
        let mut base = CountState::new(3, 2);
        for t in lcg(5, 40, 3) {
            base.observe(t, false);
        }
        let mut fork = ForkState::new(&base);
        for t in lcg(6, 30, 3) {
            fork.observe(t);
        }
        let bytes = fork.overlay.heap_bytes();
        drop(fork);
        let mut reused = ForkState::new(&base);
        assert_eq!((reused.overlay.contexts(), reused.overlay.heap_bytes()), (0, bytes));
        // The spare is taken: the next session gets a new table, and
        // both count alike.
        let mut fresh = ForkState::new(&base);
        assert!(fresh.overlay.heap_bytes() < bytes);
        for t in lcg(7, 30, 3) {
            reused.observe(t);
            fresh.observe(t);
            for order in 0..3 {
                assert_eq!(reused.rows().row(order), fresh.rows().row(order));
            }
        }
        let bytes = reused.overlay.heap_bytes();
        drop(fresh);
        drop(reused);
        let other = CountState::new(4, 2);
        let stranger = ForkState::new(&other);
        assert_eq!(stranger.overlay.heap_bytes(), CountTable::new(4, 2).heap_bytes());
        let again = ForkState::new(&base);
        assert_eq!((again.overlay.contexts(), again.overlay.heap_bytes()), (0, bytes));
    }

    /// An `observe` with no distribution read before it resolves first;
    /// two reads in a row resolve once.
    #[test]
    fn observe_resolves_when_no_read_preceded_it() {
        let mut model = CountState::new(3, 2);
        let mut paired = CountState::new(3, 2);
        for (i, t) in lcg(9, 60, 3).into_iter().enumerate() {
            if i % 3 == 0 {
                paired.rows();
                paired.rows();
            }
            model.observe(t, false);
            paired.observe(t, false);
        }
        for order in 0..3 {
            assert_eq!(model.rows().row(order), paired.rows().row(order));
        }
        assert_eq!(model.cost, paired.cost);
    }
}
