//! iSAX: indexable SAX words with per-symbol cardinality
//! (Shieh & Keogh 2008 — the paper's ref \[29\], its source for SAX).
//!
//! An iSAX symbol is a cell index at a power-of-two cardinality; symbols in
//! one word may carry *different* cardinalities, which is what makes iSAX
//! words usable as adaptive index keys: a node splits by promoting one
//! symbol to the next cardinality. This module provides the word type,
//! promotion, containment tests, and conversion from a plain SAX encoding.

/// One iSAX symbol: a cell index valid at cardinality `card` (a power of 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ISaxSymbol {
    /// Cell index in `0..card`.
    pub cell: usize,
    /// Cardinality (number of cells); always a power of two here.
    pub card: usize,
}

impl ISaxSymbol {
    /// Creates a symbol, validating the invariants.
    ///
    /// # Panics
    /// If `card` is not a power of two ≥ 2 or `cell >= card`.
    pub fn new(cell: usize, card: usize) -> Self {
        assert!(card.is_power_of_two() && card >= 2, "cardinality must be a power of two >= 2");
        assert!(cell < card, "cell {cell} out of range for cardinality {card}");
        Self { cell, card }
    }

    /// Reduces this symbol to a lower cardinality (prefix of its bits).
    ///
    /// # Panics
    /// If `card` does not divide this symbol's cardinality.
    pub fn demote(self, card: usize) -> Self {
        assert!(card.is_power_of_two() && card >= 2 && card <= self.card);
        let shift = (self.card / card).trailing_zeros();
        Self { cell: self.cell >> shift, card }
    }

    /// Whether `other` (at equal or higher cardinality) falls inside this
    /// symbol's cell when demoted to this symbol's cardinality.
    pub fn contains(self, other: ISaxSymbol) -> bool {
        other.card >= self.card && other.demote(self.card).cell == self.cell
    }
}

/// An iSAX word: a sequence of symbols with possibly mixed cardinalities.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ISaxWord {
    symbols: Vec<ISaxSymbol>,
}

impl ISaxWord {
    /// Builds a word from SAX cell indices at a uniform cardinality.
    pub fn from_cells(cells: &[usize], card: usize) -> Self {
        Self { symbols: cells.iter().map(|&c| ISaxSymbol::new(c, card)).collect() }
    }

    /// The symbols.
    pub fn symbols(&self) -> &[ISaxSymbol] {
        &self.symbols
    }

    /// Word length (number of segments).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the word is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Splits this word by promoting the symbol at `pos` one cardinality
    /// step: returns the two children (bit 0 and bit 1 refinements).
    /// This is the iSAX-index node-split operation.
    ///
    /// # Panics
    /// If `pos` is out of range.
    pub fn split_at(&self, pos: usize) -> (ISaxWord, ISaxWord) {
        assert!(pos < self.symbols.len(), "split position out of range");
        let mut lo = self.clone();
        let mut hi = self.clone();
        let s = self.symbols[pos];
        lo.symbols[pos] = ISaxSymbol::new(s.cell * 2, s.card * 2);
        hi.symbols[pos] = ISaxSymbol::new(s.cell * 2 + 1, s.card * 2);
        (lo, hi)
    }

    /// Whether a concrete word (uniform, high cardinality) belongs to the
    /// region this (possibly coarser) word denotes.
    pub fn contains(&self, concrete: &ISaxWord) -> bool {
        self.symbols.len() == concrete.symbols.len()
            && self
                .symbols
                .iter()
                .zip(&concrete.symbols)
                .all(|(mine, theirs)| mine.contains(*theirs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demote_drops_low_bits() {
        let s = ISaxSymbol::new(6, 8); // binary 110 at card 8
        assert_eq!(s.demote(4).cell, 3); // 11
        assert_eq!(s.demote(2).cell, 1); // 1
        assert_eq!(s.demote(8), s);
    }

    #[test]
    fn containment_follows_prefixes() {
        let coarse = ISaxSymbol::new(1, 2); // upper half
        assert!(coarse.contains(ISaxSymbol::new(2, 4)));
        assert!(coarse.contains(ISaxSymbol::new(3, 4)));
        assert!(!coarse.contains(ISaxSymbol::new(1, 4)));
        // A finer symbol cannot contain a coarser one.
        let fine = ISaxSymbol::new(2, 4);
        assert!(!fine.contains(coarse));
    }

    #[test]
    fn split_produces_disjoint_children() {
        let w = ISaxWord::from_cells(&[1, 0, 1], 2);
        let (lo, hi) = w.split_at(1);
        assert_eq!(lo.symbols()[1], ISaxSymbol::new(0, 4));
        assert_eq!(hi.symbols()[1], ISaxSymbol::new(1, 4));
        // Children partition the parent's region.
        let concrete_lo = ISaxWord::from_cells(&[2, 0, 3], 4);
        let concrete_hi = ISaxWord::from_cells(&[2, 1, 3], 4);
        assert!(w.contains(&concrete_lo) && w.contains(&concrete_hi));
        assert!(lo.contains(&concrete_lo) && !lo.contains(&concrete_hi));
        assert!(hi.contains(&concrete_hi) && !hi.contains(&concrete_lo));
    }

    #[test]
    fn word_containment_requires_equal_length() {
        let a = ISaxWord::from_cells(&[0, 1], 2);
        let b = ISaxWord::from_cells(&[0, 1, 0], 4);
        assert!(!a.contains(&b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        ISaxSymbol::new(0, 3);
    }
}
