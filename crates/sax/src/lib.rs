//! # mc-sax — Symbolic Aggregate approXimation substrate
//!
//! Full from-scratch implementation of the quantization stack MultiCast
//! uses to cut token counts (paper §III-B):
//!
//! - [`paa`](mod@paa) — Piecewise Aggregate Approximation: x-axis compression by
//!   segment averaging, with exact reconstruction-by-expansion;
//! - [`gaussian`] — N(0,1) quantile breakpoints (equiprobable cells) via a
//!   high-precision inverse normal CDF, plus per-cell representative
//!   values used for decoding forecasts back to numbers;
//! - [`alphabet`] — the paper's two symbol encodings: alphabetical
//!   (`a`, `b`, …, ≤ 26 symbols) and digital (`0`–`9`, ≤ 10 symbols —
//!   the reason Table IX has an `N/A` cell at size 20);
//! - [`encoder`] — the end-to-end [`encoder::SaxEncoder`]: z-normalize →
//!   PAA → discretize → symbols, and the inverse decode used after the LLM
//!   emits forecast symbols;
//! - [`mindist`] — the lower-bounding MINDIST distance between SAX words;
//! - [`isax`] — indexable SAX words with per-symbol cardinality promotion
//!   (the paper cites iSAX as the SAX source);
//! - [`index`] — an in-memory iSAX tree with approximate and exact
//!   (MINDIST branch-and-bound) nearest-neighbour search.

pub mod alphabet;
pub mod encoder;
pub mod gaussian;
pub mod index;
pub mod isax;
pub mod mindist;
pub mod paa;

pub use alphabet::{SaxAlphabet, SaxAlphabetKind};
pub use encoder::{SaxConfig, SaxEncoder, SaxEncoding};
pub use gaussian::{breakpoints, cell_of, cell_representative, inverse_normal_cdf};
pub use index::ISaxIndex;
pub use paa::{inverse_paa, paa};
