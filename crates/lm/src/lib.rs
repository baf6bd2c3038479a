//! # mc-lm — language-model substrate for the MultiCast reproduction
//!
//! The paper runs MultiCast on LLaMA2-7B and Phi-2 through the HuggingFace
//! API. Neither model can be shipped inside this repository, so this crate
//! provides the substitution documented in `DESIGN.md` §2: **in-context
//! sequence models** over the same character-level token alphabet, with the
//! same interface contract a frozen LLM offers the MultiCast pipeline:
//!
//! 1. a [`Tokenizer`] mapping text to corpus ids and back
//!    ([`CharTokenizer`] implements the digit-level scheme LLMTime forces);
//! 2. a [`LanguageModel`] that consumes a prompt token-by-token and yields
//!    a next-token distribution — pattern learning happens *in context*,
//!    exactly like zero-shot prompting (no training phase, no labels);
//! 3. a constrained, temperature-controlled [`sampler`] reproducing the
//!    paper's restriction of the output alphabet to digits and commas;
//! 4. autoregressive [`generate`](mod@generate) with per-token cost accounting, so the
//!    wall-clock/token-budget experiments (Tables VII–IX) are meaningful.
//!
//! Two model families are provided: [`NGramLm`] (interpolated back-off
//! context mixing, cheap per token) and [`SuffixLm`] (longest-suffix
//! matching over the whole context, O(context) per token — the same
//! asymptotic cost shape as transformer decoding). The [`presets`] module
//! maps the paper's backends to capacity tiers: `Large` ↔ LLaMA2-7B,
//! `Small` ↔ Phi-2.

pub mod bpe;
pub mod cache;
pub mod concrete;
pub mod cost;
mod counts;
pub mod ensemble;
pub mod generate;
pub mod metered;
pub mod model;
pub mod ngram;
pub mod ppm;
pub mod presets;
#[cfg(test)]
mod reference;
pub mod sampler;
pub mod suffix;
pub mod tokenizer;
pub mod vocab;

pub use bpe::BpeTokenizer;
pub use cache::{CacheConfig, CachePolicy, CacheStats, Found, LmCache, RefitMode};
pub use concrete::ConcreteLm;
pub use cost::InferenceCost;
pub use ensemble::{EnsembleLm, EnsembleSession, FrozenEnsemble};
pub use generate::{
    generate, generate_session, generate_session_budgeted, DecodeBudget, GenerateOptions,
};
pub use metered::{CostLedger, MeteredLm};
pub use model::{DecodeSession, FrozenLm, LanguageModel};
pub use ngram::{FrozenNGram, NGramLm, NGramSession};
pub use ppm::{FrozenPpm, PpmLm, PpmSession};
pub use presets::{build_model, fit_model, ModelPreset};
pub use sampler::{Sampler, SamplerConfig};
pub use suffix::{FrozenSuffix, SuffixLm, SuffixSession};
pub use tokenizer::{CharTokenizer, Tokenizer};
pub use vocab::{TokenId, Vocab};
