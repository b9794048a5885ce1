//! # cqa-fo
//!
//! A first-order logic engine over the `cqa-model` data model: formula AST,
//! substitution, simplification, evaluation and SQL rendering.
//!
//! Consistent first-order rewritings — the output of the paper's Theorem 12
//! when `CERTAINTY(q, FK)` is in `FO` — are values of type [`ast::Formula`].
//! They can be pretty-printed (Unicode or ASCII), simplified, evaluated over
//! an [`cqa_model::Instance`], and rendered to SQL. Evaluation compiles the
//! formula once into a guard-directed tree that exploits the ∃/∀-guard
//! structure of rewritings ([`compile`]); the textbook active-domain
//! interpreter ([`interp`]) is kept only as the reference it is tested
//! against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod eval;
pub mod interp;
pub mod simplify;
pub mod sql;
pub mod stats;

pub use ast::Formula;
pub use compile::CompiledFormula;
pub use eval::{eval_closed, eval_with};
pub use simplify::simplify;
pub use sql::{to_sql, SqlError};
pub use stats::{stats, FormulaStats};
