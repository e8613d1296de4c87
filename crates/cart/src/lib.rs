//! # acic-cart — Classification and Regression Trees, from scratch
//!
//! ACIC's prediction model is CART regression (paper §4.2, citing Breiman,
//! Friedman, Olshen & Stone): "a decision tree based approach, requiring no
//! knowledge about the prediction target, with trees built top-down
//! recursively ... the optimal split minimizes the difference (e.g., root
//! mean square) among the samples in the leaf nodes ... Eventually, the
//! optimal decision tree is pruned to avoid over-fitting."
//!
//! This crate provides exactly that, specialized for regression on mixed
//! categorical/numeric features (which the ACIC exploration space is):
//!
//! * [`dataset`] — feature schema (numeric or categorical) and
//!   column-major storage: one contiguous `Vec<f64>` per feature, so the
//!   split search streams a single allocation per feature;
//! * [`split`] — exact best-split search, kept as the reference
//!   implementation: sorted threshold scan for numeric features,
//!   mean-ordered group scan for categorical features (optimal for
//!   regression per Breiman et al.);
//! * [`presort`] — the fast path the builder actually uses: per-feature
//!   position arrays sorted once per tree (full-row fits reuse an order
//!   cached on the [`Dataset`] itself) and maintained through stable O(N)
//!   partition sweeps, bit-identical to the reference by construction
//!   (accumulation orders match; see the module docs);
//! * [`builder`] — recursive top-down induction with standard stopping
//!   rules, over full datasets ([`build_tree`]) or row views
//!   ([`builder::build_tree_view`] — how bagging and CV train without
//!   cloning subsets);
//! * [`prune`] — minimal cost-complexity (weakest-link) pruning with
//!   k-fold cross-validated choice of the complexity parameter;
//! * [`tree`] — the tree itself, prediction (with per-leaf mean and
//!   standard deviation, as ACIC's Figure 4 displays), and traversal;
//! * [`render`] — the Figure 4-style text rendering;
//! * [`compile`] — the serving-side lowering: fitted models flatten into
//!   struct-of-arrays [`compile::CompiledModel`]s with a batched,
//!   allocation-free `predict_batch`, bit-identical to the interpreted
//!   predictors (which remain the reference oracle);
//! * [`forest`] — a bagged ensemble of CART trees (bootstrap samples drawn
//!   sequentially up front, trees fitted in parallel, so results are
//!   deterministic per seed) and [`knn`] — a k-nearest-neighbours
//!   regressor, both behind the pluggable [`model::Model`] front (our
//!   extension; the paper notes "different learning algorithms can be
//!   easily plugged in").

pub mod builder;
pub mod compile;
pub mod dataset;
pub mod forest;
pub mod knn;
pub mod model;
pub mod presort;
pub mod prune;
pub mod render;
pub mod split;
pub mod tree;

pub use builder::{build_tree, build_tree_view, BuildParams};
pub use compile::{CompiledGrid, CompiledModel, CompiledTree, GridPlan};
pub use presort::{best_split_presorted, TreeFrame};
pub use dataset::{Dataset, Feature, FeatureKind};
pub use forest::{Forest, ForestParams};
pub use knn::Knn;
pub use model::{Model, ModelKind};
pub use prune::{cross_validated_prune, prune_with_alpha};
pub use split::{SplitCandidate, SplitRule};
pub use tree::{Node, Tree};
