//! # acic-search — model-guided adaptive campaign planning
//!
//! ACIC's biggest practical cost is the exhaustive training campaign: the
//! paper sweeps the full sampled space through the simulator before CART
//! can recommend anything (§5).  This crate replaces the enumeration with
//! a deterministic campaign *planner* that proposes measurement batches:
//!
//! * [`planner`] — the [`planner::Planner`] trait and its strategies:
//!   [`planner::PbRanked`] (the walk's ⟨S, s0, δ⟩ opening book as a batch
//!   planner), [`planner::RandomOrder`] (Figure 9's strawman),
//!   [`planner::Bandit`] (UCB over a CART surrogate refit online), and
//!   [`planner::Halving`] (successive halving over surrogate regions).
//! * [`budget`] — [`budget::Budget`] / [`budget::StopReason`]: max
//!   measurements, cost ceilings, plateau detection, typed errors.
//! * [`campaign`] — [`campaign::run_search`]: drives planner batches
//!   through the trainer's retry/journal/checkpoint path, answering
//!   already-measured points from the durable store
//!   (lookup-before-measure), and renders a byte-diffable [`campaign::Plan`].
//! * [`warm`] — cross-application warm start: another app's store
//!   samples, remapped in feature space onto the new grid as surrogate
//!   priors.
//! * [`walk`] — PB-guided space walking (paper §4.3), moved here from
//!   `acic::walk` so Figure 9 and the planners share one ordering code
//!   path.
//!
//! Everything is deterministic by construction: planner randomness is
//! seeded from `(campaign fingerprint, round)`, tie-breaks fall back to
//! grid indices, and a killed campaign resumes bit-identically from its
//! journal plus store.

pub mod budget;
pub mod campaign;
pub mod planner;
pub mod walk;
pub mod warm;

pub use budget::{Budget, SearchError, StopReason};
pub use campaign::{run_search, Plan, PlanRound, SearchConfig, SearchOutcome};
pub use planner::{Grid, Observation, PlanContext, Planner, Strategy};
pub use walk::{guided_walk, opening_book, random_walk, walk_with, Measure, WalkOutcome};
pub use warm::remap;
