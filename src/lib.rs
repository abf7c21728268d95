//! # vulnman
//!
//! An AI-based security vulnerability management platform in Rust — a full
//! reproduction of *"Bridging the Gap: A Study of AI-based Vulnerability
//! Management between Industry and Academia"* (Wan et al., DSN 2024).
//!
//! The workspace builds everything the paper describes or depends on:
//!
//! * [`lang`] — a mini-C program-analysis substrate (lexer, parser, CFG,
//!   data-flow, interprocedural taint engine),
//! * [`synth`] — a synthetic vulnerable-code corpus generator with explicit
//!   knobs for every data pathology the paper discusses (imbalance, label
//!   noise, duplication, diversity, complexity tiers, team styles),
//! * [`analysis`] — the traditional rule-based toolchain of the paper's
//!   Figure 1 (specialized static detectors, severity scoring,
//!   reachability/threat modeling, auto-fix),
//! * [`ml`] — from-scratch ML detection models across five families
//!   standing in for the surveyed DL architectures,
//! * [`core`] — the Figure-1 workflow engine plus one module per gap study
//!   (agreement, customization, cost model, anonymization, SFT harvesting,
//!   artifact meta-study, repair engines, security training).
//!
//! ## Quick start
//!
//! ```
//! use vulnman::prelude::*;
//!
//! // 1. Generate an industry-shaped corpus.
//! let corpus = DatasetBuilder::new(42).vulnerable_count(20).vulnerable_fraction(0.2).build();
//!
//! // 2. Stand up the Figure-1 workflow with the rule suite.
//! let mut registry = DetectorRegistry::new();
//! registry.register(Box::new(RuleBasedDetector::standard()));
//! let engine = WorkflowEngine::new(registry, WorkflowConfig::default());
//!
//! // 3. Run the pipeline and inspect the outcome.
//! let report = engine.process(corpus.samples());
//! assert!(report.detection_metrics().recall() > 0.5);
//! assert!(report.auto_fixed + report.ai_fixed + report.expert_fixed > 0);
//! ```
//!
//! The experiment harness reproducing the paper's figures and quantitative
//! claims lives in the `vulnman-bench` crate (`cargo run --release -p
//! vulnman-bench --bin all_experiments`); results are recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub use vulnman_analysis as analysis;
pub use vulnman_core as core;
pub use vulnman_faults as faults;
pub use vulnman_lang as lang;
pub use vulnman_ml as ml;
pub use vulnman_obs as obs;
pub use vulnman_serve as serve;
pub use vulnman_synth as synth;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use vulnman_analysis::autofix::AutoFixer;
    pub use vulnman_analysis::detectors::RuleEngine;
    pub use vulnman_analysis::reachability::Surface;
    pub use vulnman_core::costmodel::{price_deployment, CostParams};
    pub use vulnman_core::detector::{
        CombinePolicy, Detector, DetectorRegistry, MlDetector, RuleBasedDetector, SemanticDetector,
    };
    pub use vulnman_core::workflow::{
        DegradationSummary, WorkflowConfig, WorkflowEngine, WorkflowReport,
    };
    pub use vulnman_faults::{FaultConfig, FaultKind, FaultMix, FaultPlan, Site};
    pub use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
    pub use vulnman_lang::{parse, print_program};
    pub use vulnman_ml::pipeline::{model_zoo, DetectionModel};
    pub use vulnman_ml::split::{split_by_project, stratified_split};
    pub use vulnman_obs::{Registry, Snapshot};
    pub use vulnman_synth::cwe::{Cwe, CweDistribution};
    pub use vulnman_synth::dataset::{Dataset, DatasetBuilder};
    pub use vulnman_synth::style::StyleProfile;
    pub use vulnman_synth::tier::Tier;
}
