//! Feature extraction.
//!
//! Four feature families stand in for the DL architecture families the
//! paper surveys (token sequence ≈ transformer/RNN, graph/flow ≈ GNN,
//! structural stats ≈ classic models, artifact text ≈ multimodal), per the
//! substitution rule in `DESIGN.md`. Gap Observation 5's point — expert-
//! crafted representations out-perform raw ones — is directly testable by
//! swapping extractors on the same classifier.

use vulnman_lang::ast::{ExprKind, StmtKind, Type};
use vulnman_lang::lexer::lex;
use vulnman_lang::metrics::FunctionMetrics;
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_lang::token::TokenKind;
use vulnman_synth::sample::Sample;

/// Extracts a fixed-dimension feature vector from a sample.
pub trait FeatureExtractor: Send + Sync {
    /// Stable extractor name.
    fn name(&self) -> &'static str;
    /// Output dimensionality.
    fn dim(&self) -> usize;
    /// Extracts features for one sample.
    fn extract(&self, sample: &Sample) -> Vec<f64>;
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a: stable across runs and platforms, unlike `DefaultHasher`.
    vulnman_lang::hash::fnv1a(s.as_bytes())
}

fn l2_normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Token text used by n-gram features: identifiers and keywords verbatim,
/// literals partially abstracted (string content kept — real sequence models
/// see it too).
fn token_text(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => s.clone(),
        TokenKind::Int(v) => {
            // Bucket magnitudes so sizes generalize.
            let m = match v.unsigned_abs() {
                0..=1 => "01",
                2..=16 => "small",
                17..=256 => "mid",
                _ => "big",
            };
            format!("<int:{m}>")
        }
        TokenKind::Char(_) => "<char>".to_string(),
        TokenKind::Str(s) => format!("<str:{s}>"),
        other => other.describe().to_string(),
    }
}

/// Hashed token uni+bi-gram presence features over the source text
/// (transformer/RNN-style surface model), L2-normalized.
#[derive(Debug, Clone)]
pub struct TokenNgramFeatures {
    dim: usize,
}

impl TokenNgramFeatures {
    /// Creates an extractor with `dim` hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        TokenNgramFeatures { dim }
    }
}

impl Default for TokenNgramFeatures {
    fn default() -> Self {
        TokenNgramFeatures::new(256)
    }
}

impl FeatureExtractor for TokenNgramFeatures {
    fn name(&self) -> &'static str {
        "token-ngram"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        let mut v = vec![0.0; self.dim];
        let Ok(out) = lex(&sample.source) else { return v };
        let texts: Vec<String> = out
            .tokens
            .iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| token_text(&t.kind))
            .collect();
        // Binary presence features: the discriminating signal is *whether*
        // a security-relevant token/bigram occurs, not how often padding
        // tokens repeat. Presence + per-sample scaling keeps the signal
        // from being diluted by long real-world functions.
        for t in &texts {
            v[(hash_str(t) % self.dim as u64) as usize] = 1.0;
        }
        for w in texts.windows(2) {
            let bigram = format!("{}\u{1}{}", w[0], w[1]);
            v[(hash_str(&bigram) % self.dim as u64) as usize] = 1.0;
        }
        l2_normalize(&mut v);
        v
    }
}

/// Identifier-normalized token n-grams: like [`TokenNgramFeatures`] but
/// with identifiers erased to `<id>`, the normalization clone-detection
/// systems apply so that alpha-renamed near-duplicates map to near-identical
/// vectors. This is exactly why clone-style models are the family most
/// inflated by synthetic dataset duplication (experiment E08).
#[derive(Debug, Clone)]
pub struct NormalizedTokenFeatures {
    dim: usize,
}

impl NormalizedTokenFeatures {
    /// Creates an extractor with `dim` hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        NormalizedTokenFeatures { dim }
    }
}

impl FeatureExtractor for NormalizedTokenFeatures {
    fn name(&self) -> &'static str {
        "normalized-token"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        let mut v = vec![0.0; self.dim];
        let Ok(out) = lex(&sample.source) else { return v };
        let Ok(program) = vulnman_lang::parse(&sample.source) else { return v };
        // Library calls are kept (they are the semantic anchors); everything
        // declared locally is erased.
        let mut declared: std::collections::HashSet<vulnman_lang::Symbol> =
            std::collections::HashSet::new();
        for f in &program.functions {
            declared.insert(f.name.clone());
            for p in &f.params {
                declared.insert(p.name.clone());
            }
            f.walk_stmts(&mut |st| {
                if let StmtKind::Decl { name, .. } = &st.kind {
                    declared.insert(name.clone());
                }
            });
        }
        let texts: Vec<String> = out
            .tokens
            .iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| match &t.kind {
                TokenKind::Ident(name) if declared.contains(name.as_str()) => "<id>".to_string(),
                other => token_text(other),
            })
            .collect();
        for t in &texts {
            v[(hash_str(t) % self.dim as u64) as usize] = 1.0;
        }
        for w in texts.windows(2) {
            let bigram = format!("{}\u{1}{}", w[0], w[1]);
            v[(hash_str(&bigram) % self.dim as u64) as usize] = 1.0;
        }
        l2_normalize(&mut v);
        v
    }
}

/// Structural AST statistics (shallow-model style): sizes, complexity,
/// type usage, literal counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct AstStatFeatures;

impl AstStatFeatures {
    /// Number of output dimensions.
    pub const DIM: usize = 20;
}

impl FeatureExtractor for AstStatFeatures {
    fn name(&self) -> &'static str {
        "ast-stats"
    }

    fn dim(&self) -> usize {
        Self::DIM
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        let mut v = vec![0.0; Self::DIM];
        let Ok(program) = vulnman_lang::parse(&sample.source) else { return v };
        let mut agg = FunctionMetrics::default();
        let mut str_lits = 0.0;
        let mut int_lits = 0.0;
        let mut arrays = 0.0;
        let mut ptr_decls = 0.0;
        let mut returns = 0.0;
        for f in &program.functions {
            let m = FunctionMetrics::compute(f);
            agg.statements += m.statements;
            agg.cyclomatic += m.cyclomatic;
            agg.max_nesting = agg.max_nesting.max(m.max_nesting);
            agg.calls += m.calls;
            agg.distinct_callees += m.distinct_callees;
            agg.params += m.params;
            agg.locals += m.locals;
            agg.loops += m.loops;
            agg.branches += m.branches;
            agg.index_exprs += m.index_exprs;
            agg.derefs += m.derefs;
            f.walk_exprs(&mut |e| match &e.kind {
                ExprKind::Str(_) => str_lits += 1.0,
                ExprKind::Int(_) => int_lits += 1.0,
                _ => {}
            });
            f.walk_stmts(&mut |s| match &s.kind {
                StmtKind::Decl { ty, .. } => match ty {
                    Type::Array(_, _) => arrays += 1.0,
                    Type::Ptr(_) => ptr_decls += 1.0,
                    _ => {}
                },
                StmtKind::Return(_) => returns += 1.0,
                _ => {}
            });
        }
        let nf = program.functions.len().max(1) as f64;
        v[0] = program.functions.len() as f64;
        v[1] = agg.statements as f64 / nf;
        v[2] = agg.cyclomatic as f64 / nf;
        v[3] = agg.max_nesting as f64;
        v[4] = agg.calls as f64 / nf;
        v[5] = agg.distinct_callees as f64 / nf;
        v[6] = agg.params as f64 / nf;
        v[7] = agg.locals as f64 / nf;
        v[8] = agg.loops as f64 / nf;
        v[9] = agg.branches as f64 / nf;
        v[10] = agg.index_exprs as f64 / nf;
        v[11] = agg.derefs as f64 / nf;
        v[12] = str_lits / nf;
        v[13] = int_lits / nf;
        v[14] = arrays / nf;
        v[15] = ptr_decls / nf;
        v[16] = returns / nf;
        v[17] = sample.source.len() as f64 / 1000.0;
        v[18] = sample.source.lines().count() as f64 / 100.0;
        v[19] = 1.0; // bias-ish constant
        l2_normalize(&mut v);
        v
    }
}

/// Expert-crafted flow/graph features (GNN-style, Gap Observation 5):
/// security-relevant counts derived from the taint engine, CFG shape, and
/// known-risk syntactic patterns.
#[derive(Debug, Clone)]
pub struct ExpertFlowFeatures {
    config: TaintConfig,
}

impl ExpertFlowFeatures {
    /// Number of output dimensions.
    pub const DIM: usize = 24;

    /// Uses the workspace-default taint vocabulary.
    pub fn new() -> Self {
        ExpertFlowFeatures { config: TaintConfig::default_config() }
    }

    /// Uses a custom taint vocabulary (e.g. a team's source/sink set —
    /// the customization lever of Gap Observation 2).
    pub fn with_config(config: TaintConfig) -> Self {
        ExpertFlowFeatures { config }
    }
}

impl Default for ExpertFlowFeatures {
    fn default() -> Self {
        ExpertFlowFeatures::new()
    }
}

impl FeatureExtractor for ExpertFlowFeatures {
    fn name(&self) -> &'static str {
        "expert-flow"
    }

    fn dim(&self) -> usize {
        Self::DIM
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        let mut v = vec![0.0; Self::DIM];
        let Ok(program) = vulnman_lang::parse(&sample.source) else { return v };
        let analysis = TaintAnalysis::run(&program, &self.config);

        // Flow counts per sink kind.
        let kinds = ["sql", "command", "xss", "path", "format", "memory"];
        for (i, k) in kinds.iter().enumerate() {
            v[i] = analysis.findings_of_kind(k).len() as f64;
        }
        v[6] = analysis.findings.len() as f64;

        // Vocabulary usage counts.
        let mut sources = 0.0;
        let mut sinks = 0.0;
        let mut sanitizers = 0.0;
        let mut free_calls = 0.0;
        let mut maybe_null_lookups = 0.0;
        let mut null_checks = 0.0;
        let mut secret_literals = 0.0;
        let mut exists_checks = 0.0;
        let mut to_int_calls = 0.0;
        let mut mults = 0.0;
        let mut unbounded_loop_writes = 0.0;
        let mut bounded_loop_writes = 0.0;
        let mut allocs = 0.0;
        for f in &program.functions {
            f.walk_exprs(&mut |e| match &e.kind {
                ExprKind::Call(name, _) => {
                    if self.config.is_source(name) {
                        sources += 1.0;
                    }
                    if self.config.sink_positions(name).is_some() {
                        sinks += 1.0;
                    }
                    if self.config.is_sanitizer(name) {
                        sanitizers += 1.0;
                    }
                    match name.as_str() {
                        "free_mem" => free_calls += 1.0,
                        "find_entry" | "lookup_user" | "get_config" | "find_session" => {
                            maybe_null_lookups += 1.0
                        }
                        "file_exists" => exists_checks += 1.0,
                        "to_int" => to_int_calls += 1.0,
                        "alloc_buffer" => allocs += 1.0,
                        _ => {}
                    }
                }
                ExprKind::Str(s)
                    if s.len() >= 10
                        && !s.contains(' ')
                        && !s.contains('/')
                        && s.chars().any(|c| c.is_ascii_digit())
                        && s.chars().any(|c| c.is_ascii_alphabetic()) =>
                {
                    secret_literals += 1.0;
                }
                ExprKind::Binary(vulnman_lang::ast::BinOp::Mul, _, _) => mults += 1.0,
                _ => {}
            });
            f.walk_stmts(&mut |s| match &s.kind {
                StmtKind::If { cond, .. } => {
                    let mut zero_cmp = false;
                    cond.walk(&mut |e| {
                        if let ExprKind::Binary(
                            vulnman_lang::ast::BinOp::Eq | vulnman_lang::ast::BinOp::Ne,
                            l,
                            r,
                        ) = &e.kind
                        {
                            if matches!(l.kind, ExprKind::Int(0))
                                || matches!(r.kind, ExprKind::Int(0))
                            {
                                zero_cmp = true;
                            }
                        }
                    });
                    if zero_cmp {
                        null_checks += 1.0;
                    }
                }
                StmtKind::While { cond, body } => {
                    for inner in body {
                        if let StmtKind::Assign {
                            target: vulnman_lang::ast::LValue::Index(_, idx),
                            ..
                        } = &inner.kind
                        {
                            if let ExprKind::Var(i) = &idx.kind {
                                let mut bounded = false;
                                cond.walk(&mut |e| {
                                    if let ExprKind::Binary(op, l, r) = &e.kind {
                                        use vulnman_lang::ast::BinOp::*;
                                        let li = matches!(&l.kind, ExprKind::Var(v) if v == i);
                                        let ri = matches!(&r.kind, ExprKind::Var(v) if v == i);
                                        if (matches!(op, Lt | Le) && li)
                                            || (matches!(op, Gt | Ge) && ri)
                                        {
                                            bounded = true;
                                        }
                                    }
                                });
                                if bounded {
                                    bounded_loop_writes += 1.0;
                                } else {
                                    unbounded_loop_writes += 1.0;
                                }
                            }
                        }
                    }
                }
                _ => {}
            });
        }
        v[7] = sources;
        v[8] = sinks;
        v[9] = sanitizers;
        v[10] = free_calls;
        v[11] = maybe_null_lookups;
        v[12] = null_checks;
        v[13] = secret_literals;
        v[14] = exists_checks;
        v[15] = to_int_calls;
        v[16] = mults;
        v[17] = unbounded_loop_writes;
        v[18] = bounded_loop_writes;
        v[19] = allocs;
        // Interaction terms experts know matter.
        v[20] = (sources > 0.0 && sinks > 0.0 && sanitizers == 0.0) as u8 as f64;
        v[21] = (maybe_null_lookups > null_checks) as u8 as f64;
        v[22] = (free_calls > 0.0) as u8 as f64;
        v[23] = program.functions.len() as f64 / 10.0;
        l2_normalize(&mut v);
        v
    }
}

/// Outputs of the existing rule-based tool ecosystem as features — the
/// "integration with and learning from existing tool ecosystems" lever of
/// Gap Observation 2 / Future Direction Proposal 2. A model trained over
/// these learns *when to trust each installed tool*, which is exactly how
/// industry composes a new model with its incumbent suite.
pub struct ToolAugmentedFeatures {
    engine: vulnman_analysis_shim::RuleEngineShim,
}

// `vulnman-ml` must not depend on `vulnman-analysis` (it would create a
// cycle once analysis consumes ML detectors); the shim below duplicates the
// minimal scan-call via a trait object injected at construction.
mod vulnman_analysis_shim {
    /// Object-safe adapter over any scanner that can count findings per CWE.
    pub trait ToolSuite: Send + Sync {
        /// Returns `(cwe id, confidence in [0,1])` pairs for the unit.
        fn scan_counts(&self, source: &str) -> Vec<(u32, f64)>;
    }
    pub struct RuleEngineShim(pub Box<dyn ToolSuite>);
}

pub use vulnman_analysis_shim::ToolSuite;

impl ToolAugmentedFeatures {
    /// Number of output dimensions: one slot per catalog CWE plus a total.
    /// Derived from the catalog so a new class widens the vector instead of
    /// indexing past it (the pre-derivation constant lagged the catalog).
    pub const DIM: usize = vulnman_synth::cwe::Cwe::ALL.len() + 1;

    /// Wraps a tool suite (e.g. the rule engine from `vulnman-analysis`,
    /// adapted through [`ToolSuite`]).
    pub fn new(suite: Box<dyn ToolSuite>) -> Self {
        ToolAugmentedFeatures { engine: vulnman_analysis_shim::RuleEngineShim(suite) }
    }
}

impl std::fmt::Debug for ToolAugmentedFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolAugmentedFeatures").finish()
    }
}

impl FeatureExtractor for ToolAugmentedFeatures {
    fn name(&self) -> &'static str {
        "tool-augmented"
    }

    fn dim(&self) -> usize {
        Self::DIM
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        use vulnman_synth::cwe::Cwe;
        let mut v = vec![0.0; Self::DIM];
        for (id, confidence) in self.engine.0.scan_counts(&sample.source) {
            if let Some(pos) = Cwe::ALL.iter().position(|c| c.id() == id) {
                v[pos] += confidence;
            }
            v[Self::DIM - 1] += confidence;
        }
        v
    }
}

/// Hashed bag-of-words over multimodal artifacts (commit messages, review
/// comments, analyst notes) — the industry-only signal of Gap Observation 4.
#[derive(Debug, Clone)]
pub struct ArtifactTextFeatures {
    dim: usize,
}

impl ArtifactTextFeatures {
    /// Creates an extractor with `dim` hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        ArtifactTextFeatures { dim }
    }
}

impl Default for ArtifactTextFeatures {
    fn default() -> Self {
        ArtifactTextFeatures::new(64)
    }
}

impl FeatureExtractor for ArtifactTextFeatures {
    fn name(&self) -> &'static str {
        "artifact-text"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        let mut v = vec![0.0; self.dim];
        let text = sample.artifacts.combined_text().to_ascii_lowercase();
        for word in text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| !w.is_empty()) {
            v[(hash_str(word) % self.dim as u64) as usize] += 1.0;
        }
        l2_normalize(&mut v);
        v
    }
}

/// Concatenation of several extractors.
pub struct ComposedFeatures {
    parts: Vec<Box<dyn FeatureExtractor>>,
    dim: usize,
}

impl std::fmt::Debug for ComposedFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComposedFeatures")
            .field("parts", &self.parts.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("dim", &self.dim)
            .finish()
    }
}

impl ComposedFeatures {
    /// Concatenates the given extractors in order.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<Box<dyn FeatureExtractor>>) -> Self {
        assert!(!parts.is_empty(), "at least one extractor required");
        let dim = parts.iter().map(|p| p.dim()).sum();
        ComposedFeatures { parts, dim }
    }
}

impl FeatureExtractor for ComposedFeatures {
    fn name(&self) -> &'static str {
        "composed"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn extract(&self, sample: &Sample) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.dim);
        for p in &self.parts {
            v.extend(p.extract(sample));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_synth::cwe::Cwe;
    use vulnman_synth::generator::SampleGenerator;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::tier::Tier;

    fn samples() -> (Sample, Sample) {
        let mut g = SampleGenerator::new(1, StyleProfile::mainstream());
        g.vulnerable_pair(Cwe::SqlInjection, Tier::Curated, "p")
    }

    #[test]
    fn token_features_have_right_dim_and_norm() {
        let (v, _) = samples();
        let fx = TokenNgramFeatures::new(128);
        let x = fx.extract(&v);
        assert_eq!(x.len(), 128);
        let norm: f64 = x.iter().map(|a| a * a).sum();
        assert!((norm - 1.0).abs() < 1e-9, "should be L2-normalized: {norm}");
    }

    #[test]
    fn token_features_distinguish_pair() {
        let (v, f) = samples();
        let fx = TokenNgramFeatures::default();
        assert_ne!(fx.extract(&v), fx.extract(&f), "sanitizer tokens should differ");
    }

    #[test]
    fn ast_stats_reflect_structure() {
        let (v, _) = samples();
        let fx = AstStatFeatures;
        let x = fx.extract(&v);
        assert_eq!(x.len(), AstStatFeatures::DIM);
        assert!(x[0] > 0.0, "function count present");
    }

    #[test]
    fn expert_features_fire_on_flow() {
        let (v, f) = samples();
        let fx = ExpertFlowFeatures::new();
        let xv = fx.extract(&v);
        let xf = fx.extract(&f);
        // Flow-count dims must be nonzero only on the vulnerable variant.
        assert!(xv[6] > 0.0, "vulnerable sample should have flows");
        assert_eq!(xf[6], 0.0, "fixed sample should have none");
    }

    #[test]
    fn artifact_features_capture_fix_language() {
        let (v, f) = samples();
        let fx = ArtifactTextFeatures::default();
        assert_ne!(fx.extract(&v), fx.extract(&f));
    }

    #[test]
    fn composed_concatenates() {
        let (v, _) = samples();
        let fx = ComposedFeatures::new(vec![
            Box::new(TokenNgramFeatures::new(32)),
            Box::new(AstStatFeatures),
        ]);
        assert_eq!(fx.dim(), 32 + AstStatFeatures::DIM);
        assert_eq!(fx.extract(&v).len(), fx.dim());
    }

    #[test]
    fn extraction_is_deterministic() {
        let (v, _) = samples();
        let fx = TokenNgramFeatures::default();
        assert_eq!(fx.extract(&v), fx.extract(&v));
    }

    #[test]
    fn normalized_tokens_collapse_alpha_renames() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (v, _) = samples();
        let mut rng = StdRng::seed_from_u64(3);
        let dup_src = vulnman_synth::mutate::near_duplicate(&v.source, &mut rng).unwrap();
        let mut dup = v.clone();
        dup.source = dup_src;
        let raw = TokenNgramFeatures::new(256);
        let norm = NormalizedTokenFeatures::new(256);
        let cos = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let raw_sim = cos(&raw.extract(&v), &raw.extract(&dup));
        let norm_sim = cos(&norm.extract(&v), &norm.extract(&dup));
        assert!(
            norm_sim > raw_sim,
            "normalization should bring duplicates closer: {norm_sim} vs {raw_sim}"
        );
        assert!(norm_sim > 0.9, "near-duplicates nearly collide: {norm_sim}");
    }

    #[test]
    fn hashing_is_stable_fnv() {
        // Pin a value so accidental hasher changes show up.
        assert_eq!(super::hash_str("exec_query") % 256, hash_str("exec_query") % 256);
        assert_ne!(hash_str("a"), hash_str("b"));
    }
}
