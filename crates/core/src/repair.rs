//! Program-repair engines and the verification harness (experiment E15).
//!
//! Three engines model the spectrum the paper discusses:
//!
//! * [`RuleRepairEngine`] — the industry auto-fix baseline (unified rules,
//!   only for mechanically fixable classes),
//! * [`RetrievalRepairEngine`] — a specialized small model (SLM) that
//!   retrieves fix patterns it has seen; strong on familiar styles, lost on
//!   unfamiliar ones,
//! * [`LlmSimRepairEngine`] — a general language-model simulator whose
//!   solve probability collapses with task complexity, calibrated to the
//!   toy-benchmark vs SWE-bench gap the paper cites (Claude-2 4.8%, GPT-4
//!   1.7% on real GitHub issues).
//!
//! A proposed patch only counts as a **solve** if the verifier accepts it:
//! it parses, removes the target-class finding, and does not gut the
//! program.

use serde::{Deserialize, Serialize};
use vulnman_analysis::autofix::AutoFixer;
use vulnman_analysis::detectors::RuleEngine;
use vulnman_lang::hash::unit_f64;
use vulnman_synth::repair_tasks::RepairTask;
use vulnman_synth::tier::Tier;

/// A program-repair engine.
pub trait RepairEngine: Send + Sync {
    /// Display name.
    fn name(&self) -> &'static str;
    /// Proposes a patched unit for the task, or `None` if the engine
    /// abstains.
    fn propose(&self, task: &RepairTask) -> Option<String>;
}

/// Verdict of the verification harness on one proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Patch verified: parses, finding removed, program intact.
    Solved,
    /// Engine produced nothing.
    Abstained,
    /// Patch does not parse.
    Broken,
    /// Patch parses but the vulnerability is still detected.
    StillVulnerable,
    /// Patch "fixed" the finding by destroying the program.
    Gutted,
}

/// Verifies a proposal against its task.
pub fn verify(task: &RepairTask, proposal: Option<&str>) -> Verdict {
    let Some(patched) = proposal else { return Verdict::Abstained };
    let Ok(program) = vulnman_lang::parse(patched) else { return Verdict::Broken };
    let Ok(original) = vulnman_lang::parse(&task.broken) else { return Verdict::Broken };
    // Anti-gutting: must keep the functions and most of the logic.
    let orig_stmts: usize = original.functions.iter().map(|f| f.stmt_count()).sum();
    let new_stmts: usize = program.functions.iter().map(|f| f.stmt_count()).sum();
    if program.functions.len() < original.functions.len() || new_stmts * 2 < orig_stmts {
        return Verdict::Gutted;
    }
    let engine = RuleEngine::default_suite();
    let findings = engine.scan(&program);
    if findings.iter().any(|f| f.cwe == task.cwe) {
        Verdict::StillVulnerable
    } else {
        Verdict::Solved
    }
}

/// Solve-rate summary for one engine over a task suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairOutcome {
    /// Engine name.
    pub engine: String,
    /// Task tier evaluated.
    pub tier: Tier,
    /// Tasks attempted.
    pub total: usize,
    /// Verified solves.
    pub solved: usize,
    /// Abstentions.
    pub abstained: usize,
    /// Broken / still-vulnerable / gutted proposals.
    pub rejected: usize,
}

impl RepairOutcome {
    /// Verified solve rate.
    pub fn solve_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.solved as f64 / self.total as f64
        }
    }
}

/// Runs an engine over a suite and verifies every proposal.
pub fn evaluate_engine(engine: &dyn RepairEngine, tasks: &[RepairTask]) -> RepairOutcome {
    let tier = tasks.first().map(|t| t.tier).unwrap_or(Tier::Simple);
    let mut outcome = RepairOutcome {
        engine: engine.name().to_string(),
        tier,
        total: tasks.len(),
        solved: 0,
        abstained: 0,
        rejected: 0,
    };
    for task in tasks {
        let proposal = engine.propose(task);
        match verify(task, proposal.as_deref()) {
            Verdict::Solved => outcome.solved += 1,
            Verdict::Abstained => outcome.abstained += 1,
            _ => outcome.rejected += 1,
        }
    }
    outcome
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

/// Industry rule-based auto-fix: patches only the classes with unified
/// mechanical fixes, abstains otherwise.
#[derive(Debug, Default)]
pub struct RuleRepairEngine {
    fixer: AutoFixer,
}

impl RuleRepairEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        RuleRepairEngine::default()
    }
}

impl RepairEngine for RuleRepairEngine {
    fn name(&self) -> &'static str {
        "rule-autofix"
    }

    fn propose(&self, task: &RepairTask) -> Option<String> {
        AutoFixer::supports(task.cwe)
            .then(|| self.fixer.fix_source(&task.broken, task.cwe))
            .flatten()
    }
}

/// Retrieval-based specialized model: has memorized mainstream fix
/// patterns; on unfamiliar team styles it retrieves the *wrong* template
/// (applies a mainstream fix shape that may not sanitize the aliased
/// idioms), modeled by falling back to a cosmetic edit.
#[derive(Debug, Default)]
pub struct RetrievalRepairEngine {
    fixer: AutoFixer,
}

impl RetrievalRepairEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        RetrievalRepairEngine::default()
    }
}

impl RepairEngine for RetrievalRepairEngine {
    fn name(&self) -> &'static str {
        "retrieval-slm"
    }

    fn propose(&self, task: &RepairTask) -> Option<String> {
        let familiar = task.team == "oss-mainstream" || task.team == "payments";
        if familiar {
            // Retrieves the right template for styles it trained on.
            self.fixer.fix_source(&task.broken, task.cwe).or_else(|| cosmetic_edit(&task.broken))
        } else {
            // Unfamiliar idioms: retrieves a near-miss.
            cosmetic_edit(&task.broken)
        }
    }
}

/// General LLM simulator: always answers, correct with a tier-dependent
/// probability (deterministic per task id); wrong answers are plausible
/// cosmetic patches, occasionally unparseable.
#[derive(Debug)]
pub struct LlmSimRepairEngine {
    fixer: AutoFixer,
    seed: u64,
    /// Solve probability per tier `(simple, curated, real_world)` —
    /// defaults calibrated to the paper's cited numbers.
    pub solve_prob: (f64, f64, f64),
}

impl LlmSimRepairEngine {
    /// Creates the simulator with the paper-calibrated profile.
    pub fn new(seed: u64) -> Self {
        LlmSimRepairEngine { fixer: AutoFixer::new(), seed, solve_prob: (0.88, 0.45, 0.048) }
    }

    fn tier_prob(&self, tier: Tier) -> f64 {
        match tier {
            Tier::Simple => self.solve_prob.0,
            Tier::Curated => self.solve_prob.1,
            Tier::RealWorld => self.solve_prob.2,
        }
    }
}

impl RepairEngine for LlmSimRepairEngine {
    fn name(&self) -> &'static str {
        "llm-sim"
    }

    fn propose(&self, task: &RepairTask) -> Option<String> {
        let u = unit_f64(task.id ^ self.seed.wrapping_mul(0x5bd1e995));
        if u < self.tier_prob(task.tier) {
            // "Knows" the fix: reproduce the canonical remediation.
            if let Some(fix) = self.fixer.fix_source(&task.broken, task.cwe) {
                return Some(fix);
            }
            // Classes without mechanical fixes: fall back to the reference
            // patch shape (the model has seen similar diffs in training).
            return Some(task.reference_fix.clone());
        }
        // Hallucination: plausible but wrong; sometimes syntactically broken.
        if u > 0.97 {
            Some(format!("{}\n}}", task.broken)) // extra brace: parse error
        } else {
            cosmetic_edit(&task.broken)
        }
    }
}

/// A syntactically valid edit that does not address the vulnerability
/// (logging added to the top of the first function).
fn cosmetic_edit(source: &str) -> Option<String> {
    let mut program = vulnman_lang::parse(source).ok()?;
    let func = program.functions.first_mut()?;
    func.body.insert(
        0,
        vulnman_lang::Stmt::new(
            vulnman_lang::ast::StmtKind::Expr(vulnman_lang::Expr::call(
                "log_event",
                vec![vulnman_lang::Expr::new(
                    vulnman_lang::ast::ExprKind::Str("patched".to_string()),
                    vulnman_lang::Span::dummy(),
                )],
            )),
            vulnman_lang::Span::dummy(),
        ),
    );
    Some(vulnman_lang::print_program(&program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_synth::repair_tasks::generate_tasks;

    #[test]
    fn verifier_accepts_reference_fixes() {
        for task in generate_tasks(1, Tier::Curated, 12) {
            assert_eq!(
                verify(&task, Some(&task.reference_fix)),
                Verdict::Solved,
                "reference fix must verify for {}",
                task.cwe
            );
        }
    }

    #[test]
    fn verifier_rejects_noop_and_broken() {
        let tasks = generate_tasks(2, Tier::Simple, 4);
        let t = &tasks[0];
        assert_eq!(verify(t, Some(&t.broken)), Verdict::StillVulnerable);
        assert_eq!(verify(t, Some("not code at all {{{")), Verdict::Broken);
        assert_eq!(verify(t, None), Verdict::Abstained);
    }

    #[test]
    fn verifier_rejects_gutted_patch() {
        let tasks = generate_tasks(3, Tier::Curated, 1);
        let t = &tasks[0];
        // "Fix" by replacing everything with one empty function per original.
        let n = vulnman_lang::parse(&t.broken).unwrap().functions.len();
        let gutted: String =
            (0..n).map(|i| format!("void g{i}() {{\n}}\n")).collect::<Vec<_>>().join("\n");
        assert_eq!(verify(t, Some(&gutted)), Verdict::Gutted);
    }

    #[test]
    fn rule_engine_solves_supported_simple_tasks() {
        let tasks = generate_tasks(4, Tier::Simple, 24);
        let outcome = evaluate_engine(&RuleRepairEngine::new(), &tasks);
        assert!(outcome.solve_rate() > 0.5, "{outcome:?}");
        assert!(outcome.abstained > 0, "must abstain on non-mechanical classes");
    }

    #[test]
    fn llm_sim_collapses_with_tier() {
        let engine = LlmSimRepairEngine::new(9);
        let mut rates = Vec::new();
        for tier in Tier::ALL {
            let tasks = generate_tasks(5, tier, 60);
            rates.push(evaluate_engine(&engine, &tasks).solve_rate());
        }
        assert!(rates[0] > 0.7, "toy benchmark high: {rates:?}");
        assert!(rates[2] < 0.12, "real-world single digits: {rates:?}");
        assert!(rates[0] > rates[1] && rates[1] > rates[2], "{rates:?}");
    }

    #[test]
    fn retrieval_engine_is_style_sensitive() {
        let engine = RetrievalRepairEngine::new();
        let simple = evaluate_engine(&engine, &generate_tasks(6, Tier::Simple, 30));
        let real = evaluate_engine(&engine, &generate_tasks(6, Tier::RealWorld, 30));
        assert!(
            simple.solve_rate() > real.solve_rate() + 0.2,
            "familiar styles should be much easier: {} vs {}",
            simple.solve_rate(),
            real.solve_rate()
        );
    }

    #[test]
    fn outcome_accounting_adds_up() {
        let tasks = generate_tasks(7, Tier::Curated, 20);
        let o = evaluate_engine(&LlmSimRepairEngine::new(1), &tasks);
        assert_eq!(o.solved + o.abstained + o.rejected, o.total);
    }
}
