//! Application-security review of a service codebase.
//!
//! A security engineer points the platform at a team's code: scan with the
//! specialized rule suite (customized to the team's sanitizer vocabulary),
//! rank findings by threat-modeled priority, auto-fix the mechanical ones,
//! and print what is left for the experts.
//!
//! ```sh
//! cargo run --release --example appsec_review
//! ```

use vulnman::analysis::detectors::RuleEngine;
use vulnman::analysis::reachability::surfaces;
use vulnman::analysis::severity::{score, triage_order};
use vulnman::core::customize::SecurityStandard;
use vulnman::prelude::*;
use vulnman::synth::generator::SampleGenerator;

fn main() {
    // The media-infra team: camelCase, wrapped helpers, and team-library
    // sanitizers (`mi_clean_*`) that a stock tool has never heard of.
    let team = StyleProfile::internal_teams()[1].clone();
    let standard = SecurityStandard::for_team(&team);
    println!(
        "reviewing team `{}` (custom sanitizers: {:?})",
        team.team, standard.custom_sanitizers
    );

    // A slice of their codebase: real flaws mixed into mostly-safe code.
    let mut generator = SampleGenerator::new(7, team.clone());
    let mut units = Vec::new();
    for cwe in [Cwe::SqlInjection, Cwe::UseAfterFree, Cwe::HardcodedCredentials] {
        let (vuln, fixed) = generator.vulnerable_pair(cwe, Tier::RealWorld, "media/transcoder");
        units.push(vuln);
        units.push(fixed);
    }
    units.push(generator.benign_risky(Tier::RealWorld, "media/transcoder"));

    // A *stock* engine vs one whose taint detector is customized with the
    // team's sanitizer vocabulary: the difference is exactly Gap
    // Observation 2.
    let stock = RuleEngine::default_suite();
    let customized = RuleEngine::suite_with_taint(standard.taint_config());

    let mut scored = Vec::new();
    let mut stock_fps = 0;
    for unit in &units {
        let program = parse(&unit.source).expect("generated code parses");
        let surface = surfaces(&program).get(&unit.target_fn).copied().unwrap_or(Surface::Local);

        let stock_findings = stock.scan(&program);
        let custom_findings = customized.scan(&program);
        // Stock tooling false-positives on the team's own sanitizer wrappers.
        if !unit.label && !stock_findings.is_empty() && custom_findings.is_empty() {
            stock_fps += 1;
        }
        // With customization, the *taint* detector resolves team wrappers; a
        // finding is kept if the customized taint pass still sees it.
        let mut seen = std::collections::HashSet::new();
        for finding in stock_findings {
            let resolved_clean = finding.detector == "taint-flow"
                && !custom_findings.iter().any(|f| f.cwe == finding.cwe);
            if !resolved_clean && seen.insert((finding.cwe, finding.function.clone())) {
                scored.push(score(finding, surface));
            }
        }
    }
    println!("stock-tool false alarms resolved by team customization: {stock_fps}");

    // Threat-model-ordered triage queue.
    triage_order(&mut scored);
    println!("\ntriage queue (priority = severity x exploitability):");
    for s in &scored {
        println!(
            "  [{:>5.2}] {} in `{}` ({:?} surface) — {}",
            s.priority, s.finding.cwe, s.finding.function, s.surface, s.finding.message
        );
    }

    // Auto-fix what has a unified mechanical remediation.
    let fixer = AutoFixer::new();
    let mut fixed = 0;
    let mut escalated = 0;
    for unit in units.iter().filter(|u| u.label) {
        let cwe = unit.cwe.expect("labeled sample has a class");
        match fixer.fix_source(&unit.source, cwe) {
            Some(patch) => {
                fixed += 1;
                println!("\nauto-fixed {} in `{}`; patch verified:", cwe, unit.target_fn);
                let verified = RuleEngine::default_suite()
                    .scan_source(&patch)
                    .map(|fs| fs.iter().all(|f| f.cwe != cwe))
                    .unwrap_or(false);
                println!("  re-scan clean: {verified}");
            }
            None => {
                escalated += 1;
                println!("\n{} in `{}` has no unified fix — routed to expert", cwe, unit.target_fn);
            }
        }
    }
    println!("\nsummary: {fixed} auto-fixed, {escalated} escalated to expert recommendation");
}
