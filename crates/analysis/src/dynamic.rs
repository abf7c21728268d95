//! Dynamic analysis: a sanitizer-instrumented test execution.
//!
//! Figure 1: "automated assessments mainly leverage rule-based analysis
//! tools, including **dynamic and static analysis**". This detector runs the
//! unit under the adversarial input model of
//! [`vulnman_lang::interp`] and converts observed runtime faults into
//! findings. It has the classic dynamic-analysis profile: near-zero false
//! positives (it *watched* the fault happen) but blind spots — logic
//! classes that do not fault under single-threaded execution (hard-coded
//! credentials, TOCTOU races) and any path the driver does not reach.

use crate::detectors::StaticDetector;
use crate::finding::{Confidence, Finding};
use vulnman_lang::ast::Program;
use vulnman_lang::interp::{run_program, DynamicEventKind, InterpConfig};
use vulnman_synth::cwe::Cwe;

/// Sanitizer-style dynamic detector.
///
/// Implements [`StaticDetector`] (the workflow's uniform *program scanner*
/// interface — the trait abstracts scanners, not analysis technique).
#[derive(Debug)]
pub struct DynamicSanitizer {
    config: InterpConfig,
    /// [`StaticDetector::fingerprint`], computed once: it hashes the whole
    /// configuration and is consulted on every cached scan.
    fingerprint: u64,
}

impl DynamicSanitizer {
    /// Uses the default adversarial input model.
    pub fn new() -> Self {
        DynamicSanitizer::with_config(InterpConfig::default())
    }

    /// Uses a custom interpreter configuration (e.g. a team taint
    /// vocabulary, or a friendlier input model).
    pub fn with_config(config: InterpConfig) -> Self {
        let name = vulnman_lang::hash::fnv1a(b"dynamic-sanitizer");
        let fingerprint =
            vulnman_lang::hash::fnv1a_seeded(name, &config.fingerprint().to_le_bytes());
        DynamicSanitizer { config, fingerprint }
    }

    /// Maps an observed runtime fault to the CWE class it evidences.
    ///
    /// `None` only for [`DynamicEventKind::TaintedSink`] events whose kind
    /// string is outside the built-in vocabulary; [`DynamicSanitizer::scan`]
    /// turns those into a low-confidence generic injection finding instead
    /// of dropping them (a runtime-observed fault must never vanish from
    /// the report).
    fn event_to_cwe(kind: &DynamicEventKind) -> Option<Cwe> {
        Some(match kind {
            DynamicEventKind::OutOfBoundsWrite => Cwe::OutOfBoundsWrite,
            DynamicEventKind::OutOfBoundsRead => Cwe::OutOfBoundsRead,
            DynamicEventKind::UseAfterFree => Cwe::UseAfterFree,
            DynamicEventKind::NullDereference => Cwe::NullDereference,
            DynamicEventKind::IntegerOverflow => Cwe::IntegerOverflow,
            DynamicEventKind::TaintedSink(kind) => return crate::detectors::sink_kind_to_cwe(kind),
        })
    }

    fn describe(kind: &DynamicEventKind) -> String {
        match kind {
            DynamicEventKind::OutOfBoundsWrite => "out-of-bounds write observed at runtime".into(),
            DynamicEventKind::OutOfBoundsRead => "out-of-bounds read observed at runtime".into(),
            DynamicEventKind::UseAfterFree => "freed object used at runtime".into(),
            DynamicEventKind::NullDereference => "null pointer dereferenced at runtime".into(),
            DynamicEventKind::IntegerOverflow => "32-bit arithmetic wrapped at runtime".into(),
            DynamicEventKind::TaintedSink(k) => {
                format!("attacker data observed reaching a {k} sink at runtime")
            }
        }
    }
}

impl Default for DynamicSanitizer {
    fn default() -> Self {
        DynamicSanitizer::new()
    }
}

impl StaticDetector for DynamicSanitizer {
    fn name(&self) -> &'static str {
        "dynamic-sanitizer"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![
            Cwe::OutOfBoundsWrite,
            Cwe::OutOfBoundsRead,
            Cwe::UseAfterFree,
            Cwe::NullDereference,
            Cwe::IntegerOverflow,
            Cwe::SqlInjection,
            Cwe::CommandInjection,
            Cwe::CrossSiteScripting,
            Cwe::PathTraversal,
            Cwe::FormatString,
        ]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let report = run_program(program, &self.config);
        report
            .events
            .iter()
            .map(|e| match Self::event_to_cwe(&e.kind) {
                Some(cwe) => Finding {
                    cwe,
                    function: e.function.clone(),
                    span: e.span,
                    detector: "dynamic-sanitizer".into(),
                    message: Self::describe(&e.kind),
                    confidence: Confidence::High,
                    evidence: None,
                },
                None => {
                    // A tainted-sink fault with a team-specific kind string
                    // outside the built-in vocabulary. The fault *happened*
                    // at runtime, so it must surface — as a generic
                    // injection finding at low confidence rather than a
                    // silently dropped event.
                    let kind = match &e.kind {
                        DynamicEventKind::TaintedSink(k) => k.as_str(),
                        _ => unreachable!("only unmapped sink kinds reach here"),
                    };
                    Finding {
                        cwe: Cwe::CommandInjection,
                        function: e.function.clone(),
                        span: e.span,
                        detector: "dynamic-sanitizer".into(),
                        message: format!(
                            "attacker data observed reaching an unmapped `{kind}` sink at \
                             runtime (generic injection finding; map this kind in the taint \
                             vocabulary for a precise class)"
                        ),
                        confidence: Confidence::Low,
                        evidence: None,
                    }
                }
            })
            .collect()
    }
}

/// Classes the dynamic sanitizer can observe under its input model.
///
/// Beyond the logic classes, the semantic classes are invisible at runtime
/// by construction of the language: an uninitialized declaration reads as
/// `0` and division by zero evaluates to `0`, so neither faults — only the
/// abstract-interpretation checkers see them. The same holds for the scale-out
/// classes: a double release of an opaque handle, a narrowing store, and a
/// stale check-to-use window are all silent in a single-threaded, fault-free
/// interpretation, so the ownership/width/trace-interleaving checkers own them.
pub fn dynamically_detectable(cwe: Cwe) -> bool {
    !matches!(
        cwe,
        Cwe::HardcodedCredentials
            | Cwe::RaceCondition
            | Cwe::UninitializedUse
            | Cwe::DivideByZero
            | Cwe::DoubleFree
            | Cwe::IntegerTruncation
            | Cwe::Toctou
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vulnman_lang::parse;
    use vulnman_synth::emit::EmitCtx;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::templates;
    use vulnman_synth::tier::Tier;

    #[test]
    fn dynamic_detector_covers_every_detectable_template_class() {
        let detector = DynamicSanitizer::new();
        let style = StyleProfile::mainstream();
        for cwe in Cwe::ALL.into_iter().filter(|c| dynamically_detectable(*c)) {
            let mut caught = 0;
            let mut clean = 0;
            let n = 6;
            for seed in 0..n {
                let mut rng = StdRng::seed_from_u64(seed * 17 + cwe.id() as u64);
                let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
                let pair = templates::generate(cwe, &mut ctx);
                let fv = detector.scan(&parse(&pair.vulnerable).unwrap());
                let ff = detector.scan(&parse(&pair.fixed).unwrap());
                if fv.iter().any(|f| f.cwe == cwe) {
                    caught += 1;
                }
                if ff.iter().all(|f| f.cwe != cwe) {
                    clean += 1;
                }
            }
            assert_eq!(caught, n, "{cwe}: every vulnerable variant must fault at runtime");
            assert_eq!(clean, n, "{cwe}: no fixed variant may fault");
        }
    }

    #[test]
    fn blind_spots_are_the_logic_classes() {
        let detector = DynamicSanitizer::new();
        let style = StyleProfile::mainstream();
        for cwe in [
            Cwe::HardcodedCredentials,
            Cwe::RaceCondition,
            Cwe::UninitializedUse,
            Cwe::DivideByZero,
            Cwe::DoubleFree,
            Cwe::IntegerTruncation,
            Cwe::Toctou,
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut ctx = EmitCtx::new(&style, Tier::Simple, &mut rng);
            let pair = templates::generate(cwe, &mut ctx);
            let findings = detector.scan(&parse(&pair.vulnerable).unwrap());
            assert!(
                findings.iter().all(|f| f.cwe != cwe),
                "{cwe} cannot manifest under single-threaded execution: {findings:?}"
            );
            assert!(!dynamically_detectable(cwe));
        }
    }

    #[test]
    fn no_false_positives_on_risky_benign_code() {
        use vulnman_synth::generator::SampleGenerator;
        let detector = DynamicSanitizer::new();
        let mut g = SampleGenerator::new(77, StyleProfile::mainstream());
        for _ in 0..30 {
            let b = g.benign_risky(Tier::Curated, "p");
            let findings = detector.scan(&parse(&b.source).unwrap());
            assert!(
                findings.is_empty(),
                "dynamic analysis observed a fault in safe code:\n{}\n{findings:?}",
                b.source
            );
        }
    }

    #[test]
    fn unmapped_sink_kind_still_surfaces_as_a_finding() {
        // Regression: a `TaintedSink` event whose kind string is outside
        // the built-in vocabulary used to be silently dropped
        // (`_ => return None`), making a runtime-observed fault vanish
        // from the report. It must now surface as a low-confidence
        // generic finding.
        let mut config = InterpConfig::default();
        config.taint.add_sink("ldap_query", vec![0], "ldap");
        let detector = DynamicSanitizer::with_config(config);
        let program =
            parse(r#"void handler() { char* q = http_param("filter"); ldap_query(q); }"#).unwrap();
        let findings = detector.scan(&program);
        assert_eq!(findings.len(), 1, "the observed fault must not vanish: {findings:?}");
        assert_eq!(findings[0].confidence, Confidence::Low, "unmapped kind => low confidence");
        assert!(
            findings[0].message.contains("ldap"),
            "the unmapped kind is named in the message: {}",
            findings[0].message
        );
        // Mapped kinds are unaffected: same flow through a known sink is a
        // high-confidence, precisely classified finding.
        let stock = DynamicSanitizer::new();
        let program =
            parse(r#"void handler() { char* q = http_param("filter"); exec_query(q); }"#).unwrap();
        let findings = stock.scan(&program);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].cwe, Cwe::SqlInjection);
        assert_eq!(findings[0].confidence, Confidence::High);
    }

    #[test]
    fn team_config_respected() {
        // A team-customized interpreter trusts the team's sanitizer wrapper.
        let style = StyleProfile::internal_teams()[1].clone();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ctx = EmitCtx::new(&style, Tier::Simple, &mut rng);
        let pair = templates::generate(Cwe::SqlInjection, &mut ctx);
        let mut config = InterpConfig::default();
        config.taint.add_sanitizer("mi_clean_sql");
        let custom = DynamicSanitizer::with_config(config);
        let ff = custom.scan(&parse(&pair.fixed).unwrap());
        assert!(ff.iter().all(|f| f.cwe != Cwe::SqlInjection), "{ff:?}");
    }
}
