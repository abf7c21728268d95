//! Workspace integration tests: the full platform exercised across crates —
//! corpus generation → analysis → ML → workflow → repair → data products.

use vulnman::core::sft::{harvest, SftTask};
use vulnman::prelude::*;

fn stream(seed: u64, n: usize) -> Dataset {
    DatasetBuilder::new(seed)
        .teams({
            let mut t = vec![StyleProfile::mainstream()];
            t.extend(StyleProfile::internal_teams());
            t
        })
        .vulnerable_count(n)
        .vulnerable_fraction(0.25)
        .tier_mix(vec![(Tier::Simple, 1.0), (Tier::Curated, 2.0), (Tier::RealWorld, 1.0)])
        .build()
}

#[test]
fn full_pipeline_from_corpus_to_sft() {
    // 1. Corpus.
    let corpus = stream(1, 24);
    assert_eq!(corpus.vulnerable_count(), 24);
    for s in &corpus {
        parse(&s.source).expect("every sample parses");
    }

    // 2. Train an ML detector and register it beside the rule suite.
    let train = DatasetBuilder::new(2).vulnerable_count(60).build();
    let mut model = model_zoo(3).remove(2);
    model.train(&train);
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    registry.register(Box::new(MlDetector::new(model)));

    // 3. Run the Figure-1 workflow.
    let engine = WorkflowEngine::new(registry, WorkflowConfig::default());
    let report = engine.process(corpus.samples());
    let metrics = report.detection_metrics();
    assert!(metrics.recall() > 0.8, "combined stack recall {:?}", metrics);
    assert_eq!(
        report.auto_fixed + report.ai_fixed + report.expert_fixed + report.escaped,
        corpus.vulnerable_count(),
        "every vulnerability is repaired or escapes"
    );

    // 4. Verified patches re-parse and are clean for their class.
    let verifier = RuleEngine::default_suite();
    for case in report.cases.iter().filter(|c| c.patched_source.is_some()) {
        let patched = case.patched_source.as_ref().expect("checked above");
        let program = parse(patched).expect("patched source parses");
        let sample = corpus.iter().find(|s| s.id == case.sample_id).expect("sample exists");
        let cwe = sample.cwe.expect("repaired samples are classified");
        let findings = verifier.scan(&program);
        assert!(findings.iter().all(|f| f.cwe != cwe), "auto-fix for {cwe} must verify clean");
    }

    // 5. SFT harvest covers detection and repair supervision.
    let sft = harvest(corpus.samples(), &report);
    let counts = sft.task_counts();
    assert_eq!(counts[&SftTask::Detect], corpus.len());
    assert!(counts.get(&SftTask::Repair).copied().unwrap_or(0) > 0);
}

#[test]
fn rule_suite_and_taint_engine_agree_on_injection() {
    // The high-level detector registry and the low-level taint engine must
    // tell the same story on taint-style classes.
    let corpus = DatasetBuilder::new(4).vulnerable_count(20).build();
    let engine = RuleEngine::default_suite();
    let config = TaintConfig::default_config();
    for s in corpus.iter().filter(|s| s.cwe.map(|c| c.is_taint_style()).unwrap_or(false)) {
        let program = parse(&s.source).expect("parses");
        let taint_hit = !TaintAnalysis::run(&program, &config).findings.is_empty();
        let rule_hit = engine.scan(&program).iter().any(|f| f.cwe == s.cwe.expect("classified"));
        if s.label {
            assert!(taint_hit && rule_hit, "sample {} should be caught by both", s.id);
        }
    }
}

#[test]
fn detection_models_transfer_between_crates() {
    // A model trained via vulnman-ml drives decisions in vulnman-core and
    // prices out via the cost model.
    let train = DatasetBuilder::new(5).vulnerable_count(80).build();
    let eval = DatasetBuilder::new(6).vulnerable_count(30).vulnerable_fraction(0.1).build();
    let mut model = model_zoo(9).remove(0);
    model.train(&train);
    let metrics = model.evaluate(&eval);
    let priced = price_deployment(&metrics, &CostParams::default());
    assert!(metrics.recall() > 0.5);
    assert!(priced.prevented_loss > 0.0);
    // Identity: net = prevented − (triage + fix + compute + missed).
    let recomputed = priced.prevented_loss
        - priced.triage_cost
        - priced.fix_cost
        - priced.compute_cost
        - priced.missed_loss;
    assert!((priced.net_value - recomputed).abs() < 1e-9);
}

#[test]
fn cross_project_split_is_leak_free_and_harder() {
    let ds = DatasetBuilder::new(7).projects_per_team(4).vulnerable_count(60).build();
    let projects = ds.projects();
    let held_out = vec![projects[0].clone(), projects[1].clone()];
    let split = split_by_project(&ds, &held_out);
    assert!(split.test.iter().all(|s| held_out.contains(&s.project)));
    assert!(split.train.iter().all(|s| !held_out.contains(&s.project)));
    let train_ids: std::collections::HashSet<u64> = split.train.iter().map(|s| s.id).collect();
    assert!(split.test.iter().all(|s| !train_ids.contains(&s.id)));
}
