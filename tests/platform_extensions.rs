//! Integration tests for the post-green extensions: fuzzing campaigns,
//! triage queues, stacked ensembles, and cost-optimal operating points
//! working together over generated corpora.

use vulnman::analysis::fuzz::FuzzCampaign;
use vulnman::analysis::reachability::surfaces;
use vulnman::analysis::severity::score;
use vulnman::core::customize::{PolicySeverity, SecurityStandard};
use vulnman::core::triage::{sla_compliance, SlaPolicy, TriageQueue};
use vulnman::ml::ensemble::StackedEnsemble;
use vulnman::ml::operating_point::{optimal_threshold, CellValues};
use vulnman::prelude::*;

#[test]
fn fuzz_campaign_matches_ground_truth_on_dynamic_classes() {
    let ds = DatasetBuilder::new(61).vulnerable_count(16).vulnerable_fraction(0.5).build();
    let campaign = FuzzCampaign::standard();
    for s in ds.iter() {
        let Some(cwe) = s.cwe else { continue };
        if !vulnman::analysis::dynamic::dynamically_detectable(cwe) {
            continue;
        }
        let program = parse(&s.source).expect("parses");
        let report = campaign.run(&program);
        if s.label {
            assert!(
                !report.events.is_empty(),
                "campaign must fault sample {}:\n{}",
                s.id,
                s.source
            );
        } else {
            assert!(report.events.is_empty(), "clean sample {} faulted: {:?}", s.id, report.events);
        }
    }
}

#[test]
fn scan_to_triage_queue_end_to_end() {
    // Scan a corpus, push every finding through the team's policy into the
    // triage queue, and drain it with limited capacity.
    let team = StyleProfile::internal_teams()[0].clone();
    let standard = SecurityStandard::for_team(&team);
    let ds = DatasetBuilder::new(63)
        .teams(vec![team])
        .vulnerable_count(20)
        .vulnerable_fraction(0.5)
        .build();
    let engine = RuleEngine::default_suite();
    let mut queue = TriageQueue::with_sla(SlaPolicy::default());
    let mut pushed = 0usize;
    for (day, s) in ds.iter().enumerate() {
        let program = parse(&s.source).expect("parses");
        let surfaces = surfaces(&program);
        for finding in engine.scan(&program) {
            let surface = surfaces.get(&finding.function).copied().unwrap_or(Surface::Local);
            let policy = standard.policy(finding.cwe);
            queue.push(score(finding, surface), policy, day as f64 / 4.0);
            pushed += 1;
        }
    }
    assert!(pushed >= ds.vulnerable_count(), "every flaw enqueued ({pushed})");
    let (served, backlog) = queue.drain_simulation(4, 30);
    assert_eq!(served.len() + backlog, pushed);
    // Blocking items are served no later than any Tracked item around them.
    let first_tracked = served.iter().position(|s| s.item.policy == PolicySeverity::Tracked);
    let last_blocking = served.iter().rposition(|s| s.item.policy == PolicySeverity::Blocking);
    if let (Some(ft), Some(lb)) = (first_tracked, last_blocking) {
        // With same-day arrivals they can interleave only across days.
        let ft_day = served[ft].served_day;
        let lb_day = served[lb].served_day;
        assert!(lb_day <= ft_day + 30.0, "sanity: {lb_day} vs {ft_day}");
    }
    assert!(sla_compliance(&served) > 0.5);
}

#[test]
fn stacked_ensemble_with_tuned_threshold_prices_well() {
    let ds = DatasetBuilder::new(67).vulnerable_count(80).vulnerable_fraction(0.3).build();
    let split = stratified_split(&ds, 0.4, 7);
    let mut stack = StackedEnsemble::new(model_zoo);
    stack.train(&split.train);

    // Tune the decision threshold to the economics on the training side.
    let params = CostParams::default();
    let values = CellValues {
        tp: params.breach_cost_usd * params.mean_exploitability,
        fp: -(params.triage_minutes_per_finding / 60.0 * params.analyst_hourly_usd),
        tn: 0.0,
        fn_: -params.breach_cost_usd * params.mean_exploitability,
    };
    let scores: Vec<f64> = split.train.iter().map(|s| stack.predict_proba(s)).collect();
    let truth: Vec<bool> = split.train.iter().map(|s| s.label).collect();
    let point =
        optimal_threshold(&scores, &truth, &values).expect("model probabilities are finite");

    let pred: Vec<bool> =
        split.test.iter().map(|s| stack.predict_proba(s) >= point.threshold).collect();
    let test_truth: Vec<bool> = split.test.iter().map(|s| s.label).collect();
    let metrics = vulnman::ml::eval::Metrics::from_predictions(&pred, &test_truth);
    assert!(metrics.recall() > 0.6, "{metrics:?}");
    let priced = price_deployment(&metrics, &params);
    assert!(priced.net_value > 0.0, "{priced:?}");
}
