//! Seeded workload inputs. Everything the program receives is made here from
//! the `--seed` argument through `vulnman_synth`, so the same seed always
//! gives byte-identical inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use vulnman_core::detector::RuleEngineToolSuite;
use vulnman_lang::AnalysisCache;
use vulnman_ml::features::{ComposedFeatures, TokenNgramFeatures, ToolAugmentedFeatures};
use vulnman_ml::linear::LogisticRegression;
use vulnman_ml::DetectionModel;
use vulnman_serve::Request;
use vulnman_synth::{Dataset, DatasetBuilder, Sample, StyleProfile};

/// Ground-truth vulnerable samples in the batch corpus; with a 50% vulnerable
/// fraction and `duplication_factor(2)` the corpus holds 4x this many units.
pub const BATCH_VULNERABLE: usize = 250;

/// Hot units that the edit stream keeps re-submitting.
pub const HOT_UNITS: usize = 16;

/// Name the trained model registers under (`detector.ml.*` instruments).
pub const ML_NAME: &str = "ml";

/// Salts that keep the per-purpose generators independent of each other.
const TRAIN_SALT: u64 = 0x7472_6169_6e00_0001;
const EDIT_SALT: u64 = 0x6564_6974_0000_0002;
const CHURN_SALT: u64 = 0x6368_7572_6e00_0003;
const MIX_SALT: u64 = 0x6d69_7800_0000_0004;

/// The `batch_projects` corpus: multi-file projects (`cross_file_links`)
/// from four team styles, every unit expanded into two near-duplicates, so
/// about half the units duplicate another.
pub fn batch_corpus(seed: u64) -> Dataset {
    let mut teams = vec![StyleProfile::mainstream()];
    teams.extend(StyleProfile::internal_teams());
    DatasetBuilder::new(seed)
        .teams(teams)
        .projects_per_team(2)
        .vulnerable_count(BATCH_VULNERABLE)
        .vulnerable_fraction(0.5)
        .duplication_factor(2)
        .cross_file_links(true)
        .build()
}

/// Training data for the ML detector, drawn independently of the corpus.
pub fn training_set(seed: u64) -> Dataset {
    DatasetBuilder::new(seed ^ TRAIN_SALT).vulnerable_count(100).vulnerable_fraction(0.5).build()
}

/// An untrained tool-augmented model (token n-grams plus the rule suite's
/// verdicts into logistic regression) named [`ML_NAME`].
pub fn ml_model(seed: u64) -> DetectionModel {
    let features = ComposedFeatures::new(vec![
        Box::new(TokenNgramFeatures::new(256)),
        Box::new(ToolAugmentedFeatures::new(Box::new(RuleEngineToolSuite::standard()))),
    ]);
    let dim = vulnman_ml::features::FeatureExtractor::dim(&features);
    DetectionModel::new(ML_NAME, Box::new(features), Box::new(LogisticRegression::new(dim, seed)))
}

/// A request stream: each request pre-encoded as one JSONL line, in send
/// order, plus which unit it submits. Only the encoded lines are kept, so
/// the benchmark's own footprint stays small next to the server's.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Request `i` (id `i + 1`) as one newline-terminated JSON line.
    pub lines: Vec<Vec<u8>>,
    /// The unit request `i` submits a version of (hot-unit index for the
    /// edit stream, the request's own index when every unit is distinct).
    pub unit: Vec<usize>,
}

impl Stream {
    fn new(sources: Vec<(usize, String)>, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT);
        let mut lines = Vec::with_capacity(sources.len());
        let mut unit = Vec::with_capacity(sources.len());
        for (i, (u, source)) in sources.into_iter().enumerate() {
            // Three `lint` requests to one `analyze`.
            let kind = if rng.gen_bool(0.25) { "analyze" } else { "lint" };
            let req =
                Request { id: i as u64 + 1, kind: kind.into(), source, label: None, cwe: None };
            let mut line = serde_json::to_string(&req).expect("requests serialize").into_bytes();
            line.push(b'\n');
            lines.push(line);
            unit.push(u);
        }
        Stream { lines, unit }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Request `i`, decoded from its line.
    pub fn request(&self, i: usize) -> Request {
        let line = &self.lines[i];
        vulnman_serve::parse_request(&line[..line.len() - 1]).expect("generated requests parse")
    }

    /// The first `limit` requests' sources as workflow samples
    /// (unlabelled), for replaying the stream through the batch layers.
    pub fn samples(&self, limit: usize) -> Vec<Sample> {
        (0..self.len().min(limit))
            .map(|i| Sample {
                id: i as u64 + 1,
                source: self.request(i).source,
                label: false,
                observed_label: false,
                cwe: None,
                target_fn: String::new(),
                team: "serve".into(),
                project: format!("unit{}", self.unit[i]),
                tier: vulnman_synth::Tier::Curated,
                duplicate_of: None,
                artifacts: Default::default(),
            })
            .collect()
    }
}

/// A unit whose functions each carry one revision marker; rendering with
/// new marker values gives a new version that differs only in the
/// functions whose marker changed.
struct EditableUnit {
    /// Source text between marker slots (one more piece than slots).
    pieces: Vec<String>,
    /// Current marker value per function.
    revs: Vec<u64>,
}

impl EditableUnit {
    /// Splits `source` after the opening brace of every function body.
    fn new(source: &str) -> Option<EditableUnit> {
        let program = vulnman_lang::parse(source).ok()?;
        let mut cuts = Vec::new();
        for f in &program.functions {
            let brace = source[f.span.start..].find('{')? + f.span.start + 1;
            cuts.push(brace);
        }
        if cuts.len() < 2 {
            return None;
        }
        cuts.sort_unstable();
        let mut pieces = Vec::with_capacity(cuts.len() + 1);
        let mut at = 0;
        for cut in &cuts {
            pieces.push(source[at..*cut].to_string());
            at = *cut;
        }
        pieces.push(source[at..].to_string());
        Some(EditableUnit { pieces, revs: vec![0; cuts.len()] })
    }

    fn render(&self) -> String {
        let mut out =
            String::with_capacity(self.pieces.iter().map(String::len).sum::<usize>() + 32);
        for (i, piece) in self.pieces.iter().enumerate() {
            out.push_str(piece);
            if let Some(rev) = self.revs.get(i) {
                out.push_str(&format!("\n    int bench_rev = {rev};"));
            }
        }
        out
    }
}

/// The `serve_edit` stream: `n` requests, each a new version of one of
/// [`HOT_UNITS`] units in which exactly one function changed since that
/// unit's previous version and the rest of the unit is unchanged.
pub fn edit_stream(seed: u64, n: usize) -> Stream {
    let pool = DatasetBuilder::new(seed ^ EDIT_SALT)
        .vulnerable_count(HOT_UNITS * 2)
        .vulnerable_fraction(0.5)
        .build();
    let mut units: Vec<EditableUnit> =
        pool.iter().filter_map(|s| EditableUnit::new(&s.source)).take(HOT_UNITS).collect();
    assert_eq!(units.len(), HOT_UNITS, "synth pool yields enough multi-function units");
    let mut rng = StdRng::seed_from_u64(seed ^ EDIT_SALT);
    let mut sources = Vec::with_capacity(n);
    for i in 0..n {
        let u = rng.gen_range(0..units.len());
        let unit = &mut units[u];
        let f = rng.gen_range(0..unit.revs.len());
        unit.revs[f] = i as u64 + 1;
        sources.push((u, unit.render()));
    }
    Stream::new(sources, seed)
}

/// The `serve_churn` stream: `n` requests, each a unit whose content was
/// never submitted before.
pub fn churn_stream(seed: u64, n: usize) -> Stream {
    let mut sources = Vec::with_capacity(n);
    let mut seen = HashSet::new();
    let mut round = 0u64;
    while sources.len() < n {
        let want = n - sources.len();
        let pool = DatasetBuilder::new((seed ^ CHURN_SALT).wrapping_add(round))
            .vulnerable_count(want / 2 + 1)
            .vulnerable_fraction(0.5)
            .build();
        for s in pool.iter() {
            if sources.len() < n && seen.insert(AnalysisCache::content_key(&s.source)) {
                sources.push((sources.len(), s.source.clone()));
            }
        }
        round += 1;
    }
    Stream::new(sources, seed)
}

/// `n` requests cycling through the batch corpus (used by the traced run to
/// drive the serve layers with the batch workload's units).
pub fn corpus_stream(corpus: &Dataset, seed: u64, n: usize) -> Stream {
    let units = corpus.samples();
    Stream::new(
        (0..n).map(|i| (i % units.len(), units[i % units.len()].source.clone())).collect(),
        seed,
    )
}

/// Share of corpus units that are synthetic near-duplicates of another.
pub fn duplicate_share(samples: &[Sample]) -> f64 {
    crate::stats::ratio(
        samples.iter().filter(|s| s.is_duplicate()).count() as f64,
        samples.len() as f64,
    )
}

/// Share of requests whose unit content was never submitted earlier in the
/// stream.
pub fn novel_unit_share(stream: &Stream) -> f64 {
    let mut seen = HashSet::new();
    let novel = (0..stream.len())
        .filter(|&i| seen.insert(AnalysisCache::content_key(&stream.request(i).source)))
        .count();
    crate::stats::ratio(novel as f64, stream.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = serde_json::to_string(batch_corpus(7).samples()).unwrap();
        let b = serde_json::to_string(batch_corpus(7).samples()).unwrap();
        assert_eq!(a, b);
        assert_eq!(edit_stream(7, 300), edit_stream(7, 300));
        assert_eq!(churn_stream(7, 300), churn_stream(7, 300));
        assert_ne!(edit_stream(7, 300).lines, edit_stream(8, 300).lines);
        let t1 = serde_json::to_string(training_set(7).samples()).unwrap();
        assert_eq!(t1, serde_json::to_string(training_set(7).samples()).unwrap());
    }

    #[test]
    fn edit_versions_change_one_function_and_parse() {
        let stream = edit_stream(3, 200);
        let mut last: Vec<Option<String>> = vec![None; HOT_UNITS];
        for (i, &u) in stream.unit.iter().enumerate() {
            let r = stream.request(i);
            let program = vulnman_lang::parse(&r.source).expect("edited unit parses");
            if let Some(prev) = &last[u] {
                let before = vulnman_lang::parse(prev).unwrap();
                let changed = program
                    .functions
                    .iter()
                    .zip(&before.functions)
                    .filter(|(a, b)| {
                        r.source[a.span.start..a.span.end] != prev[b.span.start..b.span.end]
                    })
                    .count();
                assert_eq!(changed, 1, "exactly one function differs between versions");
            }
            last[u] = Some(r.source.clone());
        }
        assert_eq!(novel_unit_share(&stream), 1.0, "every request is a new version");
    }

    #[test]
    fn churn_units_are_all_new_and_mixed_three_to_one() {
        let stream = churn_stream(5, 2000);
        assert_eq!(stream.len(), 2000);
        assert_eq!(novel_unit_share(&stream), 1.0);
        let analyze = (0..stream.len()).filter(|&i| stream.request(i).kind == "analyze").count();
        assert!((400..600).contains(&analyze), "about a quarter analyze: {analyze}");
    }

    #[test]
    fn batch_corpus_is_half_near_duplicates() {
        let share = duplicate_share(batch_corpus(11).samples());
        assert!((0.45..=0.55).contains(&share), "duplicate share {share}");
    }
}
