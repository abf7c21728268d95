//! Equivalence suites for the raw-speed hot paths.
//!
//! The performance work (zero-copy lexing, interned ASTs, run-scoped
//! scratch caches) is only
//! admissible if it is observationally invisible: same tokens, same
//! findings, same report bytes. These tests pin that contract on the
//! full synthetic corpus — every CWE family plus the mutation
//! operators the corpus generator applies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vulnman::lang::lexer::{lex, lex_ref};
use vulnman::lang::token::TokenKind;
use vulnman::prelude::*;
use vulnman::synth::mutate::{alpha_rename, insert_comments, insert_dead_statements};

/// Full-coverage corpus: every CWE family, both labels, mixed tiers.
fn corpus() -> Dataset {
    DatasetBuilder::new(0x5EED_CAFE).vulnerable_count(70).vulnerable_fraction(0.35).build()
}

/// The corpus sources plus every mutation operator applied to each, so the
/// lexer sees renamed identifiers, injected comments, and dead statements.
fn corpus_with_mutants() -> Vec<String> {
    let ds = corpus();
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for s in ds.iter() {
        out.push(s.source.clone());
        if let Some(m) = alpha_rename(&s.source, 3) {
            out.push(m);
        }
        out.push(insert_comments(&s.source, &mut rng));
        if let Some(m) = insert_dead_statements(&s.source, &mut rng) {
            out.push(m);
        }
    }
    out
}

/// The zero-copy lexer must agree with the owning lexer token-for-token,
/// and every borrowed payload must slice straight out of the source buffer
/// at the span the token claims.
#[test]
fn zero_copy_lexer_matches_owned_lexing_on_full_corpus() {
    let sources = corpus_with_mutants();
    assert!(sources.len() > 500, "corpus unexpectedly small: {}", sources.len());
    for src in &sources {
        let owned = lex(src).expect("corpus sample must lex");
        let zero = lex_ref(src).expect("corpus sample must lex zero-copy");
        assert_eq!(owned.tokens.len(), zero.tokens.len());
        assert_eq!(owned.comments.len(), zero.comments.len());
        let mut prev_start = 0usize;
        for (o, z) in owned.tokens.iter().zip(&zero.tokens) {
            assert_eq!(o.span, z.span, "token spans diverge");
            assert_eq!(o.kind, z.kind.clone().into_owned(), "token kinds diverge");
            // Spans are monotone and in-bounds: the zero-copy lexer hands
            // these to downstream slicing, so a bad span is a panic later.
            assert!(z.span.start >= prev_start && z.span.end <= src.len());
            prev_start = z.span.start;
            // Identifier payloads are pure borrows of the source: the text
            // at the span *is* the payload.
            if let TokenKind::Ident(name) = &z.kind {
                assert_eq!(
                    &src[z.span.start..z.span.end],
                    name.as_ref(),
                    "ident payload must slice back to its span"
                );
            }
        }
        for (o, z) in owned.comments.iter().zip(&zero.comments) {
            assert_eq!(o.text, z.text.as_ref());
            assert_eq!(o.text_span, z.text_span);
            assert_eq!(
                &src[z.text_span.start..z.text_span.end],
                z.text.as_ref(),
                "comment text_span must slice back to the trimmed text"
            );
        }
    }
}

/// Parsing through the interned-AST path is deterministic and the printer
/// is a fixpoint: print(parse(print(parse(s)))) == print(parse(s)).
#[test]
fn interned_parse_is_deterministic_and_printer_is_fixpoint() {
    for src in corpus_with_mutants().iter().take(400) {
        let p1 = parse(src).expect("corpus sample must parse");
        let p2 = parse(src).expect("corpus sample must parse");
        assert_eq!(p1, p2, "parse must be deterministic");
        let printed = print_program(&p1);
        let reparsed = parse(&printed).expect("printed program must reparse");
        assert_eq!(print_program(&reparsed), printed, "printer must be a fixpoint");
    }
}

/// Full-pipeline byte identity with the semantic detector registered, so
/// the absint passes run inside the sharded workflow: jobs {1,4} x cache
/// {on,off} must all serialize to the same report.
#[test]
fn report_bytes_identical_with_parallel_semantic_detector() {
    let ds = corpus();
    let run = |jobs: usize, cache: bool| {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        registry.register(Box::new(SemanticDetector::standard()));
        let config = WorkflowConfig { jobs, cache, ..Default::default() };
        let engine = WorkflowEngine::new(registry, config);
        serde_json::to_string(&engine.process(ds.samples())).expect("report serializes")
    };
    let golden = run(1, true);
    assert!(!golden.is_empty());
    for (jobs, cache) in [(1, false), (4, true), (4, false)] {
        assert_eq!(run(jobs, cache), golden, "report bytes diverge at jobs={jobs} cache={cache}");
    }
}
