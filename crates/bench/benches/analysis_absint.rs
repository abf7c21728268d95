//! Criterion benches: abstract-interpretation solver throughput.
//!
//! Two axes the ROADMAP's hot-path requirement cares about: how the
//! fixpoint cost scales with program size (function count × loop nesting
//! depth — the two knobs that grow the CFG and the iteration space), and
//! what the content-addressed cache buys on warm runs (the `absint`
//! oracle view and the workflow's semantic detector both key on
//! `"absint-findings"`, so a warm run skips the solver entirely).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vulnman_analysis::checkers::SemanticEngine;
use vulnman_lang::{parse, AnalysisCache};

/// One function with `depth` nested counting loops around an accumulator
/// the interval domain has to widen, plus a branch that keeps the join
/// non-trivial for nullness/init.
fn function(name: &str, depth: usize) -> String {
    let mut body = String::new();
    for d in 0..depth {
        let pad = "    ".repeat(d + 1);
        body.push_str(&format!("{pad}int i{d} = 0;\n{pad}while (i{d} < 100) {{\n"));
    }
    let pad = "    ".repeat(depth + 1);
    body.push_str(&format!(
        "{pad}if (acc < 1000) {{\n{pad}    acc = acc + 3;\n{pad}}} else {{\n{pad}    acc = acc - 1;\n{pad}}}\n"
    ));
    for d in (0..depth).rev() {
        let pad = "    ".repeat(d + 1);
        body.push_str(&format!("{pad}    i{d} = i{d} + 1;\n{pad}}}\n"));
    }
    format!("int {name}(int n) {{\n    int acc = 0;\n{body}    return acc;\n}}\n")
}

/// A program of `functions` chained helpers (each calls the next, so the
/// interprocedural summary pass does real bottom-up work) at a given loop
/// `depth`.
fn program(functions: usize, depth: usize) -> String {
    let mut src = String::new();
    for f in 0..functions {
        src.push_str(&function(&format!("stage{f}"), depth));
        src.push('\n');
    }
    src.push_str("int main() {\n    int total = 0;\n");
    for f in 0..functions {
        src.push_str(&format!("    total = total + stage{f}({f});\n"));
    }
    src.push_str("    return total;\n}\n");
    src
}

fn bench_solver_vs_program_size(c: &mut Criterion) {
    let engine = SemanticEngine::new();
    let mut group = c.benchmark_group("absint_solver_scaling");
    for (functions, depth) in [(1, 1), (4, 1), (16, 1), (4, 3), (4, 5), (16, 3)] {
        let source = program(functions, depth);
        let parsed = parse(&source).expect("synthetic program parses");
        group.throughput(Throughput::Elements(functions as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("f{functions}_d{depth}")),
            &parsed,
            |b, p| b.iter(|| engine.analyze(p).stats.iterations),
        );
    }
    group.finish();
}

fn bench_cold_vs_warm_cache(c: &mut Criterion) {
    let engine = SemanticEngine::new();
    let source = program(8, 3);
    let mut group = c.benchmark_group("absint_cache");
    group.bench_function("cold", |b| {
        // A fresh cache every iteration: every scan pays the fixpoint.
        b.iter(|| {
            let cache = AnalysisCache::new();
            let key = AnalysisCache::content_key(&source);
            engine.scan_source_cached_keyed(key, &source, &cache).expect("scan succeeds").len()
        })
    });
    group.bench_function("warm", |b| {
        let cache = AnalysisCache::new();
        let key = AnalysisCache::content_key(&source);
        let _ = engine.scan_source_cached_keyed(key, &source, &cache).expect("prime");
        b.iter(|| {
            engine.scan_source_cached_keyed(key, &source, &cache).expect("scan succeeds").len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_solver_vs_program_size, bench_cold_vs_warm_cache);
criterion_main!(benches);
