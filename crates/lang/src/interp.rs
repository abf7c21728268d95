//! A sanitizer-instrumented interpreter for the mini-C dialect.
//!
//! Executes programs under an adversarial input model (every source
//! function returns attacker-controlled data) with runtime checks in the
//! spirit of ASan/MSan: bounds on every indexed access, liveness on every
//! pointer use, null checks, 32-bit overflow detection, and dynamic taint
//! tracking into sinks. This is the *dynamic analysis* leg of the paper's
//! Figure 1 ("automated assessments mainly leverage rule-based analysis
//! tools, including dynamic and static analysis").

use crate::ast::{BinOp, Expr, ExprKind, Function, LValue, Program, StmtKind, Type, UnOp};
use crate::intern::Symbol;
use crate::span::Span;
use crate::taint::TaintConfig;
use std::collections::HashMap;
use std::fmt::Write as _;

/// What went wrong (or was observed) at runtime.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DynamicEventKind {
    /// Write past the end (or before the start) of an object.
    OutOfBoundsWrite,
    /// Read past the end (or before the start) of an object.
    OutOfBoundsRead,
    /// Use of a freed object.
    UseAfterFree,
    /// Dereference of a null pointer.
    NullDereference,
    /// 32-bit signed arithmetic wrapped.
    IntegerOverflow,
    /// Attacker-tainted data reached a sink; the label is the sink category
    /// (`"sql"`, `"command"`, …).
    TaintedSink(String),
}

/// One runtime observation.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicEvent {
    /// What was observed.
    pub kind: DynamicEventKind,
    /// Function being executed.
    pub function: String,
    /// Source location of the faulting expression/statement.
    pub span: Span,
}

/// Interpreter configuration: the adversarial input model and limits.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Taint vocabulary (sources/sinks/sanitizers).
    pub taint: TaintConfig,
    /// Length of attacker-supplied strings (long enough to blow typical
    /// fixed buffers).
    pub attacker_string_len: usize,
    /// Integer returned by `to_int` on attacker data (large enough to
    /// trigger 32-bit overflow when multiplied by small element sizes).
    pub attacker_int: i64,
    /// Value used for synthesized integer arguments of entry functions.
    pub entry_int: i64,
    /// Whether lookup functions (`find_entry`, …) return null (worst case).
    pub lookups_fail: bool,
    /// Maximum interpreted statements/expressions per entry point.
    pub step_budget: usize,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl InterpConfig {
    /// A 64-bit fingerprint of the configuration: the taint vocabulary's
    /// [fingerprint](TaintConfig::fingerprint) plus every input-model knob.
    pub fn fingerprint(&self) -> u64 {
        let knobs = (
            self.attacker_string_len,
            self.attacker_int,
            self.entry_int,
            self.lookups_fail,
            self.step_budget,
            self.max_call_depth,
        );
        let mut h = crate::hash::Fnv1a(self.taint.fingerprint());
        let _ = write!(h, "{knobs:?}");
        h.0
    }
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            taint: TaintConfig::default_config(),
            attacker_string_len: 200,
            attacker_int: 600_000_000,
            entry_int: 4,
            lookups_fail: true,
            step_budget: 200_000,
            max_call_depth: 64,
        }
    }
}

/// A runtime value: 64-bit int, pointer into an object, or null. Taint is
/// carried on every value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Value {
    kind: ValueKind,
    tainted: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ValueKind {
    Int(i64),
    Ptr { obj: usize, offset: i64 },
    Null,
}

impl Value {
    fn int(v: i64) -> Self {
        Value { kind: ValueKind::Int(v), tainted: false }
    }

    fn truthy(&self) -> bool {
        match self.kind {
            ValueKind::Int(v) => v != 0,
            ValueKind::Ptr { .. } => true,
            ValueKind::Null => false,
        }
    }

    fn as_int(&self) -> i64 {
        match self.kind {
            ValueKind::Int(v) => v,
            ValueKind::Ptr { .. } => 1,
            ValueKind::Null => 0,
        }
    }
}

#[derive(Debug, Clone)]
struct HeapObject {
    data: Vec<i64>,
    alive: bool,
    /// Taint of the object's *contents* as a whole (per-cell taint would be
    /// overkill for this dialect).
    tainted: bool,
}

/// Control-flow signal while executing statements.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// A fault that aborts the current entry point (after being recorded).
struct Fault;

/// Result of interpreting a program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicReport {
    /// All observations across all executed entry points, deduplicated by
    /// `(kind, function)`.
    pub events: Vec<DynamicEvent>,
    /// Entry points that were executed.
    pub entries_run: Vec<String>,
    /// Entry points that crashed (aborted on a fault).
    pub crashed: Vec<String>,
}

impl DynamicReport {
    /// Returns `true` if any event of `kind` was observed.
    pub fn has(&self, kind: &DynamicEventKind) -> bool {
        self.events.iter().any(|e| &e.kind == kind)
    }

    /// Events observed in `function`.
    pub fn in_function(&self, function: &str) -> Vec<&DynamicEvent> {
        self.events.iter().filter(|e| e.function == function).collect()
    }
}

/// Runs every entry point (function not called by any other in-program
/// function) under the adversarial input model.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), vulnman_lang::ParseError> {
/// use vulnman_lang::interp::{run_program, DynamicEventKind, InterpConfig};
/// let p = vulnman_lang::parse(r#"
///     void f() {
///         char buf[8];
///         char* s = read_input();
///         int i = 0;
///         while (s[i] != '\0') { buf[i] = s[i]; i++; }
///     }
/// "#)?;
/// let report = run_program(&p, &InterpConfig::default());
/// assert!(report.has(&DynamicEventKind::OutOfBoundsWrite));
/// # Ok(())
/// # }
/// ```
pub fn run_program(program: &Program, config: &InterpConfig) -> DynamicReport {
    let called: std::collections::HashSet<Symbol> =
        program.functions.iter().flat_map(|f| f.callees()).collect();
    let mut report = DynamicReport::default();
    for f in &program.functions {
        if called.contains(&f.name) {
            continue;
        }
        let mut interp = Interp::new(program, config);
        let args: Vec<Value> = f
            .params
            .iter()
            .map(|p| match &p.ty {
                Type::Ptr(_) => interp.attacker_string(),
                Type::Array(_, n) => interp.fresh_buffer(*n, false),
                _ => Value::int(config.entry_int),
            })
            .collect();
        let crashed = interp.call_function(f, args).is_err();
        report.entries_run.push(f.name.to_string());
        if crashed {
            report.crashed.push(f.name.to_string());
        }
        report.events.extend(interp.events);
    }
    // Deduplicate by (kind, function).
    let mut seen = std::collections::HashSet::new();
    report.events.retain(|e| seen.insert((e.kind.clone(), e.function.clone())));
    report
}

struct Interp<'a> {
    program: &'a Program,
    config: &'a InterpConfig,
    heap: Vec<HeapObject>,
    events: Vec<DynamicEvent>,
    steps: usize,
    depth: usize,
    current_fn: Vec<String>,
}

impl<'a> Interp<'a> {
    fn new(program: &'a Program, config: &'a InterpConfig) -> Self {
        Interp {
            program,
            config,
            heap: Vec::new(),
            events: Vec::new(),
            steps: 0,
            depth: 0,
            current_fn: Vec::new(),
        }
    }

    fn record(&mut self, kind: DynamicEventKind, span: Span) {
        let function = self.current_fn.last().cloned().unwrap_or_default();
        self.events.push(DynamicEvent { kind, function, span });
    }

    fn alloc(&mut self, len: usize, tainted: bool) -> usize {
        self.heap.push(HeapObject { data: vec![0; len], alive: true, tainted });
        self.heap.len() - 1
    }

    fn fresh_buffer(&mut self, len: usize, tainted: bool) -> Value {
        let obj = self.alloc(len, tainted);
        Value { kind: ValueKind::Ptr { obj, offset: 0 }, tainted }
    }

    fn attacker_string(&mut self) -> Value {
        let len = self.config.attacker_string_len;
        let obj = self.alloc(len + 1, true);
        for i in 0..len {
            self.heap[obj].data[i] = b'A' as i64;
        }
        self.heap[obj].data[len] = 0;
        Value { kind: ValueKind::Ptr { obj, offset: 0 }, tainted: true }
    }

    fn string_value(&mut self, s: &str, tainted: bool) -> Value {
        let bytes: Vec<i64> = s.bytes().map(|b| b as i64).chain(std::iter::once(0)).collect();
        let obj = self.alloc(bytes.len(), tainted);
        self.heap[obj].data = bytes;
        Value { kind: ValueKind::Ptr { obj, offset: 0 }, tainted }
    }

    fn tick(&mut self) -> Result<(), Fault> {
        self.steps += 1;
        if self.steps > self.config.step_budget {
            Err(Fault)
        } else {
            Ok(())
        }
    }

    fn call_function(&mut self, func: &Function, args: Vec<Value>) -> Result<Value, Fault> {
        if self.depth >= self.config.max_call_depth {
            return Ok(Value::int(0));
        }
        self.depth += 1;
        self.current_fn.push(func.name.to_string());
        let mut env: HashMap<Symbol, Value> = HashMap::new();
        for (p, v) in func.params.iter().zip(args) {
            env.insert(p.name.clone(), v);
        }
        let result = self.exec_block(&func.body, &mut env);
        self.current_fn.pop();
        self.depth -= 1;
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::int(0)),
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[crate::ast::Stmt],
        env: &mut HashMap<Symbol, Value>,
    ) -> Result<Flow, Fault> {
        for s in stmts {
            match self.exec_stmt(s, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        s: &crate::ast::Stmt,
        env: &mut HashMap<Symbol, Value>,
    ) -> Result<Flow, Fault> {
        self.tick()?;
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let value = match (ty, init) {
                    (Type::Array(_, n), _) => self.fresh_buffer(*n, false),
                    (_, Some(e)) => self.eval(e, env)?,
                    (_, None) => Value::int(0),
                };
                env.insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, value, op } => {
                let mut rhs = self.eval(value, env)?;
                if let Some(op) = op {
                    let current = self.read_lvalue(target, env, s.span)?;
                    rhs = self.binop(*op, current, rhs, s.span);
                }
                self.write_lvalue(target, rhs, env, s.span)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                let c = self.eval(cond, env)?;
                if c.truthy() {
                    self.exec_block(then_branch, env)
                } else if let Some(els) = else_branch {
                    self.exec_block(els, env)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.tick()?;
                    if !self.eval(cond, env)?.truthy() {
                        break;
                    }
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { init, cond, step, body } => {
                if let Some(i) = init {
                    self.exec_stmt(i, env)?;
                }
                loop {
                    self.tick()?;
                    if let Some(c) = cond {
                        if !self.eval(c, env)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.exec_stmt(st, env)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::int(0),
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
        }
    }

    fn read_lvalue(
        &mut self,
        target: &LValue,
        env: &mut HashMap<Symbol, Value>,
        span: Span,
    ) -> Result<Value, Fault> {
        match target {
            LValue::Var(name) => Ok(env.get(name).copied().unwrap_or(Value::int(0))),
            LValue::Deref(e) => {
                let p = self.eval(e, env)?;
                self.load(p, 0, span)
            }
            LValue::Index(base, idx) => {
                let b = self.eval(base, env)?;
                let i = self.eval(idx, env)?.as_int();
                self.load(b, i, span)
            }
        }
    }

    fn write_lvalue(
        &mut self,
        target: &LValue,
        value: Value,
        env: &mut HashMap<Symbol, Value>,
        span: Span,
    ) -> Result<(), Fault> {
        match target {
            LValue::Var(name) => {
                env.insert(name.clone(), value);
                Ok(())
            }
            LValue::Deref(e) => {
                let p = self.eval(e, env)?;
                self.store(p, 0, value, span)
            }
            LValue::Index(base, idx) => {
                let b = self.eval(base, env)?;
                let i = self.eval(idx, env)?.as_int();
                self.store(b, i, value, span)
            }
        }
    }

    fn check_access(
        &mut self,
        ptr: Value,
        index: i64,
        write: bool,
        span: Span,
    ) -> Result<(usize, usize), Fault> {
        match ptr.kind {
            ValueKind::Null => {
                self.record(DynamicEventKind::NullDereference, span);
                Err(Fault)
            }
            ValueKind::Int(_) => {
                // Treating an integer as a pointer: model as null deref.
                self.record(DynamicEventKind::NullDereference, span);
                Err(Fault)
            }
            ValueKind::Ptr { obj, offset } => {
                if !self.heap[obj].alive {
                    self.record(DynamicEventKind::UseAfterFree, span);
                    return Err(Fault);
                }
                let at = offset + index;
                if at < 0 || at as usize >= self.heap[obj].data.len() {
                    self.record(
                        if write {
                            DynamicEventKind::OutOfBoundsWrite
                        } else {
                            DynamicEventKind::OutOfBoundsRead
                        },
                        span,
                    );
                    return Err(Fault);
                }
                Ok((obj, at as usize))
            }
        }
    }

    fn load(&mut self, ptr: Value, index: i64, span: Span) -> Result<Value, Fault> {
        let (obj, at) = self.check_access(ptr, index, false, span)?;
        let tainted = self.heap[obj].tainted || ptr.tainted;
        Ok(Value { kind: ValueKind::Int(self.heap[obj].data[at]), tainted })
    }

    fn store(&mut self, ptr: Value, index: i64, value: Value, span: Span) -> Result<(), Fault> {
        let (obj, at) = self.check_access(ptr, index, true, span)?;
        self.heap[obj].data[at] = value.as_int();
        if value.tainted {
            self.heap[obj].tainted = true;
        }
        Ok(())
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value, span: Span) -> Value {
        use BinOp::*;
        let tainted = l.tainted || r.tainted;
        // Null/pointer comparisons.
        if matches!(op, Eq | Ne) {
            let l_null = matches!(l.kind, ValueKind::Null)
                || l.as_int() == 0 && matches!(l.kind, ValueKind::Int(_));
            let r_null = matches!(r.kind, ValueKind::Null)
                || r.as_int() == 0 && matches!(r.kind, ValueKind::Int(_));
            if matches!(l.kind, ValueKind::Null | ValueKind::Ptr { .. })
                || matches!(r.kind, ValueKind::Null | ValueKind::Ptr { .. })
            {
                let same = match (l.kind, r.kind) {
                    (
                        ValueKind::Ptr { obj: a, offset: x },
                        ValueKind::Ptr { obj: b, offset: y },
                    ) => a == b && x == y,
                    (ValueKind::Null, ValueKind::Null) => true,
                    (ValueKind::Null, _) => r_null,
                    (_, ValueKind::Null) => l_null,
                    _ => l.as_int() == r.as_int(),
                };
                let out = if op == Eq { same } else { !same };
                return Value { kind: ValueKind::Int(out as i64), tainted };
            }
        }
        let a = l.as_int();
        let b = r.as_int();
        let raw: i64 = match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    0
                } else {
                    a / b
                }
            }
            Rem => {
                if b == 0 {
                    0
                } else {
                    a % b
                }
            }
            Shl => a.wrapping_shl(b as u32 & 63),
            Shr => a.wrapping_shr(b as u32 & 63),
            BitAnd => a & b,
            BitOr => a | b,
            BitXor => a ^ b,
            Eq => (a == b) as i64,
            Ne => (a != b) as i64,
            Lt => (a < b) as i64,
            Le => (a <= b) as i64,
            Gt => (a > b) as i64,
            Ge => (a >= b) as i64,
            And => (l.truthy() && r.truthy()) as i64,
            Or => (l.truthy() || r.truthy()) as i64,
        };
        // 32-bit semantics for arithmetic: wrap and record overflow.
        let value = if matches!(op, Add | Sub | Mul | Shl)
            && (raw > i32::MAX as i64 || raw < i32::MIN as i64)
        {
            self.record(DynamicEventKind::IntegerOverflow, span);
            raw as i32 as i64
        } else {
            raw
        };
        Value { kind: ValueKind::Int(value), tainted }
    }

    fn eval(&mut self, e: &Expr, env: &mut HashMap<Symbol, Value>) -> Result<Value, Fault> {
        self.tick()?;
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::int(*v)),
            ExprKind::Char(c) => Ok(Value::int(*c as i64)),
            ExprKind::Str(s) => Ok(self.string_value(s, false)),
            ExprKind::Var(name) => Ok(env.get(name).copied().unwrap_or(Value::int(0))),
            ExprKind::Unary(op, inner) => {
                match op {
                    UnOp::Deref => {
                        let p = self.eval(inner, env)?;
                        self.load(p, 0, e.span)
                    }
                    UnOp::AddrOf => {
                        // &expr: for &arr[i] produce an interior pointer;
                        // otherwise degrade to the value itself.
                        if let ExprKind::Index(base, idx) = &inner.kind {
                            let b = self.eval(base, env)?;
                            let i = self.eval(idx, env)?.as_int();
                            if let ValueKind::Ptr { obj, offset } = b.kind {
                                return Ok(Value {
                                    kind: ValueKind::Ptr { obj, offset: offset + i },
                                    tainted: b.tainted,
                                });
                            }
                        }
                        self.eval(inner, env)
                    }
                    UnOp::Neg => {
                        let v = self.eval(inner, env)?;
                        Ok(Value { kind: ValueKind::Int(-v.as_int()), tainted: v.tainted })
                    }
                    UnOp::Not => {
                        let v = self.eval(inner, env)?;
                        Ok(Value { kind: ValueKind::Int(!v.truthy() as i64), tainted: v.tainted })
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lv = self.eval(l, env)?;
                // Short-circuit logic.
                if *op == BinOp::And && !lv.truthy() {
                    return Ok(Value { kind: ValueKind::Int(0), tainted: lv.tainted });
                }
                if *op == BinOp::Or && lv.truthy() {
                    return Ok(Value { kind: ValueKind::Int(1), tainted: lv.tainted });
                }
                let rv = self.eval(r, env)?;
                Ok(self.binop(*op, lv, rv, e.span))
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(base, env)?;
                let i = self.eval(idx, env)?.as_int();
                self.load(b, i, e.span)
            }
            ExprKind::Call(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, env)?);
                }
                self.call(name, &values, e.span)
            }
        }
    }

    /// String length of the object `p` points at (up to NUL).
    fn cstrlen(&self, p: Value) -> usize {
        if let ValueKind::Ptr { obj, offset } = p.kind {
            let data = &self.heap[obj].data;
            let mut i = offset.max(0) as usize;
            let mut n = 0;
            while i < data.len() && data[i] != 0 {
                i += 1;
                n += 1;
            }
            n
        } else {
            0
        }
    }

    fn check_sink(&mut self, name: &str, args: &[Value], span: Span) {
        if let Some(positions) = self.config.taint.sink_positions(name) {
            let kind = self.config.taint.sink_kind(name).to_string();
            let dangerous: Vec<usize> =
                if positions.is_empty() { (0..args.len()).collect() } else { positions.to_vec() };
            for p in dangerous {
                if args.get(p).map(|v| self.value_tainted(*v)).unwrap_or(false) {
                    self.record(DynamicEventKind::TaintedSink(kind.clone()), span);
                    break;
                }
            }
        }
    }

    fn value_tainted(&self, v: Value) -> bool {
        v.tainted
            || match v.kind {
                ValueKind::Ptr { obj, .. } => self.heap[obj].tainted,
                _ => false,
            }
    }

    fn call(&mut self, name: &str, args: &[Value], span: Span) -> Result<Value, Fault> {
        // In-program functions first (they shadow nothing in the default
        // vocabulary by construction).
        if let Some(func) = self.program.function(name) {
            return self.call_function(func, args.to_vec());
        }
        // Sinks observe their arguments regardless of the intrinsic below.
        self.check_sink(name, args, span);
        if self.config.taint.is_source(name) {
            return Ok(self.attacker_string());
        }
        if self.config.taint.is_sanitizer(name) {
            // Clean copy of the argument.
            let src = args.first().copied().unwrap_or(Value::int(0));
            let len = self.cstrlen(src);
            let out = self.fresh_buffer(len + 1, false);
            if let (ValueKind::Ptr { obj: so, offset: sofs }, ValueKind::Ptr { obj: dobj, .. }) =
                (src.kind, out.kind)
            {
                for i in 0..len {
                    let v = self.heap[so].data[(sofs as usize) + i];
                    self.heap[dobj].data[i] = v;
                }
            }
            return Ok(out);
        }
        match name {
            "to_int" => {
                let v = args.first().copied().unwrap_or(Value::int(0));
                if self.value_tainted(v) {
                    Ok(Value { kind: ValueKind::Int(self.config.attacker_int), tainted: true })
                } else {
                    Ok(Value::int(1))
                }
            }
            "concat" => {
                let a = args.first().copied().unwrap_or(Value::int(0));
                let b = args.get(1).copied().unwrap_or(Value::int(0));
                let (la, lb) = (self.cstrlen(a), self.cstrlen(b));
                let tainted = self.value_tainted(a) || self.value_tainted(b);
                let out = self.fresh_buffer(la + lb + 1, tainted);
                if let ValueKind::Ptr { obj: dobj, .. } = out.kind {
                    let mut k = 0;
                    for src in [a, b] {
                        if let ValueKind::Ptr { obj, offset } = src.kind {
                            let n = self.cstrlen(src);
                            for i in 0..n {
                                let v = self.heap[obj].data[(offset as usize) + i];
                                self.heap[dobj].data[k] = v;
                                k += 1;
                            }
                        }
                    }
                    self.heap[dobj].data[k] = 0;
                }
                Ok(out)
            }
            "alloc_buffer" => {
                let n = args.first().map(|v| v.as_int()).unwrap_or(0);
                if n <= 0 || n > 1 << 20 {
                    Ok(Value { kind: ValueKind::Null, tainted: false })
                } else {
                    Ok(self.fresh_buffer(n as usize, false))
                }
            }
            "free_mem" => {
                if let Some(Value { kind: ValueKind::Ptr { obj, .. }, .. }) = args.first() {
                    if !self.heap[*obj].alive {
                        // Double free manifests as use-after-free.
                        self.record(DynamicEventKind::UseAfterFree, span);
                        return Err(Fault);
                    }
                    self.heap[*obj].alive = false;
                }
                Ok(Value::int(0))
            }
            "strcpy" => {
                let dst = args.first().copied().unwrap_or(Value::int(0));
                let src = args.get(1).copied().unwrap_or(Value::int(0));
                let n = self.cstrlen(src);
                let src_tainted = self.value_tainted(src);
                for i in 0..=n {
                    let v = if let ValueKind::Ptr { obj, offset } = src.kind {
                        let data = &self.heap[obj].data;
                        data.get((offset as usize) + i).copied().unwrap_or(0)
                    } else {
                        0
                    };
                    self.store(
                        dst,
                        i as i64,
                        Value { kind: ValueKind::Int(v), tainted: src_tainted },
                        span,
                    )?;
                }
                Ok(Value::int(0))
            }
            "memcpy" | "copy_bounded" => {
                let dst = args.first().copied().unwrap_or(Value::int(0));
                let src = args.get(1).copied().unwrap_or(Value::int(0));
                let n = args.get(2).map(|v| v.as_int()).unwrap_or(0).max(0) as usize;
                let n = if name == "copy_bounded" { n.min(self.cstrlen(src)) } else { n };
                let src_tainted = self.value_tainted(src);
                for i in 0..n {
                    let v = if let ValueKind::Ptr { obj, offset } = src.kind {
                        self.heap[obj].data.get((offset as usize) + i).copied().unwrap_or(0)
                    } else {
                        0
                    };
                    self.store(
                        dst,
                        i as i64,
                        Value { kind: ValueKind::Int(v), tainted: src_tainted },
                        span,
                    )?;
                }
                Ok(Value::int(0))
            }
            "fill_data" | "fill_items" => {
                let dst = args.first().copied().unwrap_or(Value::int(0));
                let n = args.get(1).map(|v| v.as_int()).unwrap_or(0).max(0) as usize;
                // Touch first and last cells: faithful enough to catch
                // UAF/OOB/null without O(attacker_int) work.
                if n > 0 {
                    self.store(dst, 0, Value::int(1), span)?;
                    self.store(dst, (n - 1) as i64, Value::int(1), span)?;
                }
                Ok(Value::int(0))
            }
            "send_data" | "consume" | "read_all" | "use" => {
                // Reads the object: liveness/null checked.
                if let Some(&p) = args.first() {
                    if matches!(p.kind, ValueKind::Ptr { .. } | ValueKind::Null) {
                        self.load(p, 0, span)?;
                    }
                }
                Ok(Value::int(0))
            }
            "init_table" => {
                let dst = args.first().copied().unwrap_or(Value::int(0));
                let n = args.get(1).map(|v| v.as_int()).unwrap_or(0).max(0);
                for i in 0..n {
                    self.store(dst, i, Value::int(i), span)?;
                }
                Ok(Value::int(0))
            }
            "find_entry" | "lookup_user" | "get_config" | "find_session" => {
                if self.config.lookups_fail {
                    Ok(Value { kind: ValueKind::Null, tainted: false })
                } else {
                    Ok(self.fresh_buffer(16, false))
                }
            }
            "load_secret" => Ok(self.string_value("runtime-secret", false)),
            "file_exists" => Ok(Value::int(1)),
            "open_file_atomic" => Ok(Value::int(3)),
            "close_file" | "log_event" | "record_metric" | "tick_counter" | "config_flag" => {
                Ok(Value::int(0))
            }
            "connect_service" | "authenticate" | "open_session" | "check_secret" => {
                Ok(Value::int(0))
            }
            // Sinks that also "return" something (fd, status).
            "open_file" | "fopen_path" | "system" | "exec_shell" | "popen" | "exec_query"
            | "sql_execute" | "render_html" | "write_response" | "printf_fmt" | "eval_expr" => {
                Ok(Value::int(3))
            }
            _ => {
                // Unknown library call: a benign stub. Dynamic analysis only
                // observes what actually executes — an unlinked team-library
                // function neither faults nor forwards taint (its *static*
                // counterpart must over-approximate instead; see E17).
                Ok(Value::int(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn run(src: &str) -> DynamicReport {
        run_program(&parse(src).unwrap(), &InterpConfig::default())
    }

    #[test]
    fn clean_program_has_no_events() {
        let r = run("int add(int a, int b) { return a + b; }");
        assert!(r.events.is_empty(), "{:?}", r.events);
        assert_eq!(r.entries_run, vec!["add"]);
        assert!(r.crashed.is_empty());
    }

    #[test]
    fn unbounded_copy_overflows() {
        let r = run(
            r#"void f() { char buf[8]; char* s = read_input(); int i = 0; while (s[i] != '\0') { buf[i] = s[i]; i++; } }"#,
        );
        assert!(r.has(&DynamicEventKind::OutOfBoundsWrite), "{:?}", r.events);
        assert_eq!(r.crashed, vec!["f"]);
    }

    #[test]
    fn bounded_copy_is_clean() {
        let r = run(
            r#"void f() { char buf[8]; char* s = read_input(); int i = 0; while (s[i] != '\0' && i < 7) { buf[i] = s[i]; i++; } buf[i] = '\0'; }"#,
        );
        assert!(!r.has(&DynamicEventKind::OutOfBoundsWrite), "{:?}", r.events);
    }

    #[test]
    fn strcpy_overflow_detected() {
        let r = run(r#"void f() { char buf[16]; char* s = read_input(); strcpy(buf, s); }"#);
        assert!(r.has(&DynamicEventKind::OutOfBoundsWrite));
    }

    #[test]
    fn oob_read_with_attacker_index() {
        let r = run(
            r#"void f() { int t[8]; init_table(t, 8); int i = to_int(http_param("x")); int v = t[i]; use(v); }"#,
        );
        assert!(r.has(&DynamicEventKind::OutOfBoundsRead), "{:?}", r.events);
    }

    #[test]
    fn checked_read_is_clean() {
        let r = run(
            r#"void f() { int t[8]; init_table(t, 8); int i = to_int(http_param("x")); if (i < 0 || i >= 8) { return; } int v = t[i]; use(v); }"#,
        );
        assert!(r.events.is_empty(), "{:?}", r.events);
    }

    #[test]
    fn use_after_free_detected() {
        let r = run(
            r#"void f() { char* p = alloc_buffer(64); fill_data(p, 64); free_mem(p); send_data(p, 64); }"#,
        );
        assert!(r.has(&DynamicEventKind::UseAfterFree));
    }

    #[test]
    fn free_after_use_is_clean() {
        let r = run(
            r#"void f() { char* p = alloc_buffer(64); fill_data(p, 64); send_data(p, 64); free_mem(p); }"#,
        );
        assert!(r.events.is_empty(), "{:?}", r.events);
    }

    #[test]
    fn null_lookup_dereference_detected() {
        let r = run(r#"void f() { char* e = find_entry(3); e[0] = 'A'; }"#);
        assert!(r.has(&DynamicEventKind::NullDereference));
    }

    #[test]
    fn null_check_prevents_crash() {
        let r = run(r#"void f() { char* e = find_entry(3); if (e == 0) { return; } e[0] = 'A'; }"#);
        assert!(r.events.is_empty(), "{:?}", r.events);
        assert!(r.crashed.is_empty());
    }

    #[test]
    fn integer_overflow_on_attacker_count() {
        let r = run(
            r#"void f() { int c = to_int(read_input()); int total = c * 8; char* b = alloc_buffer(total); fill_items(b, c); }"#,
        );
        assert!(r.has(&DynamicEventKind::IntegerOverflow), "{:?}", r.events);
    }

    #[test]
    fn guarded_multiplication_is_clean() {
        let r = run(
            r#"void f() { int c = to_int(read_input()); if (c < 0 || c > 1000) { return; } int total = c * 8; char* b = alloc_buffer(total); fill_items(b, c); }"#,
        );
        assert!(!r.has(&DynamicEventKind::IntegerOverflow), "{:?}", r.events);
    }

    #[test]
    fn tainted_sql_sink_flagged() {
        let r = run(r#"void f() { char* q = http_param("id"); exec_query(q); }"#);
        assert!(r.has(&DynamicEventKind::TaintedSink("sql".into())), "{:?}", r.events);
    }

    #[test]
    fn sanitized_sink_clean() {
        let r = run(r#"void f() { char* q = http_param("id"); exec_query(escape_sql(q)); }"#);
        assert!(r.events.is_empty(), "{:?}", r.events);
    }

    #[test]
    fn taint_flows_through_concat_and_wrappers() {
        let r = run(r#"
            char* fetch() { return read_input(); }
            void runq(char* q) { exec_query(q); }
            void f() { char* u = fetch(); char* q = concat("SELECT ", u); runq(q); }
            "#);
        assert!(r.has(&DynamicEventKind::TaintedSink("sql".into())), "{:?}", r.events);
        // The event is attributed to the function executing the sink call.
        assert!(r.events.iter().any(|e| e.function == "runq"));
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        let cfg = InterpConfig { step_budget: 1000, ..InterpConfig::default() };
        let p = parse("void f() { int x = 0; while (1) { x += 1; } }").unwrap();
        let r = run_program(&p, &cfg);
        assert_eq!(r.crashed, vec!["f"], "budget exhaustion aborts the entry");
    }

    #[test]
    fn recursion_depth_bounded() {
        let r = run("int f(int n) { return f(n); }");
        assert!(r.events.is_empty());
    }

    #[test]
    fn double_free_flagged() {
        let r = run(r#"void f() { char* p = alloc_buffer(8); free_mem(p); free_mem(p); }"#);
        assert!(r.has(&DynamicEventKind::UseAfterFree));
    }

    #[test]
    fn events_deduplicated_per_function() {
        let r = run(r#"void f() { char* a = read_input(); exec_query(a); exec_query(a); }"#);
        let sql_events = r
            .events
            .iter()
            .filter(|e| matches!(&e.kind, DynamicEventKind::TaintedSink(k) if k == "sql"))
            .count();
        assert_eq!(sql_events, 1);
    }
}
