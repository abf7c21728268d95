//! Recursive-descent parser for the mini-C dialect.

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::intern::{Interner, Symbol};
use crate::lexer::{lex_ref, LexOutput};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Parses a full translation unit from source text.
///
/// Doc comments (line comments immediately preceding a function definition)
/// are attached to that function's [`Function::doc`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), vulnman_lang::error::ParseError> {
/// let prog = vulnman_lang::parser::parse(
///     "// Adds two numbers.\nint add(int a, int b) { return a + b; }",
/// )?;
/// assert_eq!(prog.functions.len(), 1);
/// assert_eq!(prog.functions[0].doc, vec!["Adds two numbers."]);
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> ParseResult<Program> {
    let out = lex_ref(source)?;
    Parser::new(out).program()
}

/// Parses a single expression (useful in tests and rule matchers).
///
/// # Errors
///
/// Returns an error if the input is not exactly one expression.
pub fn parse_expr(source: &str) -> ParseResult<Expr> {
    let out = lex_ref(source)?;
    let mut p = Parser::new(out);
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// Maximum statement/expression nesting before parsing aborts with an
/// error. The parser is recursive-descent, so unbounded nesting (e.g. ten
/// thousand `(`s from a fuzzer or a truncated upload) would otherwise
/// overflow the stack instead of returning a [`ParseError`].
const MAX_NESTING_DEPTH: usize = 200;

struct Parser<'a> {
    tokens: Vec<Token<Cow<'a, str>>>,
    comments: Vec<(usize, Cow<'a, str>)>, // (end offset, text) of line comments
    pos: usize,
    depth: usize,
    /// Deduplicates identifier names: every occurrence of the same name in
    /// one parse shares a single allocation.
    interner: Interner,
}

impl<'a> Parser<'a> {
    fn new(out: LexOutput<Cow<'a, str>>) -> Self {
        let comments =
            out.comments.into_iter().filter(|c| !c.block).map(|c| (c.span.end, c.text)).collect();
        Parser { tokens: out.tokens, comments, pos: 0, depth: 0, interner: Interner::new() }
    }

    fn descend(&mut self) -> ParseResult<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(ParseError::new(
                format!("nesting exceeds {MAX_NESTING_DEPTH} levels"),
                self.peek().span,
            ));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &Token<Cow<'a, str>> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind<Cow<'a, str>> {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind<Cow<'a, str>> {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token<Cow<'a, str>> {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind<Cow<'a, str>>) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: TokenKind<Cow<'a, str>>) -> bool {
        if self.at(&kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<Cow<'a, str>>) -> ParseResult<Token<Cow<'a, str>>> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(ParseError::new(
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
                t.span,
            ))
        }
    }

    fn expect_ident(&mut self) -> ParseResult<(Symbol, Span)> {
        let span = self.peek().span;
        if matches!(self.peek_kind(), TokenKind::Ident(_)) {
            match self.bump().kind {
                TokenKind::Ident(name) => Ok((self.interner.intern(&name), span)),
                _ => unreachable!("peeked an identifier"),
            }
        } else {
            Err(ParseError::new(
                format!("expected identifier, found {}", self.peek_kind().describe()),
                span,
            ))
        }
    }

    // ----- grammar ---------------------------------------------------------

    /// A translation unit. Like C, a function may be defined only once:
    /// every name-keyed table downstream (call graph, summaries, stage
    /// caches) relies on function names being unique within a program.
    fn program(&mut self) -> ParseResult<Program> {
        let mut prog = Program::new();
        let mut defined: BTreeSet<Symbol> = BTreeSet::new();
        let mut prev_end = 0usize;
        while !self.at(&TokenKind::Eof) {
            let start = self.peek().span.start;
            let mut func = self.function()?;
            if !defined.insert(func.name.clone()) {
                return Err(ParseError::new(
                    format!("redefinition of function `{}`", func.name),
                    func.span,
                ));
            }
            func.doc = self
                .comments
                .iter()
                .filter(|(end, _)| *end > prev_end && *end <= start)
                .map(|(_, text)| text.clone().into_owned())
                .collect();
            prev_end = func.span.end;
            prog.functions.push(func);
        }
        Ok(prog)
    }

    fn base_type(&mut self) -> ParseResult<Type> {
        let t = self.bump();
        let mut ty = match t.kind {
            TokenKind::KwInt => Type::Int,
            TokenKind::KwChar => Type::Char,
            TokenKind::KwVoid => Type::Void,
            other => {
                return Err(ParseError::new(
                    format!("expected type, found {}", other.describe()),
                    t.span,
                ))
            }
        };
        while self.eat(TokenKind::Star) {
            ty = ty.ptr();
        }
        Ok(ty)
    }

    fn function(&mut self) -> ParseResult<Function> {
        let start_span = self.peek().span;
        let ret = self.base_type()?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let ty = self.base_type()?;
                let (pname, _) = self.expect_ident()?;
                let ty = self.maybe_array(ty)?;
                params.push(Param { name: pname, ty });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let end_span = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Function { name, params, ret, body, span: start_span.to(end_span), doc: Vec::new() })
    }

    fn maybe_array(&mut self, ty: Type) -> ParseResult<Type> {
        if self.eat(TokenKind::LBracket) {
            let t = self.bump();
            let len = match t.kind {
                TokenKind::Int(v) if v >= 0 => v as usize,
                other => {
                    return Err(ParseError::new(
                        format!("expected array length, found {}", other.describe()),
                        t.span,
                    ))
                }
            };
            self.expect(TokenKind::RBracket)?;
            Ok(ty.array(len))
        } else {
            Ok(ty)
        }
    }

    fn block(&mut self) -> ParseResult<Vec<Stmt>> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(ParseError::new("unterminated block", self.peek().span));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> ParseResult<Stmt> {
        self.descend()?;
        let result = self.stmt_inner();
        self.ascend();
        result
    }

    fn stmt_inner(&mut self) -> ParseResult<Stmt> {
        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::KwInt | TokenKind::KwChar | TokenKind::KwVoid => self.decl_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) { None } else { Some(self.expr()?) };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Return(value), span.to(end)))
            }
            TokenKind::KwBreak => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Break, span.to(end)))
            }
            TokenKind::KwContinue => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Continue, span.to(end)))
            }
            TokenKind::LBrace => {
                // Flatten a bare block into an `if (1)` so the AST stays small.
                let body = self.block()?;
                Ok(Stmt::new(
                    StmtKind::If { cond: Expr::int(1), then_branch: body, else_branch: None },
                    span,
                ))
            }
            _ => {
                let s = self.simple_stmt()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(s.kind, span.to(end)))
            }
        }
    }

    fn decl_stmt(&mut self) -> ParseResult<Stmt> {
        let span = self.peek().span;
        let s = self.decl_simple()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::new(s.kind, span.to(end)))
    }

    fn decl_simple(&mut self) -> ParseResult<Stmt> {
        let span = self.peek().span;
        let ty = self.base_type()?;
        let (name, _) = self.expect_ident()?;
        let ty = self.maybe_array(ty)?;
        let init = if self.eat(TokenKind::Assign) { Some(self.expr()?) } else { None };
        Ok(Stmt::new(StmtKind::Decl { name, ty, init }, span))
    }

    /// Assignment, increment, or expression statement — without the trailing
    /// semicolon (shared by statement position and `for` init/step).
    fn simple_stmt(&mut self) -> ParseResult<Stmt> {
        let span = self.peek().span;
        let lhs = self.expr()?;
        let kind = match self.peek_kind() {
            TokenKind::Assign => {
                self.bump();
                let value = self.expr()?;
                StmtKind::Assign { target: self.as_lvalue(lhs)?, value, op: None }
            }
            TokenKind::PlusAssign => {
                self.bump();
                let value = self.expr()?;
                StmtKind::Assign { target: self.as_lvalue(lhs)?, value, op: Some(BinOp::Add) }
            }
            TokenKind::MinusAssign => {
                self.bump();
                let value = self.expr()?;
                StmtKind::Assign { target: self.as_lvalue(lhs)?, value, op: Some(BinOp::Sub) }
            }
            TokenKind::PlusPlus => {
                self.bump();
                StmtKind::Assign {
                    target: self.as_lvalue(lhs)?,
                    value: Expr::int(1),
                    op: Some(BinOp::Add),
                }
            }
            TokenKind::MinusMinus => {
                self.bump();
                StmtKind::Assign {
                    target: self.as_lvalue(lhs)?,
                    value: Expr::int(1),
                    op: Some(BinOp::Sub),
                }
            }
            _ => StmtKind::Expr(lhs),
        };
        Ok(Stmt::new(kind, span))
    }

    fn as_lvalue(&self, e: Expr) -> ParseResult<LValue> {
        match e.kind {
            ExprKind::Var(name) => Ok(LValue::Var(name)),
            ExprKind::Unary(UnOp::Deref, inner) => Ok(LValue::Deref(*inner)),
            ExprKind::Index(base, idx) => Ok(LValue::Index(*base, *idx)),
            _ => Err(ParseError::new("invalid assignment target", e.span)),
        }
    }

    fn if_stmt(&mut self) -> ParseResult<Stmt> {
        let span = self.expect(TokenKind::KwIf)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.block_or_single()?;
        let else_branch = if self.eat(TokenKind::KwElse) {
            if self.at(&TokenKind::KwIf) {
                Some(vec![self.if_stmt()?])
            } else {
                Some(self.block_or_single()?)
            }
        } else {
            None
        };
        Ok(Stmt::new(StmtKind::If { cond, then_branch, else_branch }, span))
    }

    fn block_or_single(&mut self) -> ParseResult<Vec<Stmt>> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn while_stmt(&mut self) -> ParseResult<Stmt> {
        let span = self.expect(TokenKind::KwWhile)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::new(StmtKind::While { cond, body }, span))
    }

    fn for_stmt(&mut self) -> ParseResult<Stmt> {
        let span = self.expect(TokenKind::KwFor)?.span;
        self.expect(TokenKind::LParen)?;
        let init = if self.at(&TokenKind::Semi) {
            None
        } else if matches!(self.peek_kind(), TokenKind::KwInt | TokenKind::KwChar) {
            Some(Box::new(self.decl_simple()?))
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(TokenKind::Semi)?;
        let cond = if self.at(&TokenKind::Semi) { None } else { Some(self.expr()?) };
        self.expect(TokenKind::Semi)?;
        let step =
            if self.at(&TokenKind::RParen) { None } else { Some(Box::new(self.simple_stmt()?)) };
        self.expect(TokenKind::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::new(StmtKind::For { init, cond, step, body }, span))
    }

    // ----- expressions (precedence climbing) --------------------------------

    fn expr(&mut self) -> ParseResult<Expr> {
        self.binary(0)
    }

    fn binary(&mut self, min_prec: u8) -> ParseResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek_kind() {
                TokenKind::PipePipe => (BinOp::Or, 1),
                TokenKind::AmpAmp => (BinOp::And, 2),
                TokenKind::Pipe => (BinOp::BitOr, 3),
                TokenKind::Caret => (BinOp::BitXor, 4),
                TokenKind::Amp => (BinOp::BitAnd, 5),
                TokenKind::Eq => (BinOp::Eq, 6),
                TokenKind::Ne => (BinOp::Ne, 6),
                TokenKind::Lt => (BinOp::Lt, 7),
                TokenKind::Le => (BinOp::Le, 7),
                TokenKind::Gt => (BinOp::Gt, 7),
                TokenKind::Ge => (BinOp::Ge, 7),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    // Every expression nesting level — unary chains, parenthesized groups,
    // call arguments, index brackets — passes through `unary` on its way
    // down, so guarding here bounds all expression recursion.
    fn unary(&mut self) -> ParseResult<Expr> {
        self.descend()?;
        let result = self.unary_inner();
        self.ascend();
        result
    }

    fn unary_inner(&mut self) -> ParseResult<Expr> {
        let span = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Amp => Some(UnOp::AddrOf),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.unary()?;
            let span = span.to(inner.span);
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(inner)), span));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> ParseResult<Expr> {
        let mut e = self.primary()?;
        while self.at(&TokenKind::LBracket) {
            self.bump();
            let idx = self.expr()?;
            let end = self.expect(TokenKind::RBracket)?.span;
            let span = e.span.to(end);
            e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), span);
        }
        Ok(e)
    }

    fn primary(&mut self) -> ParseResult<Expr> {
        let t = self.bump();
        match t.kind {
            TokenKind::Int(v) => Ok(Expr::new(ExprKind::Int(v), t.span)),
            TokenKind::Char(c) => Ok(Expr::new(ExprKind::Char(c), t.span)),
            TokenKind::Str(s) => Ok(Expr::new(ExprKind::Str(s.into_owned()), t.span)),
            TokenKind::Ident(name) => {
                let name = self.interner.intern(&name);
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    Ok(Expr::new(ExprKind::Call(name, args), t.span.to(end)))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), t.span))
                }
            }
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(ParseError::new(
                format!("expected expression, found {}", other.describe()),
                t.span,
            )),
        }
    }

    // `peek2_kind` is used by callers that look ahead for declarations.
    #[allow(dead_code)]
    fn is_decl_start(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::KwInt | TokenKind::KwChar)
            && matches!(self.peek2_kind(), TokenKind::Ident(_) | TokenKind::Star)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let p = parse("int add(int a, int b) { return a + b; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_pointers_and_arrays() {
        let p = parse(
            "void f(char* s, int n) { char buf[16]; int* q; q = &n; *q = 1; buf[0] = s[0]; }",
        )
        .unwrap();
        let f = &p.functions[0];
        assert_eq!(f.params[0].ty, Type::Char.ptr());
        match &f.body[0].kind {
            StmtKind::Decl { ty, .. } => assert_eq!(*ty, Type::Char.array(16)),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Add, _, rhs) => match rhs.kind {
                ExprKind::Binary(BinOp::Mul, _, _) => {}
                other => panic!("rhs should be mul, got {other:?}"),
            },
            other => panic!("expected add at root, got {other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_over_logic() {
        let e = parse_expr("a < b && c > d").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn parens_override() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse("int f(int x) { if (x > 0) { return 1; } else if (x < 0) { return -1; } else { return 0; } }").unwrap();
        match &p.functions[0].body[0].kind {
            StmtKind::If { else_branch: Some(e), .. } => {
                assert!(matches!(e[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop_with_increment() {
        let p = parse("void f(int n) { for (int i = 0; i < n; i++) { work(i); } }").unwrap();
        match &p.functions[0].body[0].kind {
            StmtKind::For { init, cond, step, body } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(step.is_some());
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_while_break_continue() {
        let p = parse("void f() { while (1) { if (done()) { break; } continue; } }").unwrap();
        assert_eq!(p.functions[0].stmt_count(), 4);
    }

    #[test]
    fn compound_assignment() {
        let p = parse("void f(int x) { x += 2; x -= 1; }").unwrap();
        match &p.functions[0].body[0].kind {
            StmtKind::Assign { op: Some(BinOp::Add), .. } => {}
            other => panic!("expected +=, got {other:?}"),
        }
    }

    #[test]
    fn attaches_doc_comments() {
        let src = "// Validates input.\n// Returns 0 on success.\nint check(int x) { return 0; }\nint other() { return 1; }";
        let p = parse(src).unwrap();
        assert_eq!(p.functions[0].doc, vec!["Validates input.", "Returns 0 on success."]);
        assert!(p.functions[1].doc.is_empty());
    }

    #[test]
    fn doc_comments_do_not_leak_across_functions() {
        let src = "int a() { return 1; // inline\n}\n// For b only.\nint b() { return 2; }";
        let p = parse(src).unwrap();
        assert_eq!(p.functions[0].doc, Vec::<String>::new());
        assert_eq!(p.functions[1].doc, vec!["For b only."]);
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(parse("void f() { 1 = 2; }").is_err());
        assert!(parse("void f(int a, int b) { f(a) = b; }").is_err());
    }

    #[test]
    fn rejects_unterminated_block() {
        assert!(parse("void f() { int x;").is_err());
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("void f() { int x }").is_err());
    }

    #[test]
    fn deref_assignment() {
        let p = parse("void f(int* p) { *p = 3; }").unwrap();
        match &p.functions[0].body[0].kind {
            StmtKind::Assign { target: LValue::Deref(_), .. } => {}
            other => panic!("expected deref assign, got {other:?}"),
        }
    }

    #[test]
    fn nested_index_expression() {
        let e = parse_expr("m[i][j]").unwrap();
        assert!(matches!(e.kind, ExprKind::Index(_, _)));
    }

    #[test]
    fn call_with_nested_calls() {
        let e = parse_expr("outer(inner(a), b + c)").unwrap();
        assert_eq!(e.called_fns(), vec!["outer", "inner"]);
    }

    #[test]
    fn deep_paren_nesting_errors_instead_of_overflowing() {
        let src = format!("int f() {{ return {}1{}; }}", "(".repeat(5000), ")".repeat(5000));
        let err = parse(&src).unwrap_err();
        assert!(err.message().contains("nesting"), "{err}");
    }

    #[test]
    fn deep_unary_nesting_errors_instead_of_overflowing() {
        let src = format!("int f(int x) {{ return {}x; }}", "!".repeat(5000));
        assert!(parse(&src).is_err());
    }

    #[test]
    fn deep_statement_nesting_errors_instead_of_overflowing() {
        let src = format!("void f() {{ {} x = 1; {} }}", "if (1) {".repeat(5000), "}".repeat(5000));
        assert!(parse(&src).is_err());
    }

    #[test]
    fn moderate_nesting_still_parses() {
        let src = format!("int f() {{ return {}1{}; }}", "(".repeat(100), ")".repeat(100));
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn redefining_a_function_is_an_error() {
        let err = parse("int f() { return 1; }\nint g() { return 2; }\nint f() { return 3; }")
            .unwrap_err();
        assert!(err.message().contains("redefinition of function `f`"), "{err}");
        assert_eq!(err.span().line, 3);
        // Calling, or declaring a parameter with, a defined name is fine.
        assert!(parse("int f(int g) { return g; }\nint g() { return f(1); }").is_ok());
    }

    #[test]
    fn spans_point_into_source() {
        let src = "int f(int x) {\n  return x;\n}";
        let p = parse(src).unwrap();
        let ret = &p.functions[0].body[0];
        assert_eq!(ret.span.line, 2);
        assert_eq!(&src[ret.span.start..ret.span.end], "return x;");
    }
}
