//! Recursive-descent parser for Clight-mini.
//!
//! The parser produces *untyped* AST (expression type slots hold
//! [`Ty::Void`]); [`fn@crate::typecheck`] fills them in and desugars surface
//! forms ([`Expr::Index`]).
//!
//! Grammar highlights (see DESIGN.md §2):
//! * declarations appear at the top of a function body (C89 style) and may
//!   carry scalar initializers;
//! * function calls occur only at statement level, `x = f(a);` or `f(a);`
//!   (as in Clight);
//! * `for (init; cond; step) body` desugars to a `while` loop; `continue`
//!   inside a `for` is rejected because the desugaring would skip the step.

use std::fmt;

use mem::Cmp;

use crate::ast::{Binop, CallDest, Expr, ExternDecl, Function, GlobalVar, Program, Stmt, Unop};
use crate::lexer::{lex, Kw, LexError, Spanned, Token};
use crate::ty::Ty;

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Parse a Clight-mini translation unit.
///
/// # Errors
/// Lexical and syntactic errors are reported with line numbers.
///
/// # Example
///
/// ```
/// let unit = clight::parse("int sqr(int n) { return n * n; }")?;
/// assert_eq!(unit.functions.len(), 1);
/// # Ok::<(), clight::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        in_for: 0,
    };
    p.program()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Depth of enclosing desugared `for` loops (to reject `continue`).
    in_for: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.peek() == &Token::Punct(p) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == &Token::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn is_type_start(&self) -> bool {
        matches!(self.peek(), Token::Kw(Kw::Int | Kw::Long | Kw::Void))
    }

    /// `type := ("int" | "long" | "void") "*"*`
    fn parse_type(&mut self) -> Result<Ty, ParseError> {
        let base = match self.bump() {
            Token::Kw(Kw::Int) => Ty::Int,
            Token::Kw(Kw::Long) => Ty::Long,
            Token::Kw(Kw::Void) => Ty::Void,
            other => return self.err(format!("expected type, found {other}")),
        };
        let mut t = base;
        while self.eat_punct("*") {
            t = Ty::Ptr(Box::new(t));
        }
        Ok(t)
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        while self.peek() != &Token::Eof {
            if self.peek() == &Token::Kw(Kw::Extern) {
                self.bump();
                let ret = self.parse_type()?;
                let name = self.expect_ident()?;
                self.expect_punct("(")?;
                let mut params = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        // `(void)` means "no parameters".
                        if self.peek() == &Token::Kw(Kw::Void) && self.peek2() == &Token::Punct(")")
                        {
                            self.bump();
                            break;
                        }
                        let t = self.parse_type()?;
                        // Optional parameter name in declarations.
                        if matches!(self.peek(), Token::Ident(_)) {
                            self.bump();
                        }
                        params.push(t);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                self.expect_punct(";")?;
                prog.externs.push(ExternDecl { name, ret, params });
                continue;
            }
            let readonly = if self.peek() == &Token::Kw(Kw::Const) {
                self.bump();
                true
            } else {
                false
            };
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.peek() == &Token::Punct("(") {
                if readonly {
                    return self.err("`const` is not valid on functions");
                }
                let f = self.function_rest(ty, name)?;
                prog.functions.push(f);
            } else {
                let g = self.global_rest(ty, name, readonly)?;
                prog.globals.push(g);
            }
        }
        Ok(prog)
    }

    fn global_rest(
        &mut self,
        mut ty: Ty,
        name: String,
        readonly: bool,
    ) -> Result<GlobalVar, ParseError> {
        if self.eat_punct("[") {
            let n = match self.bump() {
                Token::Int(n) | Token::Long(n) => n,
                other => return self.err(format!("expected array size, found {other}")),
            };
            self.expect_punct("]")?;
            ty = Ty::Array(Box::new(ty), n);
        }
        let init = if self.eat_punct("=") {
            let neg = self.eat_punct("-");
            match self.bump() {
                Token::Int(n) | Token::Long(n) => Some(if neg { -n } else { n }),
                other => return self.err(format!("expected literal initializer, found {other}")),
            }
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(GlobalVar {
            name,
            ty,
            init,
            readonly,
        })
    }

    fn function_rest(&mut self, ret: Ty, name: String) -> Result<Function, ParseError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                if self.peek() == &Token::Kw(Kw::Void) && self.peek2() == &Token::Punct(")") {
                    self.bump();
                    break;
                }
                let t = self.parse_type()?;
                let pname = self.expect_ident()?;
                params.push((pname, t));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct("{")?;
        let mut vars: Vec<(String, Ty)> = params.clone();
        // C89-style declarations first.
        let mut inits = Stmt::Skip;
        while self.is_type_start() || self.peek() == &Token::Kw(Kw::Const) {
            if self.peek() == &Token::Kw(Kw::Const) {
                self.bump();
            }
            let mut t = self.parse_type()?;
            let vname = self.expect_ident()?;
            if self.eat_punct("[") {
                let n = match self.bump() {
                    Token::Int(n) | Token::Long(n) => n,
                    other => return self.err(format!("expected array size, found {other}")),
                };
                self.expect_punct("]")?;
                t = Ty::Array(Box::new(t), n);
            }
            if self.eat_punct("=") {
                let e = self.expr()?;
                inits = Stmt::seq(inits, Stmt::Assign(Expr::Var(vname.clone(), Ty::Void), e));
            }
            self.expect_punct(";")?;
            vars.push((vname, t));
        }
        let mut body = inits;
        while !self.eat_punct("}") {
            let s = self.stmt()?;
            body = Stmt::seq(body, s);
        }
        Ok(Function {
            name,
            ret,
            params,
            vars,
            temps: vec![],
            body,
        })
    }

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("{")?;
        let mut body = Stmt::Skip;
        while !self.eat_punct("}") {
            let s = self.stmt()?;
            body = Stmt::seq(body, s);
        }
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Token::Punct(";") => {
                self.bump();
                Ok(Stmt::Skip)
            }
            Token::Punct("{") => self.block(),
            Token::Kw(Kw::If) => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let then = self.stmt()?;
                let els = if self.peek() == &Token::Kw(Kw::Else) {
                    self.bump();
                    self.stmt()?
                } else {
                    Stmt::Skip
                };
                Ok(Stmt::If(cond, Box::new(then), Box::new(els)))
            }
            Token::Kw(Kw::While) => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let body = self.stmt()?;
                Ok(Stmt::While(cond, Box::new(body)))
            }
            Token::Kw(Kw::For) => {
                self.bump();
                self.expect_punct("(")?;
                let init = if self.peek() == &Token::Punct(";") {
                    Stmt::Skip
                } else {
                    self.simple_stmt()?
                };
                self.expect_punct(";")?;
                let cond = if self.peek() == &Token::Punct(";") {
                    Expr::ConstInt(1)
                } else {
                    self.expr()?
                };
                self.expect_punct(";")?;
                let step = if self.peek() == &Token::Punct(")") {
                    Stmt::Skip
                } else {
                    self.simple_stmt()?
                };
                self.expect_punct(")")?;
                self.in_for += 1;
                let body = self.stmt()?;
                self.in_for -= 1;
                // for(i; c; s) b  ==>  i; while (c) { b; s }
                Ok(Stmt::seq(
                    init,
                    Stmt::While(cond, Box::new(Stmt::seq(body, step))),
                ))
            }
            Token::Kw(Kw::Return) => {
                self.bump();
                if self.eat_punct(";") {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Token::Kw(Kw::Break) => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Break)
            }
            Token::Kw(Kw::Continue) => {
                if self.in_for > 0 {
                    return self.err(
                        "`continue` inside `for` is not supported (the desugaring would skip the step)",
                    );
                }
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Continue)
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_punct(";")?;
                Ok(s)
            }
        }
    }

    /// Assignment or call (no trailing `;`).
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Call statement: `ident ( … )`.
        if let (Token::Ident(name), Token::Punct("(")) = (self.peek().clone(), self.peek2().clone())
        {
            self.bump();
            let args = self.call_args()?;
            return Ok(Stmt::Call(CallDest::None, name, args));
        }
        let lhs = self.expr()?;
        if !lhs.is_lvalue() {
            return self.err("expected an assignable expression or a call");
        }
        self.expect_punct("=")?;
        // `lv = f(args)` — call with destination.
        if let (Token::Ident(name), Token::Punct("(")) = (self.peek().clone(), self.peek2().clone())
        {
            self.bump();
            let args = self.call_args()?;
            return Ok(Stmt::Call(CallDest::Lvalue(lhs), name, args));
        }
        let rhs = self.expr()?;
        Ok(Stmt::Assign(lhs, rhs))
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        Ok(args)
    }

    // ---- expressions (precedence climbing) ------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary(0)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Token::Punct("||") => (None, 1),
                Token::Punct("&&") => (None, 2),
                Token::Punct("|") => (Some(Binop::Or), 3),
                Token::Punct("^") => (Some(Binop::Xor), 4),
                Token::Punct("&") => (Some(Binop::And), 5),
                Token::Punct("==") => (Some(Binop::Cmp(Cmp::Eq)), 6),
                Token::Punct("!=") => (Some(Binop::Cmp(Cmp::Ne)), 6),
                Token::Punct("<") => (Some(Binop::Cmp(Cmp::Lt)), 7),
                Token::Punct("<=") => (Some(Binop::Cmp(Cmp::Le)), 7),
                Token::Punct(">") => (Some(Binop::Cmp(Cmp::Gt)), 7),
                Token::Punct(">=") => (Some(Binop::Cmp(Cmp::Ge)), 7),
                Token::Punct("<<") => (Some(Binop::Shl), 8),
                Token::Punct(">>") => (Some(Binop::Shr), 8),
                Token::Punct("+") => (Some(Binop::Add), 9),
                Token::Punct("-") => (Some(Binop::Sub), 9),
                Token::Punct("*") => (Some(Binop::Mul), 10),
                Token::Punct("/") => (Some(Binop::Div), 10),
                Token::Punct("%") => (Some(Binop::Mod), 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let tok = self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = match op {
                Some(op) => Expr::Binop(op, Box::new(lhs), Box::new(rhs), Ty::Void),
                None => {
                    // `a && b` ==> (a != 0) & (b != 0); `a || b` dually.
                    // (Both operands are evaluated: Clight-mini expressions
                    // are effect-free, so short-circuiting is unobservable
                    // except for undefined behaviour, which we accept; see
                    // DESIGN.md.)
                    let bit = if tok == Token::Punct("&&") {
                        Binop::And
                    } else {
                        Binop::Or
                    };
                    let norm = |e: Expr| {
                        Expr::Binop(
                            Binop::Cmp(Cmp::Ne),
                            Box::new(e),
                            Box::new(Expr::ConstInt(0)),
                            Ty::Void,
                        )
                    };
                    Expr::Binop(bit, Box::new(norm(lhs)), Box::new(norm(rhs)), Ty::Void)
                }
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Punct("-") => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unop(Unop::Neg, Box::new(e), Ty::Void))
            }
            Token::Punct("~") => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unop(Unop::Not, Box::new(e), Ty::Void))
            }
            Token::Punct("!") => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unop(Unop::LogicalNot, Box::new(e), Ty::Void))
            }
            Token::Punct("*") => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Deref(Box::new(e), Ty::Void))
            }
            Token::Punct("&") => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Addr(Box::new(e), Ty::Void))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.eat_punct("[") {
            let idx = self.expr()?;
            self.expect_punct("]")?;
            e = Expr::Index(Box::new(e), Box::new(idx), Ty::Void);
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Int(n) => {
                self.bump();
                if n > i32::MAX as i64 || n < i32::MIN as i64 {
                    return self.err(format!("int literal {n} out of 32-bit range (use `L`)"));
                }
                Ok(Expr::ConstInt(n as i32))
            }
            Token::Long(n) => {
                self.bump();
                Ok(Expr::ConstLong(n))
            }
            Token::Ident(name) => {
                self.bump();
                // `f(…)` in expression position: calls are statements in
                // this dialect, never subexpressions. Without this check
                // the stray `(` surfaces later as a baffling generic error
                // far from the call.
                if matches!(self.peek(), Token::Punct("(")) {
                    return self.err(format!(
                        "call to `{name}` in expression position: calls are statements \
                         in this dialect — bind the result first (`tmp = {name}(...);`) \
                         and use `tmp` in the expression"
                    ));
                }
                Ok(Expr::Var(name, Ty::Void))
            }
            Token::Kw(Kw::Sizeof) => {
                self.bump();
                self.expect_punct("(")?;
                let t = self.parse_type()?;
                self.expect_punct(")")?;
                Ok(Expr::SizeOf(t))
            }
            Token::Punct("(") => {
                self.bump();
                if self.is_type_start() {
                    let t = self.parse_type()?;
                    self.expect_punct(")")?;
                    let e = self.unary()?;
                    Ok(Expr::Cast(Box::new(e), t))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(")")?;
                    Ok(e)
                }
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig1() {
        let src = "
            int mult(int n, int p) { return n * p; }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].params.len(), 2);
    }

    #[test]
    fn parses_calls_and_externs() {
        let src = "
            extern int mult(int, int);
            int sqr(int n) { int r; r = mult(n, n); return r; }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.externs.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.vars.len(), 2); // n, r
    }

    #[test]
    fn parses_globals_and_arrays() {
        let src = "
            const int limit = 10;
            long buf[8];
            int get(int i) { return (int) buf[i]; }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.globals.len(), 2);
        assert!(p.globals[0].readonly);
        assert_eq!(p.globals[1].ty, Ty::Array(Box::new(Ty::Long), 8));
    }

    #[test]
    fn for_desugars_to_while() {
        let src = "int f(void) { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }";
        let p = parse(src).unwrap();
        // The body contains a While somewhere.
        fn has_while(s: &Stmt) -> bool {
            match s {
                Stmt::While(_, _) => true,
                Stmt::Seq(a, b) => has_while(a) || has_while(b),
                Stmt::If(_, a, b) => has_while(a) || has_while(b),
                _ => false,
            }
        }
        assert!(has_while(&p.functions[0].body));
    }

    #[test]
    fn continue_in_for_rejected() {
        let src = "int f(void) { int i; for (i = 0; i < 3; i = i + 1) { continue; } return 0; }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn precedence() {
        let p = parse("int f(int a, int b) { return a + b * 2 == a; }").unwrap();
        let body = &p.functions[0].body;
        // return ((a + (b*2)) == a)
        match body {
            Stmt::Return(Some(Expr::Binop(Binop::Cmp(Cmp::Eq), lhs, _, _))) => match &**lhs {
                Expr::Binop(Binop::Add, _, rhs, _) => {
                    assert!(matches!(&**rhs, Expr::Binop(Binop::Mul, _, _, _)));
                }
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn errors_report_lines() {
        let err = parse("int f(void) {\n  return $;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn call_in_expression_position_names_the_dialect_rule() {
        // `return f(x);` is the idiomatic C a user writes first; the dialect
        // only admits calls as statements. The diagnostic must say so and
        // show the rewrite, not report a generic token mismatch somewhere
        // after the stray `(`.
        let err = parse("extern int f(int);\nint g(int x) {\n  return f(x);\n}").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 3: call to `f` in expression position: calls are statements \
             in this dialect — bind the result first (`tmp = f(...);`) and use `tmp` in the \
             expression"
        );
        // Same rule inside a condition and nested in arithmetic.
        let err = parse("extern int p(int);\nint g(int x) { if (p(x)) { return 1; } return 0; }")
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("call to `p` in expression position"),
            "{err}"
        );
        let err = parse("extern int h(int);\nint g(int x) { int y; y = 1 + h(x); return y; }")
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("call to `h` in expression position"),
            "{err}"
        );
        // The statement forms stay legal.
        assert!(parse("extern int f(int);\nint g(int x) { int r; r = f(x); return r; }").is_ok());
        assert!(parse("extern int f(int);\nint g(int x) { f(x); return 0; }").is_ok());
    }

    #[test]
    fn pointer_types_and_addressof() {
        let p = parse("long deref(long* p) { return *p; }").unwrap();
        assert_eq!(p.functions[0].params[0].1, Ty::Ptr(Box::new(Ty::Long)));
        let p2 = parse("int f(void) { int x; int* p; x = 3; p = &x; return *p; }").unwrap();
        assert_eq!(p2.functions[0].vars.len(), 2);
    }
}
