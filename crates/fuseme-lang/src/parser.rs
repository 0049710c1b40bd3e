//! Recursive-descent parser with precedence climbing.
//!
//! Precedence (loosest → tightest): comparisons (`!=`, `>`), additive
//! (`+`, `-`), multiplicative (`*`, `/`), matrix multiplication (`%*%`),
//! unary minus, power (`^`, right-associative), atoms. This mirrors R,
//! where `%*%` binds tighter than `*` — `U * X %*% V` is `U * (X %*% V)`,
//! the grouping every factorization update in the paper relies on.

use crate::ast::{BinaryOp, Expr, Program, Stmt};
use crate::lexer::Token;

/// Parser failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
}

/// Parses a token stream into a [`Program`].
pub fn parse(tokens: &[Token]) -> Result<Program, ParseError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    p.skip_newlines();
    while !p.at_end() {
        stmts.push(p.statement()?);
        if !p.at_end() {
            p.expect_newline()?;
        }
        p.skip_newlines();
    }
    Ok(Program { stmts })
}

impl Parser<'_> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Some(Token::Newline)) {
            self.pos += 1;
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token::Newline) => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other:?}"))),
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { message }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Ident(name)) if name == "output" => {
                self.pos += 1;
                let mut names = Vec::new();
                loop {
                    match self.bump() {
                        Some(Token::Ident(n)) => names.push(n.clone()),
                        other => {
                            return Err(
                                self.err(format!("expected name after 'output', found {other:?}"))
                            )
                        }
                    }
                    if matches!(self.peek(), Some(Token::Comma)) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Ok(Stmt::Output(names))
            }
            Some(Token::Ident(name)) => {
                let name = name.clone();
                self.pos += 1;
                match self.bump() {
                    Some(Token::Assign) => {}
                    other => {
                        return Err(
                            self.err(format!("expected '=' after '{name}', found {other:?}"))
                        )
                    }
                }
                let expr = self.expression()?;
                Ok(Stmt::Assign { name, expr })
            }
            other => Err(self.err(format!("expected a statement, found {other:?}"))),
        }
    }

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::NotEq) => BinaryOp::NotEq,
                Some(Token::Greater) => BinaryOp::Greater,
                _ => break,
            };
            self.pos += 1;
            let right = self.additive()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.matmul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.matmul()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn matmul(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        while matches!(self.peek(), Some(Token::MatMul)) {
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::Binary {
                op: BinaryOp::MatMul,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.pos += 1;
            let inner = self.unary()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, ParseError> {
        let base = self.atom()?;
        if matches!(self.peek(), Some(Token::Caret)) {
            self.pos += 1;
            // Right-associative: recurse through unary so `-` binds.
            let exp = self.unary()?;
            return Ok(Expr::Binary {
                op: BinaryOp::Pow,
                left: Box::new(base),
                right: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Number(v)) => Ok(Expr::Number(v)),
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.expression()?);
                            if matches!(self.peek(), Some(Token::Comma)) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    match self.bump() {
                        Some(Token::RParen) => Ok(Expr::Call { name, args }),
                        other => Err(self.err(format!("expected ')', found {other:?}"))),
                    }
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Some(Token::LParen) => {
                let inner = self.expression()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    other => Err(self.err(format!("expected ')', found {other:?}"))),
                }
            }
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_expr(src: &str) -> Expr {
        let tokens = tokenize(&format!("x = {src}")).unwrap();
        let prog = parse(&tokens).unwrap();
        match &prog.stmts[0] {
            Stmt::Assign { expr, .. } => expr.clone(),
            _ => panic!(),
        }
    }

    #[test]
    fn matmul_binds_tighter_than_elementwise() {
        // U * X %*% V  ==  U * (X %*% V)
        let e = parse_expr("U * X %*% V");
        let Expr::Binary { op, right, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Mul);
        assert!(matches!(
            *right,
            Expr::Binary {
                op: BinaryOp::MatMul,
                ..
            }
        ));
    }

    #[test]
    fn additive_looser_than_multiplicative() {
        let e = parse_expr("a + b * c");
        let Expr::Binary { op, right, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Add);
        assert!(matches!(
            *right,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn power_is_right_associative_and_tight() {
        let e = parse_expr("x ^ 2 + 1");
        let Expr::Binary { op, left, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Add);
        assert!(matches!(
            *left,
            Expr::Binary {
                op: BinaryOp::Pow,
                ..
            }
        ));
    }

    #[test]
    fn comparison_loosest() {
        let e = parse_expr("X - U %*% V != 0");
        let Expr::Binary { op, .. } = e else { panic!() };
        assert_eq!(op, BinaryOp::NotEq);
    }

    #[test]
    fn call_parsing() {
        let e = parse_expr("sum((X != 0) * (X - U %*% V)^2)");
        let Expr::Call { name, args } = e else {
            panic!()
        };
        assert_eq!(name, "sum");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn unary_minus() {
        let e = parse_expr("-x + 1");
        let Expr::Binary { left, .. } = e else {
            panic!()
        };
        assert!(matches!(*left, Expr::Neg(_)));
    }

    #[test]
    fn output_statement() {
        let tokens = tokenize("a = 1\nb = 2\noutput a, b").unwrap();
        let prog = parse(&tokens).unwrap();
        assert_eq!(prog.output_names(), vec!["a", "b"]);
    }

    #[test]
    fn errors_are_descriptive() {
        let tokens = tokenize("a = ").unwrap();
        assert!(parse(&tokens).is_err());
        let tokens = tokenize("= 3").unwrap();
        assert!(parse(&tokens).is_err());
        let tokens = tokenize("a = (1 + 2").unwrap();
        let e = parse(&tokens).unwrap_err();
        assert!(e.message.contains("')'"));
    }

    #[test]
    fn multi_statement_program() {
        let tokens =
            tokenize("numU = U * (t(V) %*% X)\ndenU = t(V) %*% V %*% U\nout = numU / denU")
                .unwrap();
        let prog = parse(&tokens).unwrap();
        assert_eq!(prog.stmts.len(), 3);
        assert_eq!(prog.output_names(), vec!["out"]);
    }
}
