//! The recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Token};
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What was expected / what went wrong.
    pub message: String,
    /// Index of the offending token.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, position: e.offset }
    }
}

/// Keywords that may not be used as bare column / function identifiers.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "UNION", "ALL",
    "DISTINCT", "AS", "AND", "OR", "NOT", "NULL", "TRUE", "FALSE", "CASE", "WHEN", "THEN",
    "ELSE", "END", "IS", "IN", "BETWEEN", "LIKE", "EXISTS", "CREATE", "TABLE", "INSERT",
    "INTO", "VALUES", "DROP", "DESC", "ASC",
];

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

/// Parses a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(tokens);
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parses a `;`-separated script into statements (empty statements skipped).
pub fn parse_script(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(tokens);
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semicolon) {}
        if p.pos >= p.tokens.len() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parses a standalone scalar expression (used by the generators).
pub fn parse_expression(sql: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(e)
}

/// Maximum expression nesting the parser accepts; the recursion guard that a
/// real DBMS parser needs for exactly the reasons §5.3 of the paper explains.
/// Every nested operand and every fold of a left-associative chain
/// (`a + b + c`, `x::INT::INT`, `s UNION s`) is charged to it, so an
/// accepted tree is at most this deep and rendering, visiting, evaluating
/// and dropping it recurse at most this far.
const MAX_PARSE_DEPTH: usize = 200;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The nesting level of the node being parsed.
    depth: usize,
    /// The deepest level any node of the current left-associative chain
    /// reaches, its folds included (see [`Parser::start_chain`]). A failed
    /// parse abandons the parser, so error paths restore neither level.
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0, depth: 0, deepest: 0 }
    }

    /// The depth-budget error, built straight into the caller's return
    /// value, so the recursive functions that return it gain no stack slot
    /// for it: a debug build keeps one per temporary, and deep input runs
    /// on threads with a fixed stack (a campaign worker's is 8 MiB).
    fn too_deep<T>(&self) -> Result<T, ParseError> {
        Err(self.err("expression too deeply nested"))
    }

    /// Enters one nesting level; false when that exceeds
    /// [`MAX_PARSE_DEPTH`]. The caller parses the nested part and then
    /// decrements `depth`.
    fn enter(&mut self) -> bool {
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        self.depth <= MAX_PARSE_DEPTH
    }

    /// Starts a left-associative chain: its reach is measured from the
    /// current level, so siblings parsed before it do not count against
    /// it. Returns the enclosing chain's reach for [`Parser::end_chain`].
    fn start_chain(&mut self) -> usize {
        std::mem::replace(&mut self.deepest, self.depth)
    }

    /// Charges one fold of a chain: the new node holds everything the chain
    /// has parsed so far one level further down. False when that exceeds
    /// [`MAX_PARSE_DEPTH`].
    fn fold(&mut self) -> bool {
        self.deepest += 1;
        self.deepest <= MAX_PARSE_DEPTH
    }

    /// Ends a chain: the enclosing chain reaches at least as deep.
    fn end_chain(&mut self, outer: usize) {
        self.deepest = self.deepest.max(outer);
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), position: self.pos }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {t}")))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}")))
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if !is_reserved(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Some(t) if t.is_kw("SELECT") || *t == Token::LParen => {
                Ok(Statement::Select(Box::new(self.select_stmt()?)))
            }
            Some(t) if t.is_kw("CREATE") => self.create_table(),
            Some(t) if t.is_kw("INSERT") => self.insert(),
            Some(t) if t.is_kw("DROP") => self.drop_table(),
            _ => Err(self.err("expected SELECT, CREATE, INSERT or DROP")),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt, ParseError> {
        let body = self.select_body()?;
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            match self.advance() {
                Some(Token::Number(n)) => {
                    limit = Some(n.parse().map_err(|_| self.err("LIMIT out of range"))?);
                }
                _ => return Err(self.err("expected number after LIMIT")),
            }
        }
        Ok(SelectStmt { body, order_by, limit })
    }

    fn select_body(&mut self) -> Result<SelectBody, ParseError> {
        let outer = self.start_chain();
        let mut left = self.select_atom()?;
        while self.peek().is_some_and(|t| t.is_kw("UNION")) {
            self.pos += 1;
            let all = self.eat_kw("ALL");
            let right = self.select_atom()?;
            if !self.fold() {
                return self.too_deep();
            }
            left = SelectBody::Union { left: Box::new(left), right: Box::new(right), all };
        }
        self.end_chain(outer);
        Ok(left)
    }

    fn select_atom(&mut self) -> Result<SelectBody, ParseError> {
        if self.eat(&Token::LParen) {
            if !self.enter() {
                return self.too_deep();
            }
            let body = self.select_body();
            self.depth -= 1;
            let body = body?;
            self.expect(&Token::RParen)?;
            Ok(body)
        } else {
            Ok(SelectBody::Query(Box::new(self.query()?)))
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            // Bare `*` projection only when not followed by an operator that
            // would make it multiplication (it cannot be: `SELECT *` then
            // `, `, FROM or end).
            if self.peek() == Some(&Token::Star)
                && matches!(
                    self.peek_at(1),
                    None | Some(Token::Comma) | Some(Token::Semicolon) | Some(Token::RParen)
                )
                || (self.peek() == Some(&Token::Star)
                    && self.peek_at(1).is_some_and(|t| t.is_kw("FROM")))
            {
                self.pos += 1;
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.identifier()?)
                } else {
                    match self.peek() {
                        Some(Token::Ident(s)) if !is_reserved(s) => {
                            let s = s.clone();
                            self.pos += 1;
                            Some(s)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") { Some(self.table_ref()?) } else { None };
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(Query { distinct, items, from, where_clause, group_by, having })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        if self.eat(&Token::LParen) {
            if !self.enter() {
                return self.too_deep();
            }
            let query = self.select_stmt();
            self.depth -= 1;
            let query = query?;
            self.expect(&Token::RParen)?;
            let alias = self.opt_alias()?;
            Ok(TableRef::Subquery { query: Box::new(query), alias })
        } else {
            let name = self.identifier()?;
            let alias = self.opt_alias()?;
            Ok(TableRef::Named { name, alias })
        }
    }

    fn opt_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw("AS") {
            return Ok(Some(self.identifier()?));
        }
        match self.peek() {
            Some(Token::Ident(s)) if !is_reserved(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let cname = self.identifier()?;
            let type_name = self.type_name()?;
            let not_null = if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                true
            } else {
                self.eat_kw("NULL");
                false
            };
            columns.push(ColumnDef { name: cname, type_name, not_null });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable(CreateTable { name, if_not_exists, columns }))
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            loop {
                columns.push(self.identifier()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert { table, columns, rows }))
    }

    fn drop_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn type_name(&mut self) -> Result<TypeName, ParseError> {
        let name = match self.advance() {
            Some(Token::Ident(s)) => s,
            _ => return Err(self.err("expected type name")),
        };
        let mut params = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            loop {
                match self.advance() {
                    Some(Token::Number(n)) => params.push(n),
                    Some(Token::Ident(s)) => params.push(s),
                    _ => return Err(self.err("expected type parameter")),
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(TypeName { name, params })
    }

    // ---- expression grammar ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        if !self.enter() {
            return self.too_deep();
        }
        let r = self.or_expr();
        self.depth -= 1;
        r
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            if !self.fold() {
                return self.too_deep();
            }
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        self.end_chain(outer);
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            if !self.fold() {
                return self.too_deep();
            }
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        self.end_chain(outer);
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            if !self.enter() {
                return self.too_deep();
            }
            let inner = self.not_expr();
            self.depth -= 1;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner?) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut left = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::Eq) => Some(BinaryOp::Eq),
                Some(Token::NotEq) => Some(BinaryOp::NotEq),
                Some(Token::Lt) => Some(BinaryOp::Lt),
                Some(Token::LtEq) => Some(BinaryOp::LtEq),
                Some(Token::Gt) => Some(BinaryOp::Gt),
                Some(Token::GtEq) => Some(BinaryOp::GtEq),
                Some(t) if t.is_kw("LIKE") => Some(BinaryOp::Like),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += 1;
                let right = self.additive()?;
                if !self.fold() {
                    return self.too_deep();
                }
                left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
                continue;
            }
            if self.eat_kw("IS") {
                let negated = self.eat_kw("NOT");
                self.expect_kw("NULL")?;
                if !self.fold() {
                    return self.too_deep();
                }
                left = Expr::IsNull { expr: Box::new(left), negated };
                continue;
            }
            // [NOT] IN / [NOT] BETWEEN.
            let negated = if self.peek().is_some_and(|t| t.is_kw("NOT"))
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.is_kw("IN") || t.is_kw("BETWEEN"))
            {
                self.pos += 1;
                true
            } else {
                false
            };
            if self.eat_kw("IN") {
                self.expect(&Token::LParen)?;
                let mut list = Vec::new();
                loop {
                    list.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                if !self.fold() {
                    return self.too_deep();
                }
                left = Expr::InList { expr: Box::new(left), list, negated };
                continue;
            }
            if self.eat_kw("BETWEEN") {
                let low = self.additive()?;
                self.expect_kw("AND")?;
                let high = self.additive()?;
                if !self.fold() {
                    return self.too_deep();
                }
                left = Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if negated {
                return Err(self.err("expected IN or BETWEEN after NOT"));
            }
            break;
        }
        self.end_chain(outer);
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                Some(Token::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            if !self.fold() {
                return self.too_deep();
            }
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        self.end_chain(outer);
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            if !self.fold() {
                return self.too_deep();
            }
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        self.end_chain(outer);
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.pos += 1;
                if !self.enter() {
                    return self.too_deep();
                }
                let e = self.unary();
                self.depth -= 1;
                Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(e?) })
            }
            Some(Token::Plus) => {
                self.pos += 1;
                if !self.enter() {
                    return self.too_deep();
                }
                let e = self.unary();
                self.depth -= 1;
                Ok(Expr::Unary { op: UnaryOp::Plus, expr: Box::new(e?) })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut e = self.primary()?;
        while self.eat(&Token::DoubleColon) {
            let type_name = self.type_name()?;
            if !self.fold() {
                return self.too_deep();
            }
            e = Expr::Cast { expr: Box::new(e), type_name, postgres_style: true };
        }
        self.end_chain(outer);
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if !self.enter() {
            return self.too_deep();
        }
        let r = self.primary_inner();
        self.depth -= 1;
        r
    }

    fn primary_inner(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Number(n)))
            }
            Some(Token::String(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::String(s)))
            }
            Some(Token::HexBlob(b)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::HexBlob(b)))
            }
            Some(Token::Star) => {
                self.pos += 1;
                Ok(Expr::Star)
            }
            Some(Token::LBracket) => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() != Some(&Token::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RBracket)?;
                Ok(Expr::ArrayLiteral(items))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                // Subquery or parenthesised expression.
                if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
                    let q = self.select_stmt()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.expr()?;
                // A parenthesised list is an anonymous row value.
                if self.peek() == Some(&Token::Comma) {
                    let mut items = vec![e];
                    while self.eat(&Token::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Row(items));
                }
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(word)) => self.ident_led(&word),
            _ => Err(self.err("expected expression")),
        }
    }

    fn ident_led(&mut self, word: &str) -> Result<Expr, ParseError> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.pos += 1;
                return Ok(Expr::Literal(Literal::Null));
            }
            "TRUE" => {
                self.pos += 1;
                return Ok(Expr::Literal(Literal::Boolean(true)));
            }
            "FALSE" => {
                self.pos += 1;
                return Ok(Expr::Literal(Literal::Boolean(false)));
            }
            "CASE" => return self.case_expr(),
            "CAST" | "CONVERT"
                // CAST(expr AS type) / CONVERT(expr, type).
                if self.peek_at(1) == Some(&Token::LParen) => {
                    return self.cast_call(&upper);
                }
            "ROW"
                if self.peek_at(1) == Some(&Token::LParen) => {
                    self.pos += 2;
                    let mut items = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            items.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Row(items));
                }
            "EXISTS"
                if self.peek_at(1) == Some(&Token::LParen) => {
                    self.pos += 2;
                    let q = self.select_stmt()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Exists(Box::new(q)));
                }
            "INTERVAL" => {
                // MySQL quirk: `INTERVAL(` is the INTERVAL *function*
                // (the MDEV-14596 PoC), otherwise an interval literal.
                if self.peek_at(1) == Some(&Token::LParen) {
                    let name = word.to_string();
                    self.pos += 2;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Function(FunctionExpr {
                        name,
                        distinct: false,
                        args,
                    }));
                }
                // INTERVAL <quantity> <unit>.
                self.pos += 1;
                let quantity = self.unary()?;
                let unit = match self.advance() {
                    Some(Token::Ident(u)) => u,
                    _ => return Err(self.err("expected interval unit")),
                };
                return Ok(Expr::IntervalLiteral { quantity: Box::new(quantity), unit });
            }
            "DATE" | "TIME" | "TIMESTAMP" => {
                // Typed literal: DATE '2024-01-01'.
                if let Some(Token::String(s)) = self.peek_at(1).cloned() {
                    self.pos += 2;
                    return Ok(Expr::Cast {
                        expr: Box::new(Expr::Literal(Literal::String(s))),
                        type_name: TypeName::simple(&upper),
                        postgres_style: false,
                    });
                }
            }
            _ => {}
        }
        // MySQL's string INSERT() is a function despite INSERT being a
        // statement keyword; allow it in expression position.
        let keyword_function =
            upper == "INSERT" && self.peek_at(1) == Some(&Token::LParen);
        if is_reserved(word) && !keyword_function {
            return Err(self.err(&format!("unexpected keyword {word}")));
        }
        // Function call?
        if self.peek_at(1) == Some(&Token::LParen) {
            let name = word.to_string();
            self.pos += 2;
            let distinct = self.eat_kw("DISTINCT");
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function(FunctionExpr { name, distinct, args }));
        }
        // Qualified or bare column.
        let mut name = word.to_string();
        self.pos += 1;
        while self.eat(&Token::Dot) {
            let part = match self.advance() {
                Some(Token::Ident(s)) => s,
                Some(Token::Star) => "*".to_string(),
                _ => return Err(self.err("expected identifier after '.'")),
            };
            name.push('.');
            name.push_str(&part);
        }
        Ok(Expr::Column(name))
    }

    fn cast_call(&mut self, kind: &str) -> Result<Expr, ParseError> {
        self.pos += 2; // keyword + '('
        let inner = self.expr()?;
        if kind == "CAST" {
            self.expect_kw("AS")?;
        } else {
            self.expect(&Token::Comma)?;
        }
        let type_name = self.type_name()?;
        self.expect(&Token::RParen)?;
        Ok(Expr::Cast { expr: Box::new(inner), type_name, postgres_style: false })
    }

    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("CASE")?;
        let operand = if self.peek().is_some_and(|t| t.is_kw("WHEN")) {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.expr()?;
            self.expect_kw("THEN")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN"));
        }
        let else_expr = if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) {
        let s1 = parse_statement(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let printed = s1.to_string();
        let s2 = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        assert_eq!(s1, s2, "roundtrip of {sql:?} via {printed:?}");
    }

    #[test]
    fn paper_listing_pocs_parse() {
        // Every PoC shown in the paper must be parseable.
        for sql in [
            "SELECT toDecimalString('110'::Decimal256(45), *);",
            "SELECT FORMAT('0', 50, 'de_DE');",
            "SELECT COLUMN_JSON(COLUMN_CREATE('x', 123456789012345678901234567890123456789012346789));",
            "SELECT * FROM (SELECT IFNULL(CONVERT(NULL, UNSIGNED), NULL)) sq;",
            "SELECT REPEAT('[', 1000)::json;",
            "SELECT INTERVAL(ROW(1,1),ROW(1,2));",
            "SELECT AVG(1.299999999999999999999999999999999999999999999999999999999999999999);",
            "SELECT CONTAINS('x', 'x', *);",
            "SELECT JSONB_OBJECT_AGG(DISTINCT 'a', 'abc');",
            "SELECT REPEAT('[{\"a\":', 100000) UNION (SELECT [ ]);",
            "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]');",
            "SELECT ST_ASTEXT(BOUNDARY(INET6_ATON('255.255.255.255')));",
            "SELECT UpdateXML('<a><c></c></a>', '/a/c[1]', '<c><b></b></c>');",
        ] {
            parse_statement(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        }
    }

    #[test]
    fn roundtrips() {
        for sql in [
            "SELECT 1",
            "SELECT DISTINCT a, b AS x FROM t WHERE a > 1 GROUP BY a, b HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 10",
            "SELECT * FROM t",
            "SELECT f(NULL), f(''), f(*), f(-0.99999)",
            "SELECT CAST('1' AS INTEGER)",
            "SELECT '1'::INTEGER",
            "SELECT a FROM (SELECT 1 AS a) sub",
            "SELECT 1 UNION SELECT 2",
            "SELECT 1 UNION ALL SELECT 2",
            "CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(10))",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "DROP TABLE IF EXISTS t",
            "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t",
            "SELECT CASE a WHEN 1 THEN 2 END FROM t",
            "SELECT a IS NULL, b IS NOT NULL FROM t",
            "SELECT a IN (1, 2, 3), b NOT IN (4)",
            "SELECT a BETWEEN 1 AND 10 FROM t",
            "SELECT ROW(1, 2), [1, 2, 3], []",
            "SELECT -x, NOT y FROM t",
            "SELECT 'a' || 'b'",
            "SELECT (SELECT 1)",
            "SELECT EXISTS (SELECT 1)",
            "SELECT INTERVAL 5 DAY",
            "SELECT 1 + 2 * 3 - 4 / 5 % 6",
            "SELECT x'DEAD'",
            "SELECT COUNT(DISTINCT a) FROM t",
        ] {
            roundtrip(sql);
        }
    }

    #[test]
    fn precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3");
        match e {
            Expr::Binary { op: BinaryOp::Add, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_expression("a OR b AND c").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinaryOp::Or, .. }));
    }

    #[test]
    fn typed_literals_become_casts() {
        let e = parse_expression("DATE '2024-01-01'").unwrap();
        assert!(matches!(e, Expr::Cast { .. }));
    }

    #[test]
    fn star_argument() {
        let e = parse_expression("CONTAINS('x', 'x', *)").unwrap();
        match e {
            Expr::Function(f) => {
                assert_eq!(f.args.len(), 3);
                assert_eq!(f.args[2], Expr::Star);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn long_literals_preserved() {
        let digits = "9".repeat(120);
        let e = parse_expression(&format!("AVG({digits})")).unwrap();
        assert_eq!(e.to_string(), format!("AVG({digits})"));
    }

    #[test]
    fn parse_errors() {
        for sql in [
            "",
            "SELECT",
            "SELECT FROM",
            "SELECT 1 FROM",
            "SELECT f(",
            "CREATE TABLE t",
            "INSERT INTO t",
            "SELECT 1 extra garbage ' ",
            "SELECT CASE END",
            "SELECT 1 NOT 2",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql:?} should fail");
        }
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        let deep = format!("SELECT {}1{}", "(".repeat(5000), ")".repeat(5000));
        let e = parse_statement(&deep).unwrap_err();
        assert!(e.message.contains("nested"), "{e}");
        // Unary and left-associative chains build trees as deep as they are
        // long, so they are charged to the same budget.
        let links = 1_000;
        for sql in [
            format!("SELECT {}1", "NOT ".repeat(links)),
            format!("SELECT {}1", "- ".repeat(links)),
            format!("SELECT 1{}", " + 1".repeat(links)),
            format!("SELECT 1{}", " AND 1".repeat(links)),
            format!("SELECT 'a'{}", " || 'a'".repeat(links)),
            format!("SELECT 1{}", "::INT".repeat(links)),
            format!("SELECT 1{}", " UNION SELECT 1".repeat(links)),
            format!("{}SELECT 1{}", "(".repeat(links), ")".repeat(links)),
            format!("SELECT 1{}", " FROM (SELECT 1".repeat(links)) + &")".repeat(links),
        ] {
            let e = parse_statement(&sql).unwrap_err();
            assert!(e.message.contains("too deeply nested"), "{}: {e}", &sql[..40]);
        }
        // A chain folds on top of its deepest operand, wherever that sits.
        let nested_sum = |parens: usize, terms: usize| {
            let operand = format!("{}1{}", "(".repeat(parens), ")".repeat(parens));
            parse_statement(&format!("SELECT {operand}{}", " + 1".repeat(terms)))
        };
        assert!(nested_sum(90, 10).is_ok());
        assert!(nested_sum(90, 30).is_err());
        assert!(nested_sum(10, 150).is_ok());
        // Siblings do not add up: each argument is measured on its own.
        let wide = format!("SELECT f({})", vec!["1 + 1 + 1 + 1"; 400].join(", "));
        assert!(parse_statement(&wide).is_ok());
        let long_chain = format!("SELECT 1{}", " + 1".repeat(150));
        assert!(parse_statement(&long_chain).is_ok());
    }

    /// A chain of one unary operator renders as `NOT NOT x`, `- -x` or
    /// `+ +x`, so every chain the parser accepts renders to text it accepts
    /// again, with the same tree.
    #[test]
    fn unary_chains_round_trip_at_every_accepted_depth() {
        for op in ["NOT ", "- ", "+ "] {
            let mut deepest = 0;
            for n in 1.. {
                let Ok(tree) = parse_statement(&format!("SELECT {}x", op.repeat(n))) else {
                    break;
                };
                let rendered = tree.to_string();
                assert!(!rendered.contains("--"), "{op:?} x{n} renders a comment: {rendered}");
                match parse_statement(&rendered) {
                    Ok(again) => assert_eq!(again, tree, "{op:?} x{n} changed in the round trip"),
                    Err(e) => panic!("{op:?} x{n} renders unparseable text: {e}"),
                }
                deepest = n;
            }
            assert_eq!(deepest, MAX_PARSE_DEPTH - 2, "{op:?}: the deepest accepted chain moved");
        }
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);; SELECT a FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn qualified_columns() {
        let e = parse_expression("t.a + s.b").unwrap();
        assert_eq!(e.to_string(), "t.a + s.b");
    }

    #[test]
    fn union_of_select_star_and_empty_array() {
        // Case 4 from the paper needs `UNION (SELECT [ ])`.
        roundtrip("SELECT REPEAT('[{\"a\":', 100000) UNION (SELECT [ ])");
    }
}
