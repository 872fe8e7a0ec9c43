//! The SQL abstract syntax tree and its printer.
//!
//! The printer (`Display` impls) renders canonical SQL that re-parses to the
//! same tree — the property the generators rely on when they splice pattern-
//! mutated function expressions back into statements.

use soft_types::value::quote_sql_string;
use std::fmt;

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...` (possibly a UNION chain).
    Select(Box<SelectStmt>),
    /// `CREATE TABLE ...`.
    CreateTable(CreateTable),
    /// `INSERT INTO ...`.
    Insert(Insert),
    /// `DROP TABLE ...`.
    DropTable {
        /// Table name.
        name: String,
        /// `IF EXISTS` was present.
        if_exists: bool,
    },
}

/// A full select statement: a body plus ordering and limit.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The query or UNION chain.
    pub body: SelectBody,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

/// A select body: either a simple query block or a UNION of two bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectBody {
    /// A plain query block.
    Query(Box<Query>),
    /// `left UNION [ALL] right`.
    Union {
        /// Left branch.
        left: Box<SelectBody>,
        /// Right branch.
        right: Box<SelectBody>,
        /// `UNION ALL` (keeps duplicates).
        all: bool,
    },
}

/// One query block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` source.
    pub from: Option<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

/// A projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
    /// The bare `*` projection.
    Wildcard,
}

/// A `FROM` source.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table with an optional alias.
    Named {
        /// Table name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// A parenthesised subquery with an optional alias.
    Subquery {
        /// The subquery.
        query: Box<SelectStmt>,
        /// Alias.
        alias: Option<String>,
    },
}

/// An `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// `IF NOT EXISTS` was present.
    pub if_not_exists: bool,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
}

/// One column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub type_name: TypeName,
    /// `NOT NULL` constraint.
    pub not_null: bool,
}

/// `INSERT INTO`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Vec<String>,
    /// Value rows.
    pub rows: Vec<Vec<Expr>>,
}

/// A type name as written in SQL, e.g. `DECIMAL(10,2)` or ClickHouse-style
/// `Decimal256(45)` — the base name plus raw parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeName {
    /// Base name, original spelling.
    pub name: String,
    /// Raw textual parameters.
    pub params: Vec<String>,
}

impl TypeName {
    /// A bare type name without parameters.
    pub fn simple(name: &str) -> TypeName {
        TypeName { name: name.to_string(), params: Vec::new() }
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.params.is_empty() {
            write!(f, "({})", self.params.join(","))?;
        }
        Ok(())
    }
}

/// A literal value as written in the source.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Numeric literal, raw text (arbitrary digit count).
    Number(String),
    /// String literal.
    String(String),
    /// Hex blob `x'...'`.
    HexBlob(Vec<u8>),
    /// `NULL`.
    Null,
    /// `TRUE` / `FALSE`.
    Boolean(bool),
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Unary plus.
    Plus,
    /// Logical NOT.
    Not,
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `=`.
    Eq,
    /// `<>`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `AND`.
    And,
    /// `OR`.
    Or,
    /// `||`.
    Concat,
    /// `LIKE`.
    Like,
}

impl BinaryOp {
    /// Binding strength for printing: higher binds tighter.
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq
            | BinaryOp::Like => 3,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 4,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 5,
        }
    }

    /// The SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
            BinaryOp::Like => "LIKE",
        }
    }
}

/// A function call expression.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionExpr {
    /// Function name, original spelling.
    pub name: String,
    /// `DISTINCT` inside the call (aggregates).
    pub distinct: bool,
    /// Arguments.
    pub args: Vec<Expr>,
}

impl FunctionExpr {
    /// Creates a plain (non-distinct) call.
    pub fn new(name: &str, args: Vec<Expr>) -> FunctionExpr {
        FunctionExpr { name: name.to_string(), distinct: false, args }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Literal),
    /// A (possibly qualified) column reference.
    Column(String),
    /// The `*` argument / projection pseudo-expression.
    Star,
    /// A function call.
    Function(FunctionExpr),
    /// `CAST(expr AS type)` or `expr::type`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        type_name: TypeName,
        /// Written with PostgreSQL `::` syntax.
        postgres_style: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Optional comparison operand.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` expression.
        else_expr: Option<Box<Expr>>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// The list.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `ROW(a, b, ...)`.
    Row(Vec<Expr>),
    /// `[a, b, ...]` array literal.
    ArrayLiteral(Vec<Expr>),
    /// A parenthesised scalar subquery.
    Subquery(Box<SelectStmt>),
    /// `EXISTS (subquery)`.
    Exists(Box<SelectStmt>),
    /// `INTERVAL n unit`.
    IntervalLiteral {
        /// Quantity expression.
        quantity: Box<Expr>,
        /// Unit keyword (DAY, MONTH, ...).
        unit: String,
    },
}

impl Expr {
    /// Shorthand for a numeric literal.
    pub fn number(raw: &str) -> Expr {
        Expr::Literal(Literal::Number(raw.to_string()))
    }

    /// Shorthand for a string literal.
    pub fn string(s: &str) -> Expr {
        Expr::Literal(Literal::String(s.to_string()))
    }

    /// Shorthand for NULL.
    pub fn null() -> Expr {
        Expr::Literal(Literal::Null)
    }

    /// Shorthand for a function call.
    pub fn func(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Function(FunctionExpr::new(name, args))
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::CreateTable(c) => write!(f, "{c}"),
            Statement::Insert(i) => write!(f, "{i}"),
            Statement::DropTable { name, if_exists } => {
                write!(f, "DROP TABLE ")?;
                if *if_exists {
                    write!(f, "IF EXISTS ")?;
                }
                write!(f, "{name}")
            }
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, item) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", item.expr)?;
                if item.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectBody::Query(q) => write!(f, "{q}"),
            SelectBody::Union { left, right, all } => {
                write!(f, "{left} UNION ")?;
                if *all {
                    write!(f, "ALL ")?;
                }
                match right.as_ref() {
                    // Keep right-nested unions unambiguous.
                    SelectBody::Union { .. } => write!(f, "({right})"),
                    SelectBody::Query(_) => write!(f, "{right}"),
                }
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.items.is_empty() {
            write!(f, "1")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Wildcard => write!(f, "*")?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS {a}")?;
                    }
                }
            }
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => {
                write!(f, "{name}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableRef::Subquery { query, alias } => {
                write!(f, "({query})")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for CreateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE TABLE ")?;
        if self.if_not_exists {
            write!(f, "IF NOT EXISTS ")?;
        }
        write!(f, "{} (", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.type_name)?;
            if c.not_null {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Number(s) => write!(f, "{s}"),
            Literal::String(s) => write!(f, "{}", quote_sql_string(s)),
            Literal::HexBlob(b) => write!(f, "x'{}'", soft_types::hex::upper(b)),
            Literal::Null => write!(f, "NULL"),
            Literal::Boolean(true) => write!(f, "TRUE"),
            Literal::Boolean(false) => write!(f, "FALSE"),
        }
    }
}

impl fmt::Display for FunctionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Star => write!(f, "*"),
            Expr::Function(fx) => write!(f, "{fx}"),
            Expr::Cast { expr, type_name, postgres_style } => {
                if *postgres_style {
                    // Parenthesise the operand when it is compound.
                    match expr.as_ref() {
                        Expr::Literal(_) | Expr::Column(_) | Expr::Function(_) => {
                            write!(f, "{expr}::{type_name}")
                        }
                        _ => write!(f, "({expr})::{type_name}"),
                    }
                } else {
                    write!(f, "CAST({expr} AS {type_name})")
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Unary { op, expr } => {
                let sym = match op {
                    UnaryOp::Neg => "-",
                    UnaryOp::Plus => "+",
                    UnaryOp::Not => "NOT ",
                };
                match expr.as_ref() {
                    Expr::Literal(_) | Expr::Column(_) | Expr::Function(_) => {
                        write!(f, "{sym}{expr}")
                    }
                    // A nested unary of the same operator needs no
                    // parentheses, which would charge the parser's depth
                    // budget a second level per operator. The space keeps
                    // `- -x` from starting a `--` comment.
                    Expr::Unary { op: inner, .. } if inner == op => match op {
                        UnaryOp::Not => write!(f, "{sym}{expr}"),
                        UnaryOp::Neg | UnaryOp::Plus => write!(f, "{sym} {expr}"),
                    },
                    _ => write!(f, "{sym}({expr})"),
                }
            }
            Expr::Binary { left, op, right } => {
                // Parenthesise a child when it binds looser than this node,
                // or (on the right) equally loose — the grammar is
                // left-associative.
                let needs_paren = |e: &Expr, right_side: bool| match e {
                    Expr::Binary { op: child, .. } => {
                        child.precedence() < op.precedence()
                            || (right_side && child.precedence() == op.precedence())
                    }
                    Expr::Between { .. } | Expr::IsNull { .. } | Expr::InList { .. } => true,
                    _ => false,
                };
                if needs_paren(left, false) {
                    write!(f, "({left})")?;
                } else {
                    write!(f, "{left}")?;
                }
                write!(f, " {} ", op.sql())?;
                if needs_paren(right, true) {
                    write!(f, "({right})")
                } else {
                    write!(f, "{right}")
                }
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS ")?;
                if *negated {
                    write!(f, "NOT ")?;
                }
                write!(f, "NULL")
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "{expr} ")?;
                if *negated {
                    write!(f, "NOT ")?;
                }
                write!(f, "IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Between { expr, low, high, negated } => {
                write!(f, "{expr} ")?;
                if *negated {
                    write!(f, "NOT ")?;
                }
                write!(f, "BETWEEN {low} AND {high}")
            }
            Expr::Row(items) => {
                write!(f, "ROW(")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::ArrayLiteral(items) => {
                write!(f, "[")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Expr::Subquery(q) => write!(f, "({q})"),
            Expr::Exists(q) => write!(f, "EXISTS ({q})"),
            Expr::IntervalLiteral { quantity, unit } => {
                write!(f, "INTERVAL {quantity} {unit}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_printing() {
        let e = Expr::func("REPEAT", vec![Expr::string("["), Expr::number("1000")]);
        assert_eq!(e.to_string(), "REPEAT('[', 1000)");
    }

    #[test]
    fn cast_printing() {
        let pg = Expr::Cast {
            expr: Box::new(Expr::string("110")),
            type_name: TypeName { name: "Decimal256".into(), params: vec!["45".into()] },
            postgres_style: true,
        };
        assert_eq!(pg.to_string(), "'110'::Decimal256(45)");
        let std = Expr::Cast {
            expr: Box::new(Expr::null()),
            type_name: TypeName::simple("UNSIGNED"),
            postgres_style: false,
        };
        assert_eq!(std.to_string(), "CAST(NULL AS UNSIGNED)");
    }

    #[test]
    fn select_printing() {
        let q = Query {
            distinct: false,
            items: vec![SelectItem::Expr {
                expr: Expr::func("AVG", vec![Expr::Column("c".into())]),
                alias: None,
            }],
            from: Some(TableRef::Named { name: "t".into(), alias: None }),
            where_clause: Some(Expr::Binary {
                left: Box::new(Expr::Column("c".into())),
                op: BinaryOp::Gt,
                right: Box::new(Expr::number("0")),
            }),
            group_by: vec![],
            having: None,
        };
        let stmt = SelectStmt {
            body: SelectBody::Query(Box::new(q)),
            order_by: vec![],
            limit: Some(5),
        };
        assert_eq!(stmt.to_string(), "SELECT AVG(c) FROM t WHERE c > 0 LIMIT 5");
    }

    #[test]
    fn string_literal_quoting() {
        let e = Expr::string("it's");
        assert_eq!(e.to_string(), "'it''s'");
    }

    #[test]
    fn row_and_array_printing() {
        let r = Expr::Row(vec![Expr::number("1"), Expr::number("2")]);
        assert_eq!(r.to_string(), "ROW(1, 2)");
        let a = Expr::ArrayLiteral(vec![]);
        assert_eq!(a.to_string(), "[]");
    }
}
