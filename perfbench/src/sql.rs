//! A small SQL builder for the benchmark's query templates.
//!
//! Every template is built as a [`Shape`] and rendered in one of several
//! [`Spelling`]s. The spellings differ only in ways the service's
//! canonicalizer documents as equal (whitespace, keyword case, `AND`
//! operand order, mirrored comparisons, `IN`-list order and `GROUP BY`
//! order), so every spelling of a shape must hit the same cache entry.

/// A SQL literal.
#[derive(Debug, Clone)]
pub enum Lit {
    Int(i64),
    /// A fare in cents, rendered as a two-decimal number.
    Cents(i64),
    Str(String),
}

impl Lit {
    fn render(&self) -> String {
        match self {
            Lit::Int(v) => v.to_string(),
            Lit::Cents(c) => format!("{}.{:02}", c / 100, c % 100),
            Lit::Str(s) => format!("'{s}'"),
        }
    }
}

/// A comparison operator of a `column op literal` predicate.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Eq,
    Gt,
    Ge,
}

impl Op {
    fn render(self, mirrored: bool) -> &'static str {
        match (self, mirrored) {
            (Op::Eq, _) => "=",
            (Op::Gt, false) => ">",
            (Op::Gt, true) => "<",
            (Op::Ge, false) => ">=",
            (Op::Ge, true) => "<=",
        }
    }
}

/// One conjunct of a WHERE clause.
#[derive(Debug, Clone)]
pub enum Pred {
    Cmp(&'static str, Op, Lit),
    Between(&'static str, Lit, Lit),
    In(&'static str, Vec<Lit>),
}

/// The FROM clause.
#[derive(Debug, Clone, Copy)]
pub enum From {
    Table(&'static str),
    /// `left JOIN right ON on.0 = on.1`, tables given as `"trips t"`.
    Join {
        left: &'static str,
        right: &'static str,
        on: (&'static str, &'static str),
    },
}

/// How a single-table count is phrased.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrap {
    Plain,
    /// `WITH base AS (SELECT * FROM t WHERE …) SELECT … FROM base`.
    Cte,
    /// `SELECT … FROM (SELECT * FROM t WHERE …) AS base`.
    Derived,
}

/// A query template instance, before spelling.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Projection items, e.g. `"c.name"` or `"COUNT(*)"`; keyword case
    /// of aggregate names follows the spelling.
    pub select: Vec<&'static str>,
    pub from: From,
    pub preds: Vec<Pred>,
    pub group_by: Vec<&'static str>,
    pub wrap: Wrap,
}

/// Surface variations of one query, all canonically equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spelling {
    pub lower: bool,
    pub spaced: bool,
    pub reverse_and: bool,
    pub mirror: bool,
    pub reverse_in: bool,
    pub reverse_group: bool,
}

impl Shape {
    pub fn plain(select: Vec<&'static str>, from: From, preds: Vec<Pred>) -> Shape {
        Shape {
            select,
            from,
            preds,
            group_by: Vec::new(),
            wrap: Wrap::Plain,
        }
    }

    /// The spellings that apply to this shape: the canonical base form,
    /// then one variant per normalisation the shape can exercise.
    pub fn spellings(&self) -> Vec<Spelling> {
        let base = Spelling::default();
        let mut out = vec![
            base,
            Spelling {
                lower: true,
                spaced: true,
                ..base
            },
        ];
        if self.preds.len() > 1 {
            out.push(Spelling {
                reverse_and: true,
                ..base
            });
        }
        if self.preds.iter().any(|p| matches!(p, Pred::Cmp(..))) {
            out.push(Spelling {
                mirror: true,
                ..base
            });
        }
        if self
            .preds
            .iter()
            .any(|p| matches!(p, Pred::In(_, items) if items.len() > 1))
        {
            out.push(Spelling {
                reverse_in: true,
                ..base
            });
        }
        if self.group_by.len() > 1 {
            out.push(Spelling {
                reverse_group: true,
                ..base
            });
        }
        out
    }

    pub fn render(&self, sp: Spelling) -> String {
        let kw = |s: &str| {
            if sp.lower {
                s.to_lowercase()
            } else {
                s.to_string()
            }
        };
        let gap = if sp.spaced { "\n   " } else { " " };
        let select: Vec<String> = self.select.iter().map(|s| kw(s)).collect();
        let select = select.join(", ");
        let from = match self.from {
            From::Table(t) => t.to_string(),
            From::Join { left, right, on } => format!(
                "{left}{gap}{}{gap}{right}{gap}{}{gap}{} = {}",
                kw("JOIN"),
                kw("ON"),
                on.0,
                on.1
            ),
        };
        let mut preds: Vec<String> = self.preds.iter().map(|p| render_pred(p, sp)).collect();
        if sp.reverse_and {
            preds.reverse();
        }
        let mut where_clause = String::new();
        if !preds.is_empty() {
            let and = format!("{gap}{}{gap}", kw("AND"));
            where_clause = format!("{gap}{}{gap}{}", kw("WHERE"), preds.join(&and));
        }
        let mut group: Vec<&str> = self.group_by.clone();
        if sp.reverse_group {
            group.reverse();
        }
        let group_clause = if group.is_empty() {
            String::new()
        } else {
            format!("{gap}{}{gap}{}", kw("GROUP BY"), group.join(", "))
        };
        match self.wrap {
            Wrap::Plain => format!(
                "{}{gap}{select}{gap}{}{gap}{from}{where_clause}{group_clause}",
                kw("SELECT"),
                kw("FROM")
            ),
            Wrap::Cte => format!(
                "{} base {} ({} *{gap}{} {from}{where_clause}){gap}{} {select} {} base{group_clause}",
                kw("WITH"),
                kw("AS"),
                kw("SELECT"),
                kw("FROM"),
                kw("SELECT"),
                kw("FROM")
            ),
            Wrap::Derived => format!(
                "{} {select}{gap}{} ({} * {} {from}{where_clause}) {} base{group_clause}",
                kw("SELECT"),
                kw("FROM"),
                kw("SELECT"),
                kw("FROM"),
                kw("AS")
            ),
        }
    }
}

fn render_pred(p: &Pred, sp: Spelling) -> String {
    let kw = |s: &str| {
        if sp.lower {
            s.to_lowercase()
        } else {
            s.to_string()
        }
    };
    match p {
        Pred::Cmp(col, op, lit) if sp.mirror => {
            format!("{} {} {col}", lit.render(), op.render(true))
        }
        Pred::Cmp(col, op, lit) => format!("{col} {} {}", op.render(false), lit.render()),
        Pred::Between(col, lo, hi) => format!(
            "{col} {} {} {} {}",
            kw("BETWEEN"),
            lo.render(),
            kw("AND"),
            hi.render()
        ),
        Pred::In(col, items) => {
            let mut items: Vec<String> = items.iter().map(Lit::render).collect();
            if sp.reverse_in {
                items.reverse();
            }
            format!("{col} {} ({})", kw("IN"), items.join(", "))
        }
    }
}
