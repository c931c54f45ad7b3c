//! Text parser for the NFP policy DSL.
//!
//! The concrete syntax is exactly what the paper prints in Table 1:
//!
//! ```text
//! # north-south intent (comments start with '#')
//! Position(VPN, first)
//! Order(FW, before, LB)
//! Order(Monitor, before, LB)
//! Priority(IPS > FW)
//! ```
//!
//! Keywords are case-insensitive; NF names are case-sensitive identifiers
//! (`[A-Za-z0-9_.-]+`). One rule per line; blank lines and `#` comments are
//! skipped.

use crate::policy::Policy;
use crate::rule::{NfName, PositionAnchor, Rule};

/// A policy-text parse failure, with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending rule.
    line: usize,
    /// What went wrong.
    message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "policy parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a full policy document.
pub fn parse_policy(text: &str) -> Result<Policy, ParseError> {
    let mut rules = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        rules.push(parse_rule(line).map_err(|message| ParseError {
            line: line_no,
            message,
        })?);
    }
    Ok(Policy::from_rules(rules))
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Parse one rule in the paper's syntax.
fn parse_rule(line: &str) -> Result<Rule, String> {
    let (head, rest) = line
        .split_once('(')
        .ok_or_else(|| format!("expected `Keyword(...)`, got `{line}`"))?;
    let body = rest
        .strip_suffix(')')
        .ok_or_else(|| "missing closing `)`".to_string())?;
    match head.trim().to_ascii_lowercase().as_str() {
        "order" => parse_order(body),
        "priority" => parse_priority(body),
        "position" => parse_position(body),
        other => Err(format!("unknown rule keyword `{other}`")),
    }
}

fn ident(s: &str) -> Result<NfName, String> {
    let t = s.trim();
    if t.is_empty() {
        return Err("empty NF name".into());
    }
    if !t
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    {
        return Err(format!("invalid NF name `{t}`"));
    }
    Ok(NfName::new(t))
}

fn parse_order(body: &str) -> Result<Rule, String> {
    let parts: Vec<&str> = body.split(',').collect();
    if parts.len() != 3 {
        return Err("Order needs `Order(NF1, before, NF2)`".into());
    }
    let before_kw = parts[1].trim().to_ascii_lowercase();
    let (first, second) = (ident(parts[0])?, ident(parts[2])?);
    match before_kw.as_str() {
        "before" => Ok(Rule::Order {
            before: first,
            after: second,
        }),
        "after" => Ok(Rule::Order {
            before: second,
            after: first,
        }),
        other => Err(format!("expected `before`/`after`, got `{other}`")),
    }
}

fn parse_priority(body: &str) -> Result<Rule, String> {
    let (high, low) = body
        .split_once('>')
        .ok_or_else(|| "Priority needs `Priority(NF1 > NF2)`".to_string())?;
    if low.contains('>') {
        return Err("Priority takes exactly two NFs".into());
    }
    Ok(Rule::Priority {
        high: ident(high)?,
        low: ident(low)?,
    })
}

fn parse_position(body: &str) -> Result<Rule, String> {
    let (nf, anchor) = body
        .split_once(',')
        .ok_or_else(|| "Position needs `Position(NF, first|last)`".to_string())?;
    let anchor = match anchor.trim().to_ascii_lowercase().as_str() {
        "first" => PositionAnchor::First,
        "last" => PositionAnchor::Last,
        other => return Err(format!("expected `first`/`last`, got `{other}`")),
    };
    Ok(Rule::Position {
        nf: ident(nf)?,
        anchor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_table1_policy() {
        let p =
            parse_policy("Position(VPN, first)\nOrder(FW, before, LB)\nOrder(Monitor, before, LB)")
                .unwrap();
        assert_eq!(p.rules().len(), 3);
        assert_eq!(p.rules()[0], Rule::position("VPN", PositionAnchor::First));
        assert_eq!(p.rules()[1], Rule::order("FW", "LB"));
        assert_eq!(p.rules()[2], Rule::order("Monitor", "LB"));
    }

    #[test]
    fn comments_blanks_and_case() {
        let p = parse_policy(
            "# the east-west chain\n\n  order( IDS , before , Monitor )  # inline\nPRIORITY(IPS > Firewall)\nposition(LB, LAST)",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 3);
        assert_eq!(p.rules()[0], Rule::order("IDS", "Monitor"));
        assert_eq!(p.rules()[1], Rule::priority("IPS", "Firewall"));
        assert_eq!(p.rules()[2], Rule::position("LB", PositionAnchor::Last));
    }

    #[test]
    fn order_after_swaps_operands() {
        assert_eq!(
            parse_rule("Order(LB, after, FW)").unwrap(),
            Rule::order("FW", "LB")
        );
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse_policy("Order(A, before, B)\nOrder(A before B)").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "Order(A, before)",
            "Order(A, sideways, B)",
            "Priority(A < B)",
            "Priority(A > B > C)",
            "Position(A, middle)",
            "Position(A)",
            "Banana(A, B)",
            "Order(A, before, B",
            "Order(, before, B)",
            "Order(A B, before, C)",
        ] {
            assert!(parse_rule(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn names_allow_common_punctuation() {
        assert!(parse_rule("Order(fw-1, before, ids_2.a)").is_ok());
    }
}
