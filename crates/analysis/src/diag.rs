//! Structured findings from lints and validators.

use std::fmt;

use compcerto_core::json::escape;

/// One static finding: which pass's output (or which translation) is
/// suspect, where, and which rule fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint family or translation validator that produced the finding
    /// (e.g. `"wf-ltl"`, `"alloc"`, `"linearize"`, `"asmgen"`).
    pub pass: &'static str,
    /// Function the finding is about.
    pub function: String,
    /// CFG node / instruction index, when the finding is localized.
    pub node: Option<u32>,
    /// Stable rule identifier (e.g. `"ltl.successor-missing"`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(
        pass: &'static str,
        function: impl Into<String>,
        node: Option<u32>,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            pass,
            function: function.into(),
            node,
            rule,
            message: message.into(),
        }
    }

    /// Render as a single JSON object (hand-rolled: the workspace is
    /// offline-first and carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let node = match self.node {
            Some(n) => n.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"pass\":\"{}\",\"function\":\"{}\",\"node\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape(self.pass),
            escape(&self.function),
            node,
            escape(self.rule),
            escape(&self.message),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validate[{}] {}", self.pass, self.function)?;
        if let Some(n) = self.node {
            write!(f, "@{n}")?;
        }
        write!(f, ": {}: {}", self.rule, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_json() {
        let d = Diagnostic::new("wf-ltl", "f", Some(3), "ltl.successor-missing", "no node 7");
        assert_eq!(
            d.to_string(),
            "validate[wf-ltl] f@3: ltl.successor-missing: no node 7"
        );
        assert_eq!(
            d.to_json(),
            "{\"pass\":\"wf-ltl\",\"function\":\"f\",\"node\":3,\
             \"rule\":\"ltl.successor-missing\",\"message\":\"no node 7\"}"
        );
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::new("wf-asm", "g\"h\\", None, "r", "line\nbreak");
        let j = d.to_json();
        assert!(j.contains("g\\\"h\\\\"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("\"node\":null"));
    }
}
