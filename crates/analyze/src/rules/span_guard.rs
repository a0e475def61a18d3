//! Rule `span-guard`: a span guard must be *bound*, never dropped on
//! the line that created it.
//!
//! The trace layer's RAII guards ([`pieri_trace::SpanGuard`], and the
//! tracker's shim that returns it) measure the scope they live in.
//! Calling a guard-returning function in statement position —
//! `span_for("admit", "http", id);` or `let _ = phase_span("retrack");`
//! — drops the guard immediately, recording a zero-length span that
//! *looks* like instrumentation but measures nothing. That bug is
//! invisible at the call site and compiles clean, so it is caught here
//! instead.
//!
//! A call is considered guard-returning when the callee's final path
//! segment is `span`, `span_for`, or ends in `_span` — the repo's
//! naming convention for guard constructors (`deep_span`,
//! `phase_span`, `step_span`). Closed-span recorders deliberately avoid
//! the suffix (`span_closed`, `event`) and are not matched. Test code
//! is exempt.

use crate::model::SourceFile;
use crate::rules::{Finding, Rule};

/// Whether `ident` names a guard-returning constructor per the repo's
/// naming convention.
fn guard_callee(ident: &str) -> bool {
    ident == "span" || ident == "span_for" || ident.ends_with("_span")
}

/// Whether this line's code calls a guard-returning function.
fn calls_guard(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        let mut start = i;
        while start > 0 {
            let c = bytes[start - 1];
            if c.is_ascii_alphanumeric() || c == b'_' {
                start -= 1;
            } else {
                break;
            }
        }
        if start < i && guard_callee(&code[start..i]) {
            return true;
        }
    }
    false
}

/// Whether the statement properly binds its value: `let <name> = …`
/// with a real pattern (`_span`, a tuple, …). A wildcard `let _ =`
/// drops the guard just like a bare statement and does not count.
fn binds_value(trimmed: &str) -> bool {
    let Some(rest) = trimmed.strip_prefix("let ") else {
        return false;
    };
    let pattern: String = rest
        .chars()
        .take_while(|c| !c.is_whitespace() && *c != ':' && *c != '=')
        .collect();
    !pattern.is_empty() && pattern != "_"
}

/// See module docs.
pub struct SpanGuardBound;

impl Rule for SpanGuardBound {
    fn name(&self) -> &'static str {
        "span-guard"
    }

    fn description(&self) -> &'static str {
        "span guards must be bound (`let _span = …`), never dropped on the creating line"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        for (line_no, info) in file.iter_lines() {
            if file.is_test_code(line_no) {
                continue;
            }
            // Declarations and signatures mention the constructors
            // without calling them.
            if info.code.contains("fn ") {
                continue;
            }
            let trimmed = info.code.trim();
            if !trimmed.ends_with(';') || !calls_guard(trimmed) {
                continue;
            }
            if binds_value(trimmed) {
                continue;
            }
            findings.push(Finding {
                rule: self.name(),
                rel_path: file.rel_path.clone(),
                line: line_no,
                message: "span guard dropped on its creating line — bind it \
                          (`let _span = …`) so the span covers its scope"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        SpanGuardBound.check(
            &SourceFile::from_source("crates/x/src/work.rs", src),
            &mut out,
        );
        out
    }

    #[test]
    fn statement_position_guard_fires() {
        assert_eq!(
            run("fn f(id: u64) {\n    request_span(\"parse\", id);\n}\n").len(),
            1
        );
        assert_eq!(
            run("fn f() {\n    pieri_trace::span(\"track\", \"engine\");\n}\n").len(),
            1
        );
        assert_eq!(
            run("fn f() {\n    span_for(\"t\", \"c\", 1);\n}\n").len(),
            1
        );
    }

    #[test]
    fn wildcard_let_still_fires() {
        assert_eq!(
            run("fn f(id: u64) {\n    let _ = job_span(id);\n}\n").len(),
            1
        );
    }

    #[test]
    fn bound_guard_is_clean() {
        assert!(
            run("fn f(id: u64) {\n    let _span = request_span(\"parse\", id);\n}\n").is_empty()
        );
        assert!(
            run("fn f(id: u64) {\n    let guard = phase_span(\"predict\");\n    guard\n}\n")
                .is_empty()
        );
    }

    #[test]
    fn closed_span_recorders_are_not_guards() {
        assert!(
            run("fn f(id: u64) {\n    span_closed(\"queue.wait\", \"engine\", id, 5);\n}\n")
                .is_empty()
        );
        assert!(run("fn f(id: u64) {\n    note_queue_wait(id, wait);\n}\n").is_empty());
    }

    #[test]
    fn tail_expressions_and_struct_fields_are_clean() {
        // A returned guard is the caller's problem to bind.
        assert!(run("fn f(id: u64) -> G {\n    span_for(\"t\", \"c\", id)\n}\n").is_empty());
        assert!(run(
            "fn f(id: u64) -> S {\n    S {\n        g: span_for(\"t\", \"c\", id),\n    }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(run(
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        request_span(\"x\", 1);\n    }\n}\n"
        )
        .is_empty());
    }
}
