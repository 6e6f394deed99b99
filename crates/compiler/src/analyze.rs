//! The `--analyze-json` report: per-function abstract-interpretation facts
//! (DESIGN.md §12) as a deterministic JSON document, schema
//! `compcerto-analysis/1`.
//!
//! The report shows exactly the facts the optimization tier consumed: the
//! forward value analysis solved on the `Vprop` input snapshot and the
//! backward neededness analysis solved on the `Ndce` input snapshot. Every
//! map in the pipeline is a `BTreeMap` and every abstract value renders
//! through its canonical `Display`, so the document is byte-deterministic —
//! a pure function of the compiled units.

use std::fmt::Write as _;

use compcerto_core::json::escape;
use compcerto_core::symtab::SymbolTable;
use rtl::Romem;

use crate::driver::CompiledUnit;

/// The schema identifier of the analysis report.
pub const ANALYSIS_SCHEMA: &str = "compcerto-analysis/1";

/// Render the abstract-interpretation facts of `units` (paired with their
/// file names) as the `compcerto-analysis/1` JSON document.
///
/// Per function: `value` maps each CFG node to the abstract environment
/// *before* the node (registers bound to interval / pointer values), and
/// `needed` maps each node to the needed-*after* environment (registers to
/// bit-level neededness). Registers absent from a `value` environment are
/// `Bot` (unwritten on every path); registers absent from a `needed`
/// environment are dead.
#[must_use]
pub fn analysis_json(files: &[String], units: &[CompiledUnit], symtab: &SymbolTable) -> String {
    let romem = Romem::new(symtab);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"{ANALYSIS_SCHEMA}\",");
    let _ = writeln!(s, "  \"units\": [");
    for (ui, (file, unit)) in files.iter().zip(units).enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"file\": \"{}\",", escape(file));
        let _ = writeln!(s, "      \"functions\": [");
        let value = compcerto_validate::value_facts_program(&unit.rtl_vprop_in, &romem);
        let needed = compcerto_validate::needed_facts_program(&unit.rtl_ndce_in);
        let nfuns = unit.rtl_vprop_in.functions.len();
        for (fi, f) in unit.rtl_vprop_in.functions.iter().enumerate() {
            let _ = writeln!(s, "        {{");
            let _ = writeln!(s, "          \"name\": \"{}\",", escape(&f.name));
            let _ = writeln!(s, "          \"value\": {{");
            if let Some(envs) = value.get(&f.name) {
                let n_envs = envs.len();
                for (ei, (node, env)) in envs.iter().enumerate() {
                    let binds: Vec<String> = env
                        .iter()
                        .map(|(r, v)| format!("\"r{r}\": \"{}\"", escape(&v.to_string())))
                        .collect();
                    let comma = if ei + 1 < n_envs { "," } else { "" };
                    let _ = writeln!(s, "            \"{node}\": {{{}}}{comma}", binds.join(", "));
                }
            }
            let _ = writeln!(s, "          }},");
            let _ = writeln!(s, "          \"needed\": {{");
            if let Some(envs) = needed.get(&f.name) {
                let n_envs = envs.len();
                for (ei, (node, env)) in envs.iter().enumerate() {
                    let binds: Vec<String> = env
                        .iter()
                        .map(|(r, nv)| format!("\"r{r}\": \"{}\"", escape(&nv.to_string())))
                        .collect();
                    let comma = if ei + 1 < n_envs { "," } else { "" };
                    let _ = writeln!(s, "            \"{node}\": {{{}}}{comma}", binds.join(", "));
                }
            }
            let _ = writeln!(s, "          }}");
            let comma = if fi + 1 < nfuns { "," } else { "" };
            let _ = writeln!(s, "        }}{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if ui + 1 < units.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_all, CompilerOptions};

    #[test]
    fn report_is_deterministic_and_schema_tagged() {
        let src = "int f(int a) { int i; int s; s = 0; i = 0; \
                   while (i < 8) { s = s + i; i = i + 1; } return s; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).expect("compiles");
        let files = vec!["f.c".to_string()];
        let a = analysis_json(&files, &units, &tbl);
        let b = analysis_json(&files, &units, &tbl);
        assert_eq!(a, b, "report must be byte-deterministic");
        assert!(a.contains("\"schema\": \"compcerto-analysis/1\""));
        assert!(a.contains("\"value\""));
        assert!(a.contains("\"needed\""));
        // The loop counter is a genuine interval/defined fact somewhere.
        assert!(a.contains("i32"), "expected at least one i32 value fact");
    }

    #[test]
    fn facts_reflect_the_pass_inputs() {
        // With the optimizations off, the snapshots still exist and the
        // report is well-formed (facts solved on the unoptimized RTL).
        let src = "int g(int a) { return a + 1; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::none()).expect("compiles");
        let files = vec!["g.c".to_string()];
        let a = analysis_json(&files, &units, &tbl);
        assert!(a.contains("\"name\": \"g\""));
    }

    #[test]
    fn file_names_escape_as_the_json_reader_expects() {
        // A newline in a file name is written `\n`, as every other emitter
        // writes it, and the report parses back to the same name.
        let src = "int g(int a) { return a + 1; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::none()).expect("compiles");
        let files = vec!["a\nb\t\"c\".c".to_string()];
        let a = analysis_json(&files, &units, &tbl);
        assert!(a.contains("\"file\": \"a\\nb\\t\\\"c\\\".c\","), "{a}");
        let doc = crate::json::parse(&a).expect("the report is JSON");
        let units = doc.get("units").and_then(crate::json::Json::as_arr);
        let file = units.and_then(|u| u.first()).and_then(|u| u.get("file"));
        assert_eq!(
            file.and_then(crate::json::Json::as_str),
            Some(files[0].as_str())
        );
    }
}
