//! The static validation layer's findings on the fault-injection mutants,
//! pinned line by line.
//!
//! `validate_campaign --seed 42 --per-class 5` prints, per mutation class,
//! only whether each mutant has a finding. This test pins what the findings
//! are and the order they come in: an FNV-1a checksum over every finding's
//! `Diagnostic::to_json()` line, mutant by mutant in campaign order, plus the
//! finding count of each class. The degradation ladder reports a unit's
//! *first* finding, so both content and order are observable.

use compiler::faultinj::{CampaignBase, CampaignCfg, MUTATION_CLASSES};
use compiler::serve::{fnv1a, FNV_OFFSET};
use compiler::{validate_unit, Jobs};

/// `(class, mutants, findings)` over the 50 mutants of the campaign.
const PER_CLASS: [(&str, usize, usize); 10] = [
    ("result-corruption", 5, 10),
    ("callee-save-clobber", 5, 10),
    ("external-arg-corruption", 5, 5),
    ("external-call-skip", 5, 5),
    ("stack-frame-leak", 5, 10),
    ("ra-clobber", 5, 10),
    ("global-store-corruption", 5, 5),
    ("constant-drift", 5, 5),
    ("control-flow-inversion", 5, 5),
    ("rtl-constant-drift", 5, 5),
];

/// FNV-1a over every finding's JSON line, newline-terminated, in order.
const FINDINGS_FNV: u64 = 0x32a5_176e_aa7a_182d;

#[test]
fn campaign_mutant_findings_are_pinned() {
    let cfg = CampaignCfg {
        seed: 42,
        per_class: 5,
        jobs: Jobs::N(1),
        ..CampaignCfg::default()
    };
    let base = CampaignBase::prepare(&cfg).expect("campaign workload compiles");
    let mut hash = FNV_OFFSET;
    let mut rows = Vec::new();
    for (ci, class) in MUTATION_CLASSES.iter().enumerate() {
        let mutants = base.class_mutants(&cfg, ci);
        let mut findings = 0;
        for m in &mutants {
            for d in validate_unit(&m.unit, base.symtab()) {
                hash = fnv1a(hash, format!("{}\n", d.to_json()).as_bytes());
                findings += 1;
            }
        }
        rows.push((class.name(), mutants.len(), findings));
    }
    assert_eq!(rows, PER_CLASS, "per-class finding counts");
    assert_eq!(
        hash, FINDINGS_FNV,
        "findings checksum {hash:#018x} differs from the pin"
    );
}
