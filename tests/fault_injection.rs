//! Fault injection: the value of a translation-validation harness is its
//! *sensitivity*. These tests mutate compiled programs in targeted ways —
//! each mutation violating a specific clause of the calling convention `C` —
//! and assert the Theorem 3.8 checker rejects the mutant with the right
//! class of error.
//!
//! The hand-written mutations below are the seed of the
//! `compiler::faultinj` subsystem, which generalizes them into seeded
//! operators; the tests at the bottom drive the subsystem itself.

use compcerto::backend::AsmInst;
use compcerto::compiler::faultinj::{mutate, run_campaign, CampaignCfg, CAMPAIGN_SRC};
use compcerto::compiler::{
    c_query, check_thm38, compile_all, CompiledUnit, CompilerOptions, ExtLib, MUTATION_CLASSES,
};
use compcerto::core::regs::Mreg;
use compcerto::core::rng::SplitMix64;
use compcerto::core::sim::SimCheckError;
use compcerto::mem::Val;
use compcerto::minor::MBinop;

const SRC: &str = "
    extern int inc(int);
    int helper(int x) { return x * 3; }
    int entry(int a) {
        int b; int c;
        b = helper(a + 1);
        c = inc(b);
        return b + c;
    }";

fn compile() -> (CompiledUnit, compcerto::core::symtab::SymbolTable, ExtLib) {
    let (mut units, tbl) = compile_all(&[SRC], CompilerOptions::default()).unwrap();
    let lib = ExtLib::demo(tbl.clone());
    (units.remove(0), tbl, lib)
}

fn check(unit: &CompiledUnit) -> Result<(), SimCheckError> {
    let (_, tbl, lib) = compile();
    let q = c_query(&tbl, unit, "entry", vec![Val::Int(5)]);
    check_thm38(unit, &tbl, &lib, &q).map(|_| ())
}

/// Apply `mutate` to the Asm code of `fname` in a fresh compilation.
fn mutate_asm(fname: &str, mutate: impl Fn(&mut Vec<AsmInst>)) -> CompiledUnit {
    let (mut unit, _, _) = compile();
    let f = unit
        .asm
        .functions
        .iter_mut()
        .find(|f| f.name == fname)
        .expect("function exists");
    mutate(&mut f.code);
    unit
}

#[test]
fn baseline_passes() {
    let (unit, _, _) = compile();
    check(&unit).expect("unmutated program satisfies Thm 3.8");
}

#[test]
fn detects_wrong_result() {
    // Corrupt the computed result: an extra increment before returning.
    let unit = mutate_asm("entry", |code| {
        let ret = code
            .iter()
            .rposition(|i| matches!(i, AsmInst::Ret))
            .unwrap();
        code.insert(
            ret,
            AsmInst::BinopImm(MBinop::Add32, Mreg(0), Mreg(0), Val::Int(1)),
        );
    });
    let err = check(&unit).unwrap_err();
    assert!(matches!(err, SimCheckError::FinalNotRelated), "got {err}");
}

#[test]
fn detects_clobbered_callee_save() {
    // Write a callee-save register without saving it.
    let unit = mutate_asm("entry", |code| {
        let ret = code
            .iter()
            .rposition(|i| matches!(i, AsmInst::Ret))
            .unwrap();
        code.insert(ret, AsmInst::MovImm64(Mreg(13), 0xDEAD));
    });
    let err = check(&unit).unwrap_err();
    assert!(matches!(err, SimCheckError::FinalNotRelated), "got {err}");
}

#[test]
fn detects_wrong_external_argument() {
    // Corrupt the argument register right before the external call.
    let unit = mutate_asm("entry", |code| {
        let call = code
            .iter()
            .position(|i| matches!(i, AsmInst::Call(f) if f == "inc"))
            .expect("external call present");
        code.insert(
            call,
            AsmInst::BinopImm(MBinop::Add32, Mreg(0), Mreg(0), Val::Int(7)),
        );
    });
    let err = check(&unit).unwrap_err();
    // The mismatch surfaces at the external boundary (Fig. 6c edge) — the
    // external questions are no longer CA-related.
    assert!(
        matches!(err, SimCheckError::ExternalNotRelated { .. }),
        "got {err}"
    );
}

#[test]
fn detects_skipped_external_call() {
    // Remove the external call entirely: interaction structures diverge.
    let unit = mutate_asm("entry", |code| {
        let call = code
            .iter()
            .position(|i| matches!(i, AsmInst::Call(f) if f == "inc"))
            .unwrap();
        code[call] = AsmInst::MovImm32(Mreg(0), 99);
    });
    let err = check(&unit).unwrap_err();
    assert!(
        matches!(
            err,
            SimCheckError::InteractionMismatch { .. } | SimCheckError::FinalNotRelated
        ),
        "got {err}"
    );
}

#[test]
fn detects_unrestored_stack_pointer() {
    // Skip FreeFrame: sp comes back pointing at the (leaked) frame.
    let unit = mutate_asm("entry", |code| {
        let ff = code
            .iter()
            .rposition(|i| matches!(i, AsmInst::FreeFrame(_)))
            .unwrap();
        code[ff] = AsmInst::AddSp(0);
    });
    let err = check(&unit).unwrap_err();
    // Without FreeFrame, `ra` is fine (restored earlier) but `sp` differs
    // and the frame block is still allocated.
    assert!(
        matches!(
            err,
            SimCheckError::FinalNotRelated | SimCheckError::Wrong { .. }
        ),
        "got {err}"
    );
}

#[test]
fn detects_memory_corruption() {
    // Scribble over a global variable through a mutated store.
    let src_with_global = "
        int shared = 11;
        int entry(int a) {
            shared = shared + a;
            return shared;
        }";
    let (mut units, tbl) = compile_all(&[src_with_global], CompilerOptions::default()).unwrap();
    let lib = ExtLib::demo(tbl.clone());
    let unit = &mut units[0];
    // Make the compiled store write a different value: find the Store to the
    // global and add a corruption just before it.
    let f = unit
        .asm
        .functions
        .iter_mut()
        .find(|f| f.name == "entry")
        .unwrap();
    let store = f
        .code
        .iter()
        .position(|i| matches!(i, AsmInst::Store(_, _, _, _)))
        .expect("store to the global present");
    let corrupt = match &f.code[store] {
        AsmInst::Store(_, src, _, _) => AsmInst::BinopImm(MBinop::Add32, *src, *src, Val::Int(100)),
        _ => unreachable!(),
    };
    f.code.insert(store, corrupt);
    let q = c_query(&tbl, &units[0], "entry", vec![Val::Int(1)]);
    let err = check_thm38(&units[0], &tbl, &lib, &q).unwrap_err();
    // Either the result or the global's memory image betrays the corruption.
    assert!(matches!(err, SimCheckError::FinalNotRelated), "got {err}");
}

#[test]
fn detects_source_level_miscompilation_pattern() {
    // Simulate a "wrong constant" bug by patching an immediate. (`helper`
    // is inlined into `entry`, so the live copy of the multiply is there.)
    let unit = mutate_asm("entry", |code| {
        for inst in code.iter_mut() {
            if let AsmInst::BinopImm(MBinop::Mul32, d, s, Val::Int(3)) = inst {
                *inst = AsmInst::BinopImm(MBinop::Mul32, *d, *s, Val::Int(4));
                return;
            }
        }
        panic!("expected a mul-immediate in helper:\n{code:?}");
    });
    let err = check(&unit).unwrap_err();
    assert!(
        matches!(
            err,
            SimCheckError::ExternalNotRelated { .. } | SimCheckError::FinalNotRelated
        ),
        "got {err}"
    );
}

// ---------------------------------------------------------------------------
// The promoted subsystem: seeded operators + campaign runner.
// ---------------------------------------------------------------------------

#[test]
fn subsystem_operators_detected_with_expected_error() {
    // Every mutation class, applied with two different seeds to the campaign
    // workload, is rejected by the checker with the error class keyed to the
    // violated convention clause.
    let (mut units, tbl) =
        compile_all(&[CAMPAIGN_SRC], CompilerOptions::default()).expect("campaign src compiles");
    let baseline = units.remove(0);
    let lib = ExtLib::demo(tbl.clone());
    for &class in &MUTATION_CLASSES {
        for seed in [1u64, 2] {
            let mut rng = SplitMix64::new(seed);
            let m = mutate(&baseline, "entry", class, &mut rng)
                .unwrap_or_else(|| panic!("{class}: no applicable site"));
            // Probe a few arguments; at least one must expose the fault.
            let err = [0, 3, 7].iter().find_map(|&x| {
                let q = c_query(&tbl, &m.unit, "entry", vec![Val::Int(x)]);
                check_thm38(&m.unit, &tbl, &lib, &q).err()
            });
            let err =
                err.unwrap_or_else(|| panic!("{class} (seed {seed}) escaped: {}", m.mutation.desc));
            assert!(
                class.matches_expected(&err),
                "{class} (seed {seed}): unexpected error {err} for {}",
                m.mutation.desc
            );
        }
    }
}

#[test]
fn subsystem_campaign_is_deterministic_and_escape_free() {
    let cfg = CampaignCfg {
        seed: 42,
        per_class: 2,
        fuel: 200_000,
        probe_args: vec![0, 3, 7],
        ..CampaignCfg::default()
    };
    let r1 = run_campaign(&cfg).expect("campaign runs");
    let r2 = run_campaign(&cfg).expect("campaign runs");
    assert_eq!(
        r1.to_string(),
        r2.to_string(),
        "campaign must be seed-deterministic"
    );
    assert_eq!(r1.total_escapes(), 0, "silent escapes:\n{r1}");
    assert!(r1.stats.len() >= 8, "fewer than 8 mutation classes");
    for s in &r1.stats {
        assert_eq!(
            s.generated, cfg.per_class,
            "{}: generation shortfall",
            s.class
        );
        assert_eq!(
            s.expected_class, s.detected,
            "{}: unexpected classes {:?}",
            s.class, s.errors
        );
    }
}
