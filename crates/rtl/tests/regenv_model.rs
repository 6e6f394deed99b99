//! Model-based checking of the copy-on-write register environment `RegEnv`
//! against a `BTreeMap` reference model, for both abstract domains stored
//! in it: the interval domain `VaVal` (whose join sends a one-sided binding
//! to `Top`, and which widens) and the constant domain `AVal` (a flat join
//! with `Bot` as identity).
//!
//! Seeded SplitMix64 scripts of `set` / `get` / `join_in_place` / `widen` /
//! `iter` / `==` / `clone` run on a handful of environments at once; after
//! every step *every* environment must agree with its model on every probe
//! and iterate the model's bindings in ascending order, a join must report
//! exactly the model's changed-flag (the worklist solvers' termination
//! depends on it), and two environments compare equal exactly when their
//! models are equal — however many trailing `Bot` slots or chunks either
//! carries. Clones, joins and widenings leave environments sharing chunks,
//! so a write through one environment that shows through another fails the
//! check of the environment the step did not touch.

use std::collections::{BTreeMap, BTreeSet};

use compcerto_core::rng::SplitMix64;
use mem::Val;
use rtl::{AVal, AbsVal, Itv, JoinSemiLattice, PReg, RegEnv, VaVal};

/// The reference model: only the non-`Bot` bindings.
type Model<V> = BTreeMap<PReg, V>;

fn mget<V: AbsVal>(m: &Model<V>, r: PReg) -> &V {
    m.get(&r).unwrap_or(V::BOT)
}

fn mset<V: AbsVal>(m: &mut Model<V>, r: PReg, v: V) {
    if v == *V::BOT {
        m.remove(&r);
    } else {
        m.insert(r, v);
    }
}

fn model_join<V: AbsVal>(a: &mut Model<V>, b: &Model<V>) -> bool {
    let before = a.clone();
    let keys: BTreeSet<PReg> = before.keys().chain(b.keys()).copied().collect();
    for r in keys {
        mset(a, r, mget(&before, r).join(mget(b, r)));
    }
    *a != before
}

/// `old.widen(next)` on one value and on a whole environment.
type Widen<V> = (fn(&V, &V) -> V, fn(&RegEnv<V>, &RegEnv<V>) -> RegEnv<V>);

/// One abstract domain under test.
struct Domain<V: AbsVal> {
    /// Values the scripts draw from (`Bot` included, and drawn often).
    pool: Vec<V>,
    /// The widening, for domains that widen.
    widen: Option<Widen<V>>,
}

fn va_domain() -> Domain<VaVal> {
    Domain {
        pool: vec![
            VaVal::Bot,
            VaVal::Bot,
            VaVal::int(0),
            VaVal::int(5),
            VaVal::I32(Itv::range(-3, 9)),
            VaVal::I32(Itv::range(0, 100)),
            VaVal::long(7),
            VaVal::I64(Itv::range(-1, 1)),
            VaVal::Global("buf".into(), 0),
            VaVal::Global("buf".into(), 8),
            VaVal::Global("acc".into(), 0),
            VaVal::Stack(16),
            VaVal::Top,
        ],
        widen: Some((|old, next| old.widen(next), |old, next| old.widen(next))),
    }
}

fn const_domain() -> Domain<AVal> {
    Domain {
        pool: vec![
            AVal::Bot,
            AVal::Bot,
            AVal::Const(Val::Int(1)),
            AVal::Const(Val::Int(2)),
            AVal::Const(Val::Long(3)),
            AVal::Global("g".into(), 0),
            AVal::Global("h".into(), 4),
            AVal::Stack(8),
            AVal::Top,
        ],
        widen: None,
    }
}

/// A register: mostly small (dense), sometimes far past every current end.
fn reg(rng: &mut SplitMix64) -> PReg {
    if rng.below(8) == 0 {
        rng.range_usize(40, 300) as PReg
    } else {
        rng.below(40) as PReg
    }
}

/// Check one environment against its model: every probe, and the full
/// ascending binding list.
fn agree<V: AbsVal + std::fmt::Debug>(env: &RegEnv<V>, model: &Model<V>, ctx: &str) {
    let got: Vec<(PReg, &V)> = env.iter().collect();
    let want: Vec<(PReg, &V)> = model.iter().map(|(r, v)| (*r, v)).collect();
    assert_eq!(got, want, "{ctx}: bindings differ from the model");
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "{ctx}: iter() must be strictly ascending"
    );
    for r in 0..320 {
        assert_eq!(env.get(r), mget(model, r), "{ctx}: get(r{r})");
    }
}

/// Run `scripts` seeded scripts of `steps` random operations each over four
/// environments of `dom`.
fn run_scripts<V: AbsVal + std::fmt::Debug>(dom: &Domain<V>, seed_base: u64, scripts: u64) {
    const ENVS: usize = 4;
    for seed in seed_base..seed_base + scripts {
        let mut rng = SplitMix64::new(seed);
        let mut envs: Vec<RegEnv<V>> = vec![RegEnv::default(); ENVS];
        let mut models: Vec<Model<V>> = vec![Model::new(); ENVS];
        for step in 0..160 {
            let i = rng.range_usize(0, ENVS);
            let j = rng.range_usize(0, ENVS);
            let ctx = format!("seed {seed} step {step}");
            match rng.below(10) {
                0..=4 => {
                    let r = reg(&mut rng);
                    let v = rng
                        .pick(&dom.pool)
                        .cloned()
                        .unwrap_or_else(|| V::BOT.clone());
                    envs[i].set(r, v.clone());
                    mset(&mut models[i], r, v);
                }
                5 | 6 => {
                    let other = envs[j].clone();
                    let changed = envs[i].join_in_place(&other);
                    let other_model = models[j].clone();
                    let want = model_join(&mut models[i], &other_model);
                    assert_eq!(changed, want, "{ctx}: join changed-flag");
                    // The by-value join agrees with the in-place one.
                    assert_eq!(envs[i], envs[i].join(&other), "{ctx}: join idempotence");
                }
                7 => {
                    if let Some((widen_val, widen_env)) = dom.widen {
                        let next = envs[j].clone();
                        envs[i] = widen_env(&envs[i], &next);
                        let mut out = models[j].clone();
                        for (r, old) in &models[i] {
                            mset(&mut out, *r, widen_val(old, mget(&models[j], *r)));
                        }
                        models[i] = out;
                    }
                }
                8 => {
                    // Copy, so equal environments actually occur.
                    envs[i] = envs[j].clone();
                    models[i] = models[j].clone();
                }
                _ => {
                    // Erase a binding (possibly the last one: the slot
                    // becomes a trailing `Bot`).
                    let r = models[i]
                        .keys()
                        .last()
                        .copied()
                        .unwrap_or_else(|| reg(&mut rng));
                    envs[i].set(r, V::BOT.clone());
                    models[i].remove(&r);
                }
            }
            for k in 0..ENVS {
                agree(&envs[k], &models[k], &format!("{ctx} env {k}"));
            }
            for a in 0..ENVS {
                for b in 0..ENVS {
                    assert_eq!(
                        envs[a] == envs[b],
                        models[a] == models[b],
                        "{ctx}: env {a} == env {b} must match the models"
                    );
                }
            }
        }
    }
}

#[test]
fn interval_env_agrees_with_btreemap_model() {
    run_scripts(&va_domain(), 0, 48);
}

#[test]
fn constant_env_agrees_with_btreemap_model() {
    run_scripts(&const_domain(), 1_000, 48);
}

#[test]
fn interval_join_sends_one_sided_bindings_to_top() {
    let mut a = RegEnv::default();
    a.set(1, VaVal::int(4));
    a.set(30, VaVal::Global("buf".into(), 8));
    let mut b = RegEnv::default();
    b.set(1, VaVal::int(6));
    b.set(2, VaVal::Stack(0));
    assert!(a.join_in_place(&b));
    assert_eq!(*a.get(1), VaVal::I32(Itv::range(4, 6)));
    // Bound on one side only: `Bot` (= Undef) ⊔ defined = Top, both ways.
    assert_eq!(*a.get(2), VaVal::Top);
    assert_eq!(*a.get(30), VaVal::Top);
    assert_eq!(*a.get(3), VaVal::Bot);
}

#[test]
fn constant_join_is_flat_with_bot_as_identity() {
    let mut a = RegEnv::default();
    a.set(1, AVal::Const(Val::Int(1)));
    a.set(30, AVal::Global("g".into(), 0));
    let mut b = RegEnv::default();
    b.set(1, AVal::Const(Val::Int(2)));
    b.set(2, AVal::Stack(8));
    assert!(a.join_in_place(&b));
    assert_eq!(*a.get(1), AVal::Top);
    // One-sided bindings survive: `Bot` is the identity of the flat join.
    assert_eq!(*a.get(2), AVal::Stack(8));
    assert_eq!(*a.get(30), AVal::Global("g".into(), 0));
    // Joining again changes nothing.
    assert!(!a.join_in_place(&b));
}

#[test]
fn trailing_bots_do_not_affect_equality() {
    let mut short: RegEnv<VaVal> = RegEnv::default();
    short.set(2, VaVal::int(1));
    let mut long = short.clone();
    long.set(200, VaVal::Top);
    assert_ne!(short, long);
    long.set(200, VaVal::Bot);
    assert_eq!(short, long);
    assert_eq!(long, short);
    // Joining in an environment that is longer only by `Bot`s changes
    // nothing either.
    assert!(!short.join_in_place(&long));
    assert_eq!(RegEnv::<AVal>::default(), {
        let mut e = RegEnv::default();
        e.set(7, AVal::Top);
        e.set(7, AVal::Bot);
        e
    });
}

#[test]
fn setting_bot_erases_the_binding() {
    let mut e: RegEnv<VaVal> = RegEnv::default();
    e.set(3, VaVal::long(9));
    e.set(5, VaVal::Top);
    e.set(3, VaVal::Bot);
    assert_eq!(*e.get(3), VaVal::Bot);
    assert_eq!(e.iter().map(|(r, _)| r).collect::<Vec<_>>(), vec![5]);
    // Binding `Bot` far past the end is a no-op, not a growth.
    e.set(1_000, VaVal::Bot);
    assert_eq!(e.iter().count(), 1);
}

#[test]
fn iteration_is_ascending_whatever_the_insertion_order() {
    let mut e: RegEnv<AVal> = RegEnv::default();
    for r in [9, 0, 41, 3, 17] {
        e.set(r, AVal::Const(Val::Int(r as i32)));
    }
    let regs: Vec<PReg> = e.iter().map(|(r, _)| r).collect();
    assert_eq!(regs, vec![0, 3, 9, 17, 41]);
}

/// Registers on both sides of the chunk boundaries at 8, 16, 32 and 64,
/// which every power-of-two chunk width from 8 to 32 has, and one far past
/// them.
const EDGE_REGS: [PReg; 10] = [0, 7, 8, 15, 16, 31, 32, 63, 64, 300];

fn bindings(e: &RegEnv<VaVal>) -> Vec<(PReg, VaVal)> {
    e.iter().map(|(r, v)| (r, v.clone())).collect()
}

#[test]
fn writes_through_a_clone_never_show_through_the_other() {
    let mut base: RegEnv<VaVal> = RegEnv::default();
    for (k, r) in EDGE_REGS.iter().enumerate() {
        base.set(*r, VaVal::int(k as i32));
    }
    let want = bindings(&base);
    // Every register grows: an interval against the point binding.
    let mut wider: RegEnv<VaVal> = RegEnv::default();
    for r in EDGE_REGS {
        wider.set(r, VaVal::I32(Itv::range(-1, 10)));
    }
    type Mutation = fn(&mut RegEnv<VaVal>, &RegEnv<VaVal>);
    let mutations: [(&str, Mutation); 4] = [
        ("set", |e, _| {
            for r in EDGE_REGS {
                e.set(r, VaVal::Top);
            }
        }),
        ("set(Bot)", |e, _| {
            for r in EDGE_REGS {
                e.set(r, VaVal::Bot);
            }
        }),
        ("join_in_place", |e, wider| {
            assert!(e.join_in_place(wider));
        }),
        ("widen", |e, wider| {
            *e = e.widen(&e.join(wider));
        }),
    ];
    for (name, mutate) in mutations {
        for side in ["original", "clone"] {
            let mut a = base.clone();
            let mut b = a.clone();
            let (written, kept) = if side == "original" {
                (&mut a, &b)
            } else {
                (&mut b, &a)
            };
            mutate(written, &wider);
            assert_ne!(
                bindings(written),
                want,
                "{name} on the {side} wrote nothing"
            );
            assert_eq!(bindings(kept), want, "{name} on the {side} leaked");
            assert_eq!(
                bindings(&base),
                want,
                "{name} on the {side} leaked into the base"
            );
            for (k, r) in EDGE_REGS.iter().enumerate() {
                assert_eq!(*kept.get(*r), VaVal::int(k as i32), "{name}: r{r}");
            }
        }
    }
    // Erasing the far binding leaves a trailing chunk of `Bot`s behind, and
    // binding then erasing further out a longer run of them: neither counts.
    let mut trimmed = base.clone();
    trimmed.set(300, VaVal::Bot);
    trimmed.set(1_000, VaVal::Top);
    trimmed.set(1_000, VaVal::Bot);
    let mut fresh: RegEnv<VaVal> = RegEnv::default();
    for (k, r) in EDGE_REGS[..EDGE_REGS.len() - 1].iter().enumerate() {
        fresh.set(*r, VaVal::int(k as i32));
    }
    assert_eq!(trimmed, fresh);
    assert_eq!(fresh, trimmed);
    assert_ne!(trimmed, base);
    assert_eq!(bindings(&base), want);
}
