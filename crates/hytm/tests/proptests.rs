//! Randomized tests for the NOrec baseline: differential
//! equivalence against a sequential model, for arbitrary transaction
//! programs. Driven by a seeded [`SplitMix64`] stream (dependency-free
//! stand-in for a property-testing harness; failures reproduce from the
//! fixed seeds).

use rtle_htm::prng::SplitMix64;
use rtle_htm::TxCell;
use rtle_hytm::Norec;

/// A tiny straight-line transactional program over `N` cells.
#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    /// `cells[dst] = cells[src] + k`
    AddInto {
        src: usize,
        dst: usize,
        k: u64,
    },
    Write {
        dst: usize,
        v: u64,
    },
}

fn gen_step(rng: &mut SplitMix64, n: u64) -> Step {
    match rng.below(3) {
        0 => Step::Read(rng.below(n) as usize),
        1 => Step::AddInto {
            src: rng.below(n) as usize,
            dst: rng.below(n) as usize,
            k: rng.below(100),
        },
        _ => Step::Write {
            dst: rng.below(n) as usize,
            v: rng.below(1000),
        },
    }
}

fn gen_prog(rng: &mut SplitMix64, n: u64, max_len: u64) -> Vec<Step> {
    (0..rng.below(max_len)).map(|_| gen_step(rng, n)).collect()
}

fn apply_model(model: &mut [u64], prog: &[Step]) {
    for s in prog {
        match s {
            Step::Read(_) => {}
            Step::AddInto { src, dst, k } => model[*dst] = model[*src] + k,
            Step::Write { dst, v } => model[*dst] = *v,
        }
    }
}

fn apply_tm<A: rtle_htm::TxAccess + ?Sized>(a: &A, cells: &[TxCell<u64>], prog: &[Step]) {
    for s in prog {
        match s {
            Step::Read(i) => {
                let _ = a.load(&cells[*i]);
            }
            Step::AddInto { src, dst, k } => {
                let v = a.load(&cells[*src]) + k;
                a.store(&cells[*dst], v);
            }
            Step::Write { dst, v } => a.store(&cells[*dst], *v),
        }
    }
}

/// Sequential NOrec execution of arbitrary transaction programs equals
/// the direct sequential model.
#[test]
fn norec_matches_model() {
    let mut rng = SplitMix64::new(0x51e9_4001);
    for _case in 0..96 {
        let tm = Norec::new();
        let cells: Vec<TxCell<u64>> = (0..6).map(|_| TxCell::new(0)).collect();
        let mut model = vec![0u64; 6];
        for _ in 0..rng.below(12) {
            let prog = gen_prog(&mut rng, 6, 12);
            tm.execute(|ctx| apply_tm(ctx, &cells, &prog));
            apply_model(&mut model, &prog);
        }
        for (c, m) in cells.iter().zip(&model) {
            assert_eq!(c.read_plain(), *m);
        }
    }
}
