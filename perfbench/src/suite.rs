//! The paper-suite workload: one op is one pass of every experiment of
//! `all_experiments(Scope::Full)`, in a seeded order. Each experiment is
//! timed with its own adjacent reference, and the pass's op time is the sum
//! of those normalized times: one reference per multi-second pass would not
//! track drift inside it.

use layered_bench::{
    bivalence_profile, census, cert_store, covering_sanity, diameter, early_stopping, iis,
    lemma_3_1, lemma_3_6, lemma_6_4, lemma_7_1, lemma_7_4, lemmas_6_1_6_2, lower_bound,
    message_passing, mobile, shared_memory, task_solvability, theorem_4_2, Experiment, Scope,
};

use crate::measure::{adjacent, time, Sampler, SplitMix64};
use crate::run::{LayerValues, Timed, Workload};
use crate::trace::Tracer;

type Run = fn(Scope) -> Experiment;

/// Every experiment of `all_experiments`, in paper order: its id, the name
/// of its per-layer metric, and the function that runs it.
pub const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("E-3.1", "suite.E-3.1_ref", lemma_3_1),
    ("E-3.6", "suite.E-3.6_ref", lemma_3_6),
    ("E-4.2", "suite.E-4.2_ref", theorem_4_2),
    ("E-census", "suite.E-census_ref", census),
    ("E-5.2", "suite.E-5.2_ref", mobile),
    ("E-5.4", "suite.E-5.4_ref", shared_memory),
    ("E-5.per", "suite.E-5.per_ref", message_passing),
    ("E-iis", "suite.E-iis_ref", iis),
    ("E-6.3", "suite.E-6.3_ref", lower_bound),
    ("E-6.1", "suite.E-6.1_ref", lemmas_6_1_6_2),
    ("E-6.4", "suite.E-6.4_ref", lemma_6_4),
    ("E-early", "suite.E-early_ref", early_stopping),
    ("E-7.3", "suite.E-7.3_ref", task_solvability),
    ("E-7.1", "suite.E-7.1_ref", lemma_7_1),
    ("E-7.4", "suite.E-7.4_ref", lemma_7_4),
    ("E-profile", "suite.E-profile_ref", bivalence_profile),
    ("E-7.cov", "suite.E-7.cov_ref", covering_sanity),
    ("E-7.6", "suite.E-7.6_ref", diameter),
    ("E-cert", "suite.E-cert_ref", cert_store),
];

/// Checks that an experiment is the one expected and reproduced its claim.
///
/// # Errors
///
/// A mismatched id or a claim that did not hold.
pub fn check(id: &str, exp: &Experiment) -> Result<(), String> {
    if exp.id != id {
        return Err(format!("expected experiment {id}, ran {}", exp.id));
    }
    if !exp.ok {
        return Err(format!("{id} did not reproduce its claim"));
    }
    Ok(())
}

/// The paper-suite workload (see the module docs).
pub struct SuiteWorkload {
    order: Vec<usize>,
    rng: SplitMix64,
}

impl SuiteWorkload {
    /// A suite whose experiment order is drawn from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SuiteWorkload {
            order: (0..EXPERIMENTS.len()).collect(),
            rng: SplitMix64::new(seed),
        }
    }
}

impl Workload for SuiteWorkload {
    fn op(&mut self, s: &mut Sampler) -> Result<Timed, String> {
        self.rng.shuffle(&mut self.order);
        let mut pass = Timed::default();
        for &i in &self.order {
            let (id, _, run) = EXPERIMENTS[i];
            let (exp, ns, r) = s.paired(|| run(Scope::Full));
            check(id, &exp)?;
            pass.ns += ns;
            pass.ref_units += ns as f64 / r;
        }
        Ok(pass)
    }

    fn traced_op(
        &mut self,
        s: &mut Sampler,
        t: &mut Tracer,
        op: u64,
    ) -> Result<(Timed, LayerValues), String> {
        self.rng.shuffle(&mut self.order);
        let order = &self.order;
        let mut pass = Timed::default();
        let mut values = Vec::with_capacity(EXPERIMENTS.len() + 1);
        let (res, root) = t.root("op", op, |t| {
            for &i in order {
                let (id, metric, run) = EXPERIMENTS[i];
                let before = s.last_ref();
                let (exp, ns) = t.span(id, |_| time(|| run(Scope::Full)));
                let after = t.span("ref", |_| s.run_ref());
                check(id, &exp)?;
                let units = ns as f64 / adjacent(before, after);
                values.push((metric, units));
                pass.ns += ns;
                pass.ref_units += units;
            }
            Ok::<(), String>(())
        });
        res?;
        t.set_root_ref(root, pass.ns as f64 / pass.ref_units);
        values.push(("trace.unattributed_frac", t.unattributed_frac(root)));
        Ok((pass, values))
    }
}
