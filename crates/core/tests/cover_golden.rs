//! Golden plans for the paper's best design (diversity batching, DBSCAN,
//! covering selection at the 8th percentile, b = 8).
//!
//! Each digest pins the full plan `plan_question_batches` returns on one
//! dataset's 3:1:1 split at seed 1: batch memberships, per-batch
//! demonstrations, the labeled set and the covering threshold's bits. A
//! change to the coverage representation or the greedy must leave every
//! digest unchanged; a deliberate change to what the planner selects
//! must re-record them.

use batcher_core::{plan_question_batches, BatchPlanConfig, QuestionBatchPlan, RunConfig};
use datagen::{generate, DatasetKind};
use er_core::EntityPair;

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent lists cannot alias.
    fn list(&mut self, items: &[usize]) {
        self.word(items.len() as u64);
        for &i in items {
            self.word(i as u64);
        }
    }
}

fn digest(plan: &QuestionBatchPlan) -> u64 {
    let mut h = Fnv1a::new();
    h.word(plan.batches.len() as u64);
    for batch in &plan.batches {
        h.list(batch);
    }
    h.word(plan.demos_per_batch.len() as u64);
    for demos in &plan.demos_per_batch {
        h.list(demos);
    }
    h.list(&plan.labeled);
    match plan.threshold {
        Some(t) => {
            h.word(1);
            h.word(t.to_bits());
        }
        None => h.word(0),
    }
    h.0
}

fn best_design_plan(kind: DatasetKind) -> QuestionBatchPlan {
    let config = RunConfig { seed: 1, ..RunConfig::best_design() };
    let dataset = generate(kind, config.seed);
    let split = dataset.split_3_1_1(config.seed).expect("non-empty dataset");
    let questions: Vec<&EntityPair> = split.test.iter().map(|p| &p.pair).collect();
    let config = BatchPlanConfig::from_run_config(&config);
    plan_question_batches(&questions, &split.train, &config)
}

#[test]
fn best_design_plans_match_recorded_digests() {
    let golden = [
        (DatasetKind::Beer, 0xd191_af9e_12ac_2faa_u64),
        (DatasetKind::ItunesAmazon, 0x48a8_424a_80f4_daa0),
        (DatasetKind::AbtBuy, 0xc411_2e62_960c_04f0),
    ];
    for (kind, expect) in golden {
        let plan = best_design_plan(kind);
        assert!(plan.threshold.is_some(), "{kind:?}: covering did not run");
        assert_eq!(
            digest(&plan),
            expect,
            "{kind:?}: best-design plan changed (digest {:#018x})",
            digest(&plan)
        );
    }
}
