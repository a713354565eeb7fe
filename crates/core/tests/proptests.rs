//! Property-based tests for the BatchER framework invariants: batching
//! partitions, cover correctness (the bit-matrix greedy against the
//! list-based one it replaced), and selection plan sanity.

use batcher_core::batching::make_batches;
use batcher_core::selection::{select_demonstrations, SelectionParams};
use batcher_core::{
    greedy_unit_cover, greedy_weighted_cover, BatchingStrategy, BitMatrix, ClusteringKind,
    DistanceKind, FeatureSpace, SelectionStrategy,
};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 1..max)
}

/// Oracle: the list-based unit-weight greedy the bit-matrix
/// [`greedy_unit_cover`] replaced, verbatim — gains maintained
/// decrementally through an inverted CSR (element → candidates) index.
fn csr_greedy_unit_cover(n_elements: usize, coverage: &[Vec<u32>]) -> Vec<usize> {
    // Inverted CSR index, as in the weighted variant.
    let mut offsets = vec![0usize; n_elements + 1];
    for c in coverage {
        for &e in c {
            offsets[e as usize + 1] += 1;
        }
    }
    for e in 0..n_elements {
        offsets[e + 1] += offsets[e];
    }
    let mut covering = vec![0u32; offsets[n_elements]];
    let mut fill = offsets.clone();
    for (d, c) in coverage.iter().enumerate() {
        for &e in c {
            covering[fill[e as usize]] = d as u32;
            fill[e as usize] += 1;
        }
    }

    let mut gain: Vec<usize> = coverage.iter().map(Vec::len).collect();
    let max_gain = gain.iter().copied().max().unwrap_or(0);
    // Buckets hold lazily-filed candidates; a candidate's authoritative
    // gain lives in `gain[]`, and entries refile downward on pop.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_gain + 1];
    for (d, &g) in gain.iter().enumerate() {
        if g > 0 {
            buckets[g].push(d as u32);
        }
    }
    let mut covered = vec![false; n_elements];
    let mut selected = Vec::new();
    let mut level = max_gain;
    while level > 0 {
        let Some(candidate) = buckets[level].pop() else {
            level -= 1;
            continue;
        };
        let d = candidate as usize;
        let g = gain[d];
        if g < level {
            // Stale entry: refile at its true gain (gains only shrink).
            if g > 0 {
                buckets[g].push(candidate);
            }
            continue;
        }
        // g == level: the maximum gain — select.
        for &e in &coverage[d] {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                for &other in &covering[offsets[e]..offsets[e + 1]] {
                    gain[other as usize] -= 1;
                }
            }
        }
        selected.push(d);
    }
    selected
}

/// A random unit-cover instance over `n_q` elements, one row per
/// `(kind, seed)` spec, built to stress the greedy's tie-breaking: empty
/// rows, exact duplicates of earlier rows, and short runs and sparse
/// picks whose small gains collide.
fn cover_instance(n_q: usize, specs: &[(u8, u64)]) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for &(kind, seed) in specs {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut row: Vec<u32> = match kind {
            _ if n_q == 0 => Vec::new(),
            0 => Vec::new(),
            1 if !rows.is_empty() => rows[next() % rows.len()].clone(),
            1 | 2 => (0..1 + next() % 3).map(|_| (next() % n_q) as u32).collect(),
            3 => {
                let start = next() % n_q;
                (start..(start + 1 + next() % 6).min(n_q))
                    .map(|q| q as u32)
                    .collect()
            }
            _ => (0..n_q as u32).filter(|_| next() % 4 == 0).collect(),
        };
        row.sort_unstable();
        row.dedup();
        rows.push(row);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bit-matrix greedy selects exactly what the list-based CSR
    /// greedy selects, in the same order — at element counts on and
    /// around the 64-bit word boundary.
    #[test]
    fn bit_greedy_matches_csr_greedy(
        specs in prop::collection::vec((0u8..5, any::<u64>()), 0..48),
    ) {
        for n_q in [0usize, 1, 63, 64, 65, 200] {
            let rows = cover_instance(n_q, &specs);
            let mut bits = BitMatrix::new(rows.len(), n_q);
            for (d, row) in rows.iter().enumerate() {
                for &q in row {
                    bits.set(d, q as usize);
                }
            }
            prop_assert_eq!(
                greedy_unit_cover(&bits),
                csr_greedy_unit_cover(n_q, &rows),
                "n_q = {}", n_q
            );
        }
    }

    /// Every batching strategy partitions the question set exactly —
    /// no question lost, none duplicated, no batch oversized (§II-C:
    /// ∪ B_i = M).
    #[test]
    fn batching_partitions(
        points in arb_points(60),
        batch_size in 1usize..12,
        seed in any::<u64>(),
    ) {
        let space = FeatureSpace::from_vectors(points.clone(), DistanceKind::Euclidean);
        for strategy in BatchingStrategy::ALL {
            for clustering in [ClusteringKind::Dbscan, ClusteringKind::KMeans] {
                let batches = make_batches(&space, strategy, clustering, batch_size, seed);
                let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
                seen.sort_unstable();
                let expect: Vec<usize> = (0..points.len()).collect();
                prop_assert_eq!(&seen, &expect, "{:?}/{:?} not a partition", strategy, clustering);
                prop_assert!(
                    batches.iter().all(|b| b.len() <= batch_size),
                    "{:?} produced an oversized batch", strategy
                );
            }
        }
    }

    /// Greedy set cover always covers every coverable element and never
    /// selects a zero-gain candidate.
    #[test]
    fn cover_correct(
        coverage in prop::collection::vec(
            prop::collection::vec(0u32..40, 0..12),
            1..25,
        ),
    ) {
        let n = 40usize;
        let picked = greedy_weighted_cover(n, &coverage, |_| 1.0);
        // Selected set covers exactly the union of all candidate coverage.
        let mut covered = vec![false; n];
        for &d in &picked {
            for &e in &coverage[d] {
                covered[e as usize] = true;
            }
        }
        let mut coverable = vec![false; n];
        for c in &coverage {
            for &e in c {
                coverable[e as usize] = true;
            }
        }
        prop_assert_eq!(covered, coverable);
        // No duplicates in the selection.
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), picked.len());
    }

    /// Selection plans are sane for every strategy: per-batch lists are
    /// duplicate-free subsets of the labeled set (for relevance-driven
    /// strategies), and the labeled set indexes into the pool.
    #[test]
    fn selection_plans_sane(
        q_points in arb_points(30),
        pool_points in arb_points(30),
        seed in any::<u64>(),
    ) {
        let questions = FeatureSpace::from_vectors(q_points.clone(), DistanceKind::Euclidean);
        let pool = FeatureSpace::from_vectors(pool_points.clone(), DistanceKind::Euclidean);
        let batches = make_batches(
            &questions,
            BatchingStrategy::Random,
            ClusteringKind::Dbscan,
            4,
            seed,
        );
        for strategy in SelectionStrategy::ALL {
            let plan = select_demonstrations(
                strategy,
                &questions,
                &pool,
                &batches,
                SelectionParams { k: 3, cover_percentile: 20.0, seed },
                |_| 1.0,
            );
            prop_assert_eq!(plan.per_batch.len(), batches.len());
            for (bi, demos) in plan.per_batch.iter().enumerate() {
                let mut uniq = demos.clone();
                uniq.sort_unstable();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), demos.len(), "{:?} batch {} has duplicate demos", strategy, bi);
                for &d in demos {
                    prop_assert!(d < pool_points.len(), "{:?} demo index out of pool", strategy);
                    prop_assert!(
                        plan.labeled.contains(&d),
                        "{:?} prompts an unlabeled demo", strategy
                    );
                }
            }
            prop_assert!(plan.labeled.iter().all(|&d| d < pool_points.len()));
        }
    }

    /// The covering threshold is monotone in the percentile.
    #[test]
    fn percentile_monotone(points in arb_points(40), seed in any::<u64>()) {
        let space = FeatureSpace::from_vectors(points, DistanceKind::Euclidean);
        let p5 = space.distance_percentile(5.0, 10_000, seed);
        let p50 = space.distance_percentile(50.0, 10_000, seed);
        let p95 = space.distance_percentile(95.0, 10_000, seed);
        prop_assert!(p5 <= p50 && p50 <= p95);
    }
}
