//! Seeded benchmark inputs: the cross-domain trace, its held-out split, the request
//! stream and the delta stream.
//!
//! Everything here is a pure function of the workload seed: the same seed gives the
//! same trace, the same requests and the same deltas, and the program under test
//! only ever sees the generated values.

use xmap_cf::{DomainId, ItemId, UserId};
use xmap_core::RatingDelta;
use xmap_dataset::split::{CrossDomainSplit, SplitConfig};
use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};

/// Popularity skew of item selection in every workload's trace (Zipf-like head).
pub const POPULARITY_SKEW: f64 = 1.1;

/// Ratings per delta in every workload's delta stream.
pub const DELTA_RATINGS: usize = 8;

/// The delta stream repeats its mix of delta kinds every this many deltas.
pub const DELTA_PERIOD: usize = 8;

/// The size of a generated trace. Both domains hold `items_per_domain` items; the
/// overlap users rate in both, everyone else in one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub items_per_domain: usize,
    pub source_only: usize,
    pub target_only: usize,
    pub overlap: usize,
    pub ratings_per_user: usize,
}

impl Shape {
    /// 48k ratings: 1,000 + 1,000 items, 3,200 users.
    pub const SERVE: Shape = Shape {
        items_per_domain: 1000,
        source_only: 1200,
        target_only: 1200,
        overlap: 800,
        ratings_per_user: 12,
    };

    /// 24k ratings: 500 + 500 items, 1,600 users.
    pub const INGEST: Shape = Shape {
        items_per_domain: 500,
        source_only: 600,
        target_only: 600,
        overlap: 400,
        ratings_per_user: 12,
    };

    /// A few hundred ratings, for the benchmark's own tests.
    pub const TINY: Shape = Shape {
        items_per_domain: 40,
        source_only: 30,
        target_only: 30,
        overlap: 24,
        ratings_per_user: 6,
    };
}

/// One client request of the serving stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Target-domain top-10 for a user.
    TopN(UserId),
    /// Rating prediction for a held-out `(user, item)` pair.
    Predict(UserId, ItemId),
}

/// A generated trace with its held-out split.
pub struct Trace {
    pub seed: u64,
    pub data: CrossDomainDataset,
    pub split: CrossDomainSplit,
}

impl Trace {
    pub fn generate(shape: Shape, seed: u64) -> Trace {
        let data = CrossDomainDataset::generate(CrossDomainConfig {
            n_source_items: shape.items_per_domain,
            n_target_items: shape.items_per_domain,
            n_source_only_users: shape.source_only,
            n_target_only_users: shape.target_only,
            n_overlap_users: shape.overlap,
            ratings_per_user: shape.ratings_per_user,
            latent_dim: 3,
            noise: 0.25,
            seed,
            popularity_skew: POPULARITY_SKEW,
        });
        let split = CrossDomainSplit::build(
            &data,
            DomainId::TARGET,
            SplitConfig {
                seed: mix(seed, 1),
                ..SplitConfig::default()
            },
        );
        Trace { seed, data, split }
    }

    /// Users with source-domain history only: the "read after watching" askers.
    pub fn source_only_users(&self) -> &[UserId] {
        &self.data.source_only_users
    }

    /// `len` requests: top-N for source-only users drawn uniformly, every 4th
    /// request a prediction on a held-out pair. A skewed draw would make a few
    /// users' costs the whole p50, and which users those are changes with the seed.
    pub fn requests(&self, len: usize) -> Vec<Request> {
        let mut rng = SplitMix64::new(mix(self.seed, 2));
        let users = self.source_only_users();
        let held_out = &self.split.test;
        (0..len)
            .map(|ix| {
                if ix % 4 == 3 && !held_out.is_empty() {
                    let r = held_out[rng.below(held_out.len())];
                    Request::Predict(r.user, r.item)
                } else {
                    Request::TopN(users[rng.below(users.len())])
                }
            })
            .collect()
    }

    /// The `i`-th delta of the seeded delta stream, for a model fitted on the
    /// training split and fed deltas `0..i` in order.
    ///
    /// Six in every [`DELTA_PERIOD`] deltas re-rate random (overlap user, target
    /// item) pairs; the 4th introduces a new straddling user, and the 8th declares a
    /// new target item and rates it. New ids are allocated contiguously past the
    /// training matrix, so the stream stays valid however long it runs.
    pub fn delta(&self, i: usize) -> RatingDelta {
        let mut rng = SplitMix64::new(mix(mix(self.seed, 3), i as u64));
        let train = &self.split.train;
        let source = self.data.source_items();
        let target = self.data.target_items();
        let overlap = &self.data.overlap_users;
        let t = 10_000 + i as u32;
        let mut delta = RatingDelta::new();
        let rate = |delta: &mut RatingDelta, rng: &mut SplitMix64, user: u32, item: u32| {
            delta.push_timed(user, item, (1 + rng.below(5)) as f64, t);
        };
        if i % 8 == 3 {
            let user = (train.n_users() + i / 8) as u32;
            for k in 0..DELTA_RATINGS {
                let pool = if k < DELTA_RATINGS / 2 + 1 {
                    &source
                } else {
                    &target
                };
                let item = pool[rng.below(pool.len())].0;
                rate(&mut delta, &mut rng, user, item);
            }
        } else if i % 8 == 7 {
            let item = ItemId((train.n_items() + i / 8) as u32);
            delta.declare_item(item, DomainId::TARGET);
            for k in 0..DELTA_RATINGS {
                let user = overlap[rng.below(overlap.len())].0;
                let rated = if k % 2 == 0 {
                    item
                } else {
                    target[rng.below(target.len())]
                };
                rate(&mut delta, &mut rng, user, rated.0);
            }
        } else {
            for _ in 0..DELTA_RATINGS {
                let user = overlap[rng.below(overlap.len())].0;
                let item = target[rng.below(target.len())].0;
                rate(&mut delta, &mut rng, user, item);
            }
        }
        delta
    }

    /// A fixed, seeded sample of source-only users for output checks.
    pub fn probe_users(&self, n: usize) -> Vec<UserId> {
        let users = self.source_only_users();
        let mut rng = SplitMix64::new(mix(self.seed, 4));
        (0..n.min(users.len()))
            .map(|_| users[rng.below(users.len())])
            .collect()
    }
}

/// Combines a seed with a stream tag, so each input stream gets its own sequence.
pub fn mix(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// SplitMix64: a tiny, well-mixed generator, so the streams do not depend on any
/// other crate's RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams_and_other_seed_other_streams() {
        let a = Trace::generate(Shape::TINY, 5);
        let b = Trace::generate(Shape::TINY, 5);
        let c = Trace::generate(Shape::TINY, 6);
        assert_eq!(a.requests(500), b.requests(500));
        assert_ne!(a.requests(500), c.requests(500));
        let deltas = |t: &Trace| (0..20).map(|i| t.delta(i)).collect::<Vec<_>>();
        assert_eq!(deltas(&a), deltas(&b));
        assert_ne!(deltas(&a), deltas(&c));
        assert_eq!(a.probe_users(8), b.probe_users(8));
    }

    #[test]
    fn request_stream_mixes_predictions_on_held_out_pairs() {
        let t = Trace::generate(Shape::TINY, 9);
        let reqs = t.requests(400);
        let predicts: Vec<_> = reqs
            .iter()
            .filter_map(|r| match *r {
                Request::Predict(u, i) => Some((u, i)),
                Request::TopN(_) => None,
            })
            .collect();
        assert_eq!(predicts.len(), 100, "every 4th request is a prediction");
        for (u, i) in predicts {
            assert!(t.split.test.iter().any(|r| r.user == u && r.item == i));
        }
        for r in &reqs {
            if let Request::TopN(u) = r {
                assert!(t.source_only_users().contains(u));
            }
        }
    }

    #[test]
    fn deltas_have_eight_ratings_and_allocate_fresh_ids() {
        let t = Trace::generate(Shape::TINY, 3);
        let (n_users, n_items) = (t.split.train.n_users(), t.split.train.n_items());
        for i in 0..32 {
            let d = t.delta(i);
            assert_eq!(d.len(), DELTA_RATINGS);
            if i % 8 == 3 {
                assert!(d
                    .ratings()
                    .iter()
                    .all(|r| r.user.index() == n_users + i / 8));
            } else if i % 8 == 7 {
                assert_eq!(
                    d.item_domains(),
                    &[(ItemId((n_items + i / 8) as u32), DomainId::TARGET)]
                );
            } else {
                assert!(d.ratings().iter().all(|r| r.user.index() < n_users));
            }
        }
    }
}
